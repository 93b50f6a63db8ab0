// Columnar segment tests: Build/Merge determinism, EqualRange (including the
// first-column run directory), sealed-probe semantics over segments plus the
// unsealed tail, compaction behavior, wide-row (arity > 64) hash probes,
// and the seal digest's independence from evaluation thread count.

#include "src/engine/columnar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/engine/evaluator.h"
#include "src/engine/interpretation.h"
#include "src/lang/parser.h"
#include "src/model/database.h"
#include "src/model/term_dict.h"

namespace vqldb {
namespace {

Fact F(const std::string& pred, std::initializer_list<int64_t> args) {
  Fact f;
  f.relation = pred;
  for (int64_t a : args) f.args.push_back(Value::Int(a));
  return f;
}

uint32_t Id(int64_t v) { return TermDict::Global().IdOf(Value::Int(v)); }

// ---------------------------------------------------------------------------
// Segment primitives.

TEST(SegmentTest, BuildSortsRowsAndMapsSourcePositions) {
  // Rows in insertion order: (3,1) (1,2) (2,9) (1,1) — sorted lexicographic
  // order is (1,1) (1,2) (2,9) (3,1).
  const uint32_t ids[] = {3, 1, 1, 2, 2, 9, 1, 1};
  const uint32_t src[] = {0, 1, 2, 3};
  auto seg = Segment::Build(ids, src, 4, 2);
  ASSERT_EQ(seg->rows, 4u);
  EXPECT_EQ(seg->at(0, 0), 1u);
  EXPECT_EQ(seg->at(1, 0), 1u);
  EXPECT_EQ(seg->at(0, 3), 3u);
  // Source positions follow the rows through the sort.
  EXPECT_EQ(seg->src[0], 3u);  // (1,1) was inserted fourth
  EXPECT_EQ(seg->src[1], 1u);
  EXPECT_EQ(seg->src[2], 2u);
  EXPECT_EQ(seg->src[3], 0u);
}

TEST(SegmentTest, HeadDirectoryListsDistinctFirstColumnRuns) {
  const uint32_t ids[] = {5, 0, 2, 0, 2, 1, 2, 2, 9, 0};
  const uint32_t src[] = {0, 1, 2, 3, 4};
  auto seg = Segment::Build(ids, src, 5, 2);
  ASSERT_EQ(seg->head_vals, (std::vector<uint32_t>{2, 5, 9}));
  ASSERT_EQ(seg->head_starts, (std::vector<uint32_t>{0, 3, 4, 5}));
}

TEST(SegmentTest, EqualRangeFindsPrefixRuns) {
  const uint32_t ids[] = {5, 0, 2, 0, 2, 1, 2, 2, 9, 0};
  const uint32_t src[] = {0, 1, 2, 3, 4};
  auto seg = Segment::Build(ids, src, 5, 2);
  uint32_t k2[] = {2};
  auto [lo, hi] = seg->EqualRange(k2, 1);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 3u);
  uint32_t k21[] = {2, 1};
  auto [lo2, hi2] = seg->EqualRange(k21, 2);
  EXPECT_EQ(lo2, 1u);
  EXPECT_EQ(hi2, 2u);
  // Misses on either column produce empty ranges.
  uint32_t k7[] = {7};
  auto [mlo, mhi] = seg->EqualRange(k7, 1);
  EXPECT_EQ(mlo, mhi);
  uint32_t k23[] = {2, 3};
  auto [mlo2, mhi2] = seg->EqualRange(k23, 2);
  EXPECT_EQ(mlo2, mhi2);
}

TEST(SegmentTest, EqualRangeWithHintSkipsTheRunDirectory) {
  // The lo_hint path bypasses the head directory and binary-searches the
  // column slices directly; both formulations must agree.
  std::vector<uint32_t> ids;
  std::vector<uint32_t> src;
  for (uint32_t i = 0; i < 100; ++i) {
    ids.push_back(i / 10);
    ids.push_back(i % 10);
    src.push_back(i);
  }
  auto seg = Segment::Build(ids.data(), src.data(), 100, 2);
  for (uint32_t v = 0; v < 12; ++v) {
    uint32_t key[] = {v};
    auto with_dir = seg->EqualRange(key, 1);
    // Linear-scan oracle.
    uint32_t lo = 100, hi = 0;
    for (uint32_t r = 0; r < 100; ++r) {
      if (seg->at(0, r) == v) {
        lo = std::min(lo, r);
        hi = r + 1;
      }
    }
    if (hi == 0) {
      EXPECT_EQ(with_dir.first, with_dir.second) << "key " << v;
    } else {
      EXPECT_EQ(with_dir, std::make_pair(lo, hi)) << "key " << v;
      // A hint inside the run bypasses the directory and restricts the low
      // end only.
      auto hinted = seg->EqualRange(key, 1, with_dir.first + 1);
      EXPECT_EQ(hinted.first, with_dir.first + 1);
      EXPECT_EQ(hinted.second, with_dir.second);
    }
  }
}

TEST(SegmentTest, MergeEqualsBuildOfConcatenation) {
  // Split 60 distinct rows into three interleaved batches; merging the three
  // sorted runs must reproduce the segment built from all rows at once.
  std::vector<uint32_t> all_ids;
  std::vector<uint32_t> all_src;
  std::vector<std::vector<uint32_t>> batch_ids(3);
  std::vector<std::vector<uint32_t>> batch_src(3);
  for (uint32_t i = 0; i < 60; ++i) {
    uint32_t row[2] = {(i * 7) % 30, i};
    all_ids.insert(all_ids.end(), row, row + 2);
    all_src.push_back(i);
    batch_ids[i % 3].insert(batch_ids[i % 3].end(), row, row + 2);
    batch_src[i % 3].push_back(i);
  }
  std::vector<std::shared_ptr<const Segment>> runs;
  for (int b = 0; b < 3; ++b) {
    runs.push_back(Segment::Build(batch_ids[b].data(), batch_src[b].data(),
                                  batch_src[b].size(), 2));
  }
  auto merged = Segment::Merge(runs);
  auto oneshot = Segment::Build(all_ids.data(), all_src.data(), 60, 2);
  EXPECT_EQ(merged->cols, oneshot->cols);
  EXPECT_EQ(merged->src, oneshot->src);
  EXPECT_EQ(merged->head_vals, oneshot->head_vals);
  EXPECT_EQ(merged->head_starts, oneshot->head_starts);
}

// ---------------------------------------------------------------------------
// Interpretation-level sealed probes.

TEST(ColumnarProbeTest, ProbeSortedCoversSegmentsAndTail) {
  Interpretation interp;
  interp.Add(F("edge", {1, 2}));
  interp.Add(F("edge", {2, 3}));
  interp.Add(F("edge", {1, 3}));
  interp.SealSegments();
  interp.Add(F("edge", {1, 4}));  // unsealed tail

  Interpretation::RelationView edge = interp.Relation("edge");
  uint32_t key[] = {Id(1)};
  std::vector<size_t> out;
  edge.ProbeSorted(key, 1, 2, &out);
  // Ascending insertion-order positions, spanning sealed rows and the tail.
  EXPECT_EQ(out, (std::vector<size_t>{0, 2, 3}));

  uint32_t full[] = {Id(1), Id(3)};
  edge.ProbeSorted(full, 2, 2, &out);
  EXPECT_EQ(out, (std::vector<size_t>{2}));

  uint32_t miss[] = {Id(9)};
  edge.ProbeSorted(miss, 1, 2, &out);
  EXPECT_TRUE(out.empty());
}

TEST(ColumnarProbeTest, RepeatedSealsCompactAndStayCorrect) {
  // More batches than kMaxRunsPerArity forces at least one k-way compaction;
  // probe results must be identical to a never-sealed interpretation.
  Interpretation sealed;
  Interpretation plain;
  for (int64_t batch = 0; batch < 12; ++batch) {
    for (int64_t i = 0; i < 5; ++i) {
      Fact f = F("r", {(batch * 5 + i) % 7, batch, i});
      sealed.Add(f);
      plain.Add(f);
    }
    sealed.SealSegments();
  }
  for (int64_t v = 0; v < 8; ++v) {
    uint32_t key[] = {Id(v)};
    std::vector<size_t> a;
    std::vector<size_t> b;
    sealed.Relation("r").ProbeSorted(key, 1, 3, &a);
    plain.Relation("r").ProbeSorted(key, 1, 3, &b);
    EXPECT_EQ(a, b) << "key " << v;
  }
}

TEST(ColumnarProbeTest, MixedAritiesProbeIndependently) {
  Interpretation interp;
  interp.Add(F("p", {1, 2}));
  interp.Add(F("p", {1, 2, 3}));
  interp.SealSegments();
  Interpretation::RelationView p = interp.Relation("p");
  uint32_t key[] = {Id(1)};
  std::vector<size_t> out;
  p.ProbeSorted(key, 1, 2, &out);
  EXPECT_EQ(out, (std::vector<size_t>{0}));
  p.ProbeSorted(key, 1, 3, &out);
  EXPECT_EQ(out, (std::vector<size_t>{1}));
}

// ---------------------------------------------------------------------------
// Wide rows: arity > 64 relations take the hash index like any other, keyed
// on their first 64 positions, whether their rows are sealed or not.

Fact WideFact(int64_t head, int64_t second) {
  Fact f;
  f.relation = "wide";
  f.args.push_back(Value::Int(head));
  f.args.push_back(Value::Int(second));
  for (int i = 0; i < 68; ++i) f.args.push_back(Value::Int(1000 + i));
  return f;
}

TEST(ColumnarProbeTest, WideRowPrefixMasksProbeSealedAndTailRows) {
  Interpretation interp;
  interp.Add(WideFact(1, 10));
  interp.Add(WideFact(2, 20));
  interp.Add(WideFact(1, 30));
  interp.SealSegments();

  const auto& hits =
      interp.LookupMulti("wide", 0b1, {Value::Int(1)});
  EXPECT_EQ(hits, (std::vector<size_t>{0, 2}));
  const auto& both =
      interp.LookupMulti("wide", 0b11, {Value::Int(1), Value::Int(30)});
  EXPECT_EQ(both, (std::vector<size_t>{2}));
  EXPECT_TRUE(interp.LookupMulti("wide", 0b1, {Value::Int(9)}).empty());

  // Unsealed tail rows are part of the answer too.
  interp.Add(WideFact(1, 40));
  const auto& with_tail =
      interp.LookupMulti("wide", 0b1, {Value::Int(1)});
  EXPECT_EQ(with_tail, (std::vector<size_t>{0, 2, 3}));
}

TEST(ColumnarProbeDeathTest, AddWhileHoldingWideProbeReferenceDies) {
  Interpretation interp;
  interp.Add(WideFact(1, 10));
  const auto& ref = interp.LookupMulti("wide", 0b1, {Value::Int(1)});
  ASSERT_EQ(ref.size(), 1u);
  // Freeze turns an insert-while-iterating violation into a loud death at
  // the mutation site.
  interp.Freeze();
  EXPECT_DEATH(interp.Add(WideFact(3, 30)), "frozen");
}

// ---------------------------------------------------------------------------
// Seal digests: evaluating the same program at different thread counts must
// seal byte-identical segments (the determinism anchor for merge joins).

TEST(ColumnarDeterminismTest, SealedDigestsAgreeAcrossThreadCounts) {
  auto run = [](size_t num_threads) {
    VideoDatabase db;
    std::vector<ObjectId> nodes;
    for (int i = 0; i < 12; ++i) {
      nodes.push_back(*db.CreateEntity("n" + std::to_string(i)));
    }
    for (int i = 0; i < 12; ++i) {
      for (int d : {1, 3, 5}) {
        VQLDB_CHECK_OK(db.AssertFact("edge",
                                     {Value::Oid(nodes[i]),
                                      Value::Oid(nodes[(i + d) % 12])}));
      }
    }
    auto program = Parser::ParseProgram(R"(
      reach(X, Y) <- edge(X, Y).
      reach(X, Z) <- reach(X, Y), edge(Y, Z).
      tri(X, Y, Z) <- edge(X, Y), edge(Y, Z), edge(Z, X).
    )");
    VQLDB_CHECK(program.ok());
    std::vector<Rule> rules;
    for (const Rule* r : program->Rules()) rules.push_back(*r);
    EvalOptions options;
    options.num_threads = num_threads;
    auto eval = Evaluator::Make(&db, rules, options);
    VQLDB_CHECK(eval.ok());
    auto fp = eval->Fixpoint();
    VQLDB_CHECK(fp.ok());
    fp->SealSegments();
    std::vector<uint64_t> digests;
    for (const std::string& pred : fp->Predicates()) {
      digests.push_back(fp->SealedDigest(pred));
    }
    return digests;
  };
  std::vector<uint64_t> base = run(1);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

}  // namespace
}  // namespace vqldb
