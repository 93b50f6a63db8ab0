// Full-pipeline integration: synthetic footage -> shot detection ->
// annotation -> data model -> rule-based querying -> virtual editing ->
// persistence round-trip. This is the workflow the paper's archive
// prototype (Section 1: TV channel / audio-visual institute) would run.

#include <gtest/gtest.h>

#include "src/engine/query.h"
#include "src/storage/binary_format.h"
#include "src/storage/catalog.h"
#include "src/storage/text_format.h"
#include "src/video/annotator.h"
#include "src/video/indexing_schemes.h"
#include "src/video/shot_detector.h"
#include "src/video/synthetic.h"
#include "src/video/virtual_editing.h"

namespace vqldb {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticArchiveConfig config;
    config.seed = 2024;
    config.num_shots = 15;
    config.num_entities = 4;
    config.mean_shot_seconds = 5.0;
    config.presence_probability = 0.45;
    timeline_ = GenerateArchive(config);
  }

  VideoTimeline timeline_;
};

TEST_F(EndToEndTest, FullPipeline) {
  // 1. Machine-derived indices: render frames, detect shots.
  FrameRenderConfig render;
  render.fps = 10.0;
  FrameStream stream = RenderFrameStream(timeline_, render);
  auto shots = ShotDetector().Detect(stream);
  ASSERT_TRUE(shots.ok());
  EXPECT_GE(shots->size(), 12u);

  // 2. Application-level indices: annotate the ground-truth tracks.
  VideoDatabase db;
  Annotator annotator(&db);
  ASSERT_TRUE(annotator.AnnotateTimeline(timeline_).ok());
  ASSERT_TRUE(db.Validate().ok());
  EXPECT_EQ(db.Entities().size(), 4u);
  EXPECT_EQ(db.BaseIntervals().size(), 4u);

  // 3. Declarative retrieval with the standard rule library.
  QuerySession session(&db);
  ASSERT_TRUE(session.Load(StandardRuleLibrary()).ok());
  auto appears = session.Query("?- appears(actor0, G).");
  ASSERT_TRUE(appears.ok());
  ASSERT_GE(appears->rows.size(), 1u);

  // 4. Virtual editing: build a sequence of every scene actor0 appears in.
  auto edit = SequenceFromQueryColumn(db, *appears, 0);
  ASSERT_TRUE(edit.ok());
  EXPECT_GT(edit->TotalDuration(), 0);
  auto edited = MaterializeSequence(&db, "actor0_reel", *edit);
  ASSERT_TRUE(edited.ok());

  // The materialized reel equals actor0's ground-truth occurrences.
  IntervalSet reel = *db.DurationOf(*edited);
  EXPECT_EQ(reel, timeline_.FindTrack("actor0")->extent.ToIntervalSet());

  // 5. Persist and restore, then re-run a query on the restored archive.
  std::string text = *TextFormat::Dump(db);
  VideoDatabase restored;
  ASSERT_TRUE(TextFormat::Load(text, &restored).ok());
  QuerySession session2(&restored);
  ASSERT_TRUE(session2.Load(StandardRuleLibrary()).ok());
  auto appears2 = session2.Query("?- appears(actor0, G).");
  ASSERT_TRUE(appears2.ok());
  // The reel interval also survives (it became a base interval on load).
  EXPECT_GE(appears2->rows.size(), appears->rows.size());
}

TEST_F(EndToEndTest, BinaryAndTextAgree) {
  VideoDatabase db;
  Annotator annotator(&db);
  ASSERT_TRUE(annotator.AnnotateTimeline(timeline_).ok());

  auto bytes = BinaryFormat::Serialize(db);
  ASSERT_TRUE(bytes.ok());
  auto from_binary = BinaryFormat::Deserialize(*bytes);
  ASSERT_TRUE(from_binary.ok());

  VideoDatabase from_text;
  ASSERT_TRUE(TextFormat::Load(*TextFormat::Dump(db), &from_text).ok());

  EXPECT_EQ(from_binary->Entities().size(), from_text.Entities().size());
  EXPECT_EQ(from_binary->BaseIntervals().size(),
            from_text.BaseIntervals().size());
  for (ObjectId gi : from_text.BaseIntervals()) {
    const std::string* symbol = from_text.SymbolOf(gi);
    ASSERT_NE(symbol, nullptr);
    ObjectId other = *from_binary->Resolve(*symbol);
    EXPECT_EQ(*from_binary->DurationOf(other), *from_text.DurationOf(gi));
  }
}

TEST_F(EndToEndTest, ThreeSchemesAnswerTheSameQueryConsistently) {
  // Build the three Fig. 1-3 representations of the same footage and ask
  // "when is actor1 on screen" through the model layer.
  const GeneralizedInterval& truth = timeline_.FindTrack("actor1")->extent;
  for (auto& scheme : AllIndexingSchemes()) {
    ASSERT_TRUE(scheme->Build(timeline_).ok());
    GeneralizedInterval retrieved = scheme->OccurrencesOf("actor1");
    RetrievalQuality q = MeasureQuality(retrieved, truth);
    EXPECT_DOUBLE_EQ(q.recall, 1.0) << scheme->SchemeName();
    if (scheme->SchemeName() != "segmentation") {
      EXPECT_DOUBLE_EQ(q.precision, 1.0) << scheme->SchemeName();
    }
  }
}

TEST_F(EndToEndTest, ConstructiveQueryBuildsReelInsideTheLanguage) {
  VideoDatabase db;
  Annotator annotator(&db);
  ASSERT_TRUE(annotator.AnnotateTimeline(timeline_).ok());
  QuerySession session(&db);
  // The paper's virtual-editing motivation, purely in rules: concatenate
  // all scenes where actor0 and actor1 both appear... here each occ_ GI
  // holds a single entity, so concatenate actor0's with actor1's.
  ASSERT_TRUE(session
                  .AddRule("reel(G1 ++ G2) <- Interval(G1), Interval(G2), "
                           "Object(O1), Object(O2), O1 in G1.entities, "
                           "O2 in G2.entities, O1.name = \"actor0\", "
                           "O2.name = \"actor1\".")
                  .ok());
  auto r = session.Query("?- reel(G).");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  ObjectId reel = r->rows[0][0].oid_value();
  IntervalSet expected = timeline_.FindTrack("actor0")
                             ->extent.Concat(timeline_.FindTrack("actor1")->extent)
                             .ToIntervalSet();
  EXPECT_EQ(*db.DurationOf(reel), expected);
}

TEST_F(EndToEndTest, SessionCachingAndInvalidation) {
  VideoDatabase db;
  Annotator annotator(&db);
  ASSERT_TRUE(annotator.AnnotateTimeline(timeline_).ok());
  QuerySession session(&db);
  // Full materialization: force the fixpoint strategy, so queries answer
  // from the cached fixpoint.
  session.mutable_options()->strategy = EvalStrategy::kFixpoint;
  ASSERT_TRUE(session.Load(StandardRuleLibrary()).ok());
  auto before = session.Query("?- appears(O, G).");
  ASSERT_TRUE(before.ok());
  // External mutation, with no call to the session: the cached fixpoint is
  // keyed on the database epoch, which the mutation advances, so the very
  // next query re-derives and sees the new entity.
  ObjectId extra = *db.CreateEntity("latecomer");
  ObjectId gi =
      *db.CreateInterval("late_scene", GeneralizedInterval::Single(500, 510));
  ASSERT_TRUE(db.AddEntityToInterval(gi, extra).ok());
  auto fresh = session.Query("?- appears(latecomer, G).");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows.size(), 1u);
}

TEST_F(EndToEndTest, GoalDirectedDefaultSeesLiveDatabase) {
  VideoDatabase db;
  Annotator annotator(&db);
  ASSERT_TRUE(annotator.AnnotateTimeline(timeline_).ok());
  QuerySession session(&db);
  ASSERT_TRUE(session.Load(StandardRuleLibrary()).ok());
  auto before = session.Query("?- appears(O, G).");
  ASSERT_TRUE(before.ok());
  // With magic-set evaluation on (the default), each query evaluates
  // against the live database and the query cache self-invalidates via the
  // mutation epoch — external mutation needs no call to the session.
  ObjectId extra = *db.CreateEntity("latecomer");
  ObjectId gi =
      *db.CreateInterval("late_scene", GeneralizedInterval::Single(500, 510));
  ASSERT_TRUE(db.AddEntityToInterval(gi, extra).ok());
  auto fresh = session.Query("?- appears(latecomer, G).");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows.size(), 1u);
}

}  // namespace
}  // namespace vqldb
