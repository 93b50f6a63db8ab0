#include "perfbench/gen.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/model/database.h"
#include "src/storage/catalog.h"
#include "src/storage/text_format.h"

namespace perfbench {

namespace {

uint64_t Mix(uint64_t seed, uint64_t stream) {
  return vqldb::Rng(seed * 0x9e3779b97f4a7c15ULL + stream).Next();
}

// `appears`, `cooccur` and `contains` exactly as the standard rule library
// states them, rendered back to text the way vqlsrv installs .vql rules.
std::string BrowseRules() {
  vqldb::VideoDatabase scratch;
  auto loaded =
      vqldb::TextFormat::Load(vqldb::StandardRuleLibrary(), &scratch);
  VQLDB_CHECK_OK(loaded.status());
  std::string out;
  for (const vqldb::Rule& rule : loaded->rules) {
    const std::string& p = rule.head.predicate;
    if (p == "appears" || p == "cooccur" || p == "contains") {
      out += rule.ToString() + "\n";
    }
  }
  return out;
}

std::string Duration(const std::vector<std::pair<int64_t, int64_t>>& pieces) {
  std::string out = "(";
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i) out += ") or (";
    out += "t >= " + std::to_string(pieces[i].first) +
           " and t <= " + std::to_string(pieces[i].second);
  }
  return out + ")";
}

// Distinct entity indexes for one scene: 1..4 people, popular anchors first.
std::vector<size_t> SceneCast(const ZipfKeys& popularity, size_t entities,
                              vqldb::Rng* rng) {
  size_t want = std::min<size_t>(entities, 1 + rng->UniformU64(4));
  std::vector<size_t> cast;
  while (cast.size() < want) {
    size_t e = popularity.Next(rng);
    if (std::find(cast.begin(), cast.end(), e) == cast.end()) cast.push_back(e);
  }
  return cast;
}

}  // namespace

bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* out) {
  WorkloadSpec w;
  w.name = name;
  if (name == "browse") {
    w.readers = 4;
  } else if (name == "ingest") {
    w.readers = 3;
    // From 20 scenes/s on, snapshot work is the largest layer share, but
    // the two workers are at their knee and read throughput varied by
    // 20-60% between runs.
    w.write_rate = 10;
    // With the 0.8 skew, the few heavy anchors' cold-cache runs after each
    // snapshot made read throughput vary by 15-20% between runs.
    w.cast_skew = 0.5;
  } else if (name == "archive") {
    w.archive_mode = true;
    w.readers = 3;
    // Each write invalidates one shard's caches, and re-deriving its scans
    // and lookups costs a fixed ~90 ms of CPU under the archive lock. The
    // closed-loop reads share what is left, so the higher the write rate,
    // the more a slower host raises the CPU per request: by 1.6x at 4
    // writes/s against 1.2x in the single-db workloads.
    w.write_rate = 1;
    // A scan renders and merges every shard's cached answers, thousands of
    // rows. At 5% of reads, scans took two thirds of the CPU, and in the
    // host's slow minutes they slowed by 1.6x against 1.2x for lookups.
    w.scan_share = 0.01;
    w.tenants = 8;
  } else {
    return false;
  }
  if (smoke) {
    w.entities = 16;
    w.scenes = w.archive_mode ? 128 : 200;
    if (w.archive_mode) w.tenants = 4;
  }
  *out = w;
  return true;
}

std::string EntitySymbol(const WorkloadSpec& spec, size_t tenant, size_t k) {
  return (spec.archive_mode ? "t" + std::to_string(tenant) + "_e" : "e") +
         std::to_string(k);
}

std::string SceneSymbol(const WorkloadSpec& spec, size_t tenant, size_t k) {
  return (spec.archive_mode ? "t" + std::to_string(tenant) + "_s" : "s") +
         std::to_string(k);
}

ZipfKeys::ZipfKeys(size_t n, double s) {
  cdf_.resize(n);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfKeys::Next(vqldb::Rng* rng) const {
  double u = rng->UniformDouble();
  size_t rank = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(rank, cdf_.size() - 1);
}

Archive GenerateArchive(const WorkloadSpec& spec, uint64_t seed) {
  Archive out;
  out.rules = BrowseRules();
  const size_t tenants = spec.archive_mode ? spec.tenants : 1;
  const size_t entities = spec.entities / tenants;
  const size_t scenes = spec.scenes / tenants;
  for (size_t t = 0; t < tenants; ++t) {
    vqldb::Rng rng(Mix(seed, 100 + t));
    ZipfKeys popularity(entities, spec.cast_skew);
    std::string text;
    for (size_t e = 0; e < entities; ++e) {
      text += "object " + EntitySymbol(spec, t, e) + " { name: \"person " +
              std::to_string(e) + "\" }.\n";
    }
    // A news timeline: short overlapping shots, every so often a long story
    // segment that contains the shots after it, and some non-continuous
    // scenes (two pieces) — the generalized intervals of Fig. 3.
    int64_t clock = 0;
    for (size_t k = 0; k < scenes; ++k) {
      std::vector<std::pair<int64_t, int64_t>> pieces;
      if (rng.Bernoulli(0.08)) {
        pieces.push_back({clock, clock + rng.UniformInt(60, 240)});
      } else {
        int64_t len = rng.UniformInt(4, 30);
        pieces.push_back({clock, clock + len});
        if (rng.Bernoulli(0.2)) {
          int64_t gap = rng.UniformInt(10, 80);
          pieces.push_back({clock + len + gap,
                            clock + len + gap + rng.UniformInt(4, 20)});
        }
        clock += rng.UniformInt(len / 2 + 1, len);
      }
      out.end_time = std::max(out.end_time, pieces.back().second);
      std::vector<size_t> cast = SceneCast(popularity, entities, &rng);
      std::string scene = SceneSymbol(spec, t, k);
      text += "interval " + scene + " { duration: " + Duration(pieces) +
              ", entities: {";
      for (size_t i = 0; i < cast.size(); ++i) {
        text += (i ? ", " : "") + EntitySymbol(spec, t, cast[i]);
      }
      text += "} }.\n";
      if (cast.size() >= 2 && rng.Bernoulli(0.5)) {
        text += "interviews(" + EntitySymbol(spec, t, cast[0]) + ", " +
                EntitySymbol(spec, t, cast[1]) + ", " + scene + ").\n";
      }
    }
    out.statement_bytes += text.size();
    out.tenants.push_back(spec.archive_mode ? "t" + std::to_string(t)
                                            : "default");
    out.tenant_text.push_back(std::move(text));
  }
  if (!spec.archive_mode) out.program = out.tenant_text[0] + out.rules;
  return out;
}

ReadGen::ReadGen(const WorkloadSpec& spec, uint64_t seed, size_t reader)
    : spec_(spec),
      rng_(Mix(seed, 1000 + reader)),
      entity_keys_(spec.entities, 1.0),
      scene_keys_(spec.archive_mode ? 1 : spec.scenes, 1.0) {}

Op ReadGen::Next() {
  Op op;
  if (spec_.archive_mode) {
    if (rng_.Bernoulli(spec_.scan_share)) {
      op.kind = Op::Kind::kScan;
      if (rng_.Bernoulli(0.5)) {
        op.label = "scan.appears";
        op.text = "?- appears(O, G).";
      } else {
        op.label = "scan.cooccur";
        op.text = "?- cooccur(O1, O2, G).";
      }
      return op;
    }
    // Rank r is tenant r % tenants's entity of rank r / tenants, so every
    // tenant has hot and cold people.
    size_t key = entity_keys_.Next(&rng_);
    std::string e =
        EntitySymbol(spec_, key % spec_.tenants, key / spec_.tenants);
    switch (rng_.UniformU64(3)) {
      case 0:
        op.label = "appears";
        op.text = "?- appears(" + e + ", G).";
        break;
      case 1:
        op.label = "cooccur";
        op.text = "?- cooccur(" + e + ", O, G).";
        break;
      default:
        op.label = "interviews";
        op.text = "?- interviews(" + e + ", O, G).";
        break;
    }
    return op;
  }
  switch (rng_.UniformU64(4)) {
    case 0:
      op.label = "appears";
      op.text = "?- appears(" + EntitySymbol(spec_, 0, entity_keys_.Next(&rng_)) +
                ", G).";
      break;
    case 1:
      op.label = "cooccur";
      op.text = "?- cooccur(" +
                EntitySymbol(spec_, 0, entity_keys_.Next(&rng_)) + ", O, G).";
      break;
    case 2:
      op.label = "interviews";
      op.text = "?- interviews(" +
                EntitySymbol(spec_, 0, entity_keys_.Next(&rng_)) + ", O, G).";
      break;
    default:
      op.label = "contains";
      op.text = "?- contains(" + SceneSymbol(spec_, 0, scene_keys_.Next(&rng_)) +
                ", G).";
      break;
  }
  return op;
}

WriteGen::WriteGen(const WorkloadSpec& spec, uint64_t seed, int64_t start_time)
    : spec_(spec),
      rng_(Mix(seed, 3)),
      entity_keys_(spec.entities / (spec.archive_mode ? spec.tenants : 1),
                   spec.cast_skew),
      t_(start_time + 10) {}

Op WriteGen::Next() {
  Op op;
  op.kind = Op::Kind::kWrite;
  op.label = "write";
  size_t tenant =
      spec_.archive_mode ? static_cast<size_t>(rng_.UniformU64(spec_.tenants)) : 0;
  op.tenant = spec_.archive_mode ? "t" + std::to_string(tenant) : "default";
  size_t a = entity_keys_.Next(&rng_);
  size_t b = a;
  while (b == a) b = entity_keys_.Next(&rng_);
  std::string ea = EntitySymbol(spec_, tenant, a);
  std::string eb = EntitySymbol(spec_, tenant, b);
  std::string scene = (spec_.archive_mode ? op.tenant + "_w" : "w") +
                      std::to_string(n_++);
  int64_t len = rng_.UniformInt(4, 30);
  op.body = "interval " + scene + " { duration: " + Duration({{t_, t_ + len}}) +
            ", entities: {" + ea + ", " + eb + "} }.\ninterviews(" + ea +
            ", " + eb + ", " + scene + ").";
  t_ += len / 2 + 1;
  op.text = spec_.archive_mode ? "@tenant:" + op.tenant + "\n" + op.body
                               : op.body;
  return op;
}

std::vector<std::string> ProbeQueries(const WorkloadSpec& spec, size_t writes,
                                      uint64_t seed) {
  std::vector<std::string> out;
  const size_t tenants = spec.archive_mode ? spec.tenants : 1;
  const size_t per_tenant = spec.entities / tenants;
  for (size_t t = 0; t < tenants; ++t) {
    for (size_t e = 0; e < per_tenant; ++e) {
      std::string sym = EntitySymbol(spec, t, e);
      out.push_back("?- interviews(" + sym + ", O, G).");
      out.push_back("?- appears(" + sym + ", G).");
    }
  }
  vqldb::Rng rng(Mix(seed, 5));
  if (!spec.archive_mode) {
    for (int i = 0; i < 16; ++i) {
      out.push_back("?- contains(" +
                    SceneSymbol(spec, 0, rng.UniformU64(spec.scenes)) +
                    ", G).");
    }
    for (size_t i = 0; i < std::min<size_t>(writes, 16); ++i) {
      out.push_back("?- contains(w" + std::to_string(rng.UniformU64(writes)) +
                    ", G).");
    }
  } else {
    out.push_back("?- appears(O, G).");
    out.push_back("?- cooccur(O1, O2, G).");
  }
  return out;
}

}  // namespace perfbench
