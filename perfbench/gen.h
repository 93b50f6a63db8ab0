// Seeded inputs for the vqlsrv benchmark: the synthetic news archive, the
// closed-loop readers' query streams and the open-loop writer's statements.
// Everything here is a pure function of the workload and the seed, so one
// seed always yields the same archive and the same request streams.

#ifndef VQLDB_PERFBENCH_GEN_H_
#define VQLDB_PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace perfbench {

/// One traffic shape. Sizes are per archive (split across tenants in
/// archive mode).
struct WorkloadSpec {
  std::string name;
  bool archive_mode = false;  // vqlsrv --archive with tenant shards
  size_t readers = 4;         // closed-loop reader connections
  double write_rate = 0;      // open-loop writes per second (0 = no writer)
  double scan_share = 0;      // archive: share of reads that scan every shard
  size_t entities = 64;
  size_t scenes = 2000;
  size_t tenants = 1;
  double cast_skew = 0.8;     // Zipf skew of who appears in scenes and writes
};

/// Shards of the archive workload's `vqlsrv --archive` (its default count).
constexpr size_t kArchiveShards = 4;

/// The three workloads, or their seconds-long smoke versions.
bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* out);

/// The generated archive. Single-db mode serves `program` as a .vql file;
/// archive mode pre-populates shards with `tenant_text[i]` under
/// `tenants[i]` and installs `rules` over the wire.
struct Archive {
  std::vector<std::string> tenants;      // "default" in single-db mode
  std::vector<std::string> tenant_text;  // declarations + facts per tenant
  std::string rules;                     // appears / cooccur / contains
  std::string program;                   // single-db: all text + rules
  size_t statement_bytes = 0;            // declaration + fact bytes
  int64_t end_time = 0;                  // last instant of the timeline
};

Archive GenerateArchive(const WorkloadSpec& spec, uint64_t seed);

/// The entity and scene symbols of tenant `t` (prefixed in archive mode).
std::string EntitySymbol(const WorkloadSpec& spec, size_t tenant, size_t k);
std::string SceneSymbol(const WorkloadSpec& spec, size_t tenant, size_t k);

/// One request a generator issues.
struct Op {
  enum class Kind { kLookup, kScan, kWrite };
  Kind kind = Kind::kLookup;
  std::string label;  // goal predicate ("appears", "scan.cooccur", "write")
  std::string text;   // wire text
  std::string tenant; // writes: target tenant ("default" in single-db mode)
  std::string body;   // writes: statement text without the tenant line
};

/// Zipf(s) over keys 0..n-1; key k has popularity rank k. The archive's
/// cast and the readers' keys share the ranking, so the people who appear
/// most are also browsed most, and each seed costs the same per key rank.
class ZipfKeys {
 public:
  ZipfKeys(size_t n, double s);
  size_t Next(vqldb::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// A closed-loop reader's query stream. Goal types take fixed shares and
/// keys are Zipf-skewed within each type, so the per-type cost mix is the
/// same for every seed.
class ReadGen {
 public:
  ReadGen(const WorkloadSpec& spec, uint64_t seed, size_t reader);
  Op Next();

 private:
  const WorkloadSpec spec_;
  vqldb::Rng rng_;
  ZipfKeys entity_keys_;
  ZipfKeys scene_keys_;
};

/// The open-loop writer's stream: one new annotated scene per write (an
/// interval declaration plus an interviews fact), after the archive's end.
class WriteGen {
 public:
  WriteGen(const WorkloadSpec& spec, uint64_t seed, int64_t start_time);
  Op Next();

 private:
  const WorkloadSpec spec_;
  vqldb::Rng rng_;
  ZipfKeys entity_keys_;
  int64_t t_;
  size_t n_ = 0;
};

/// End-of-run probe goals compared against the in-process replica: every
/// entity's interviews and appearances, plus containment of some scenes.
std::vector<std::string> ProbeQueries(const WorkloadSpec& spec, size_t writes,
                                      uint64_t seed);

}  // namespace perfbench

#endif  // VQLDB_PERFBENCH_GEN_H_
