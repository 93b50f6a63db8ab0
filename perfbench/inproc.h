// In-process copies of what vqlsrv serves, built from the same generated
// inputs through the same library calls vqlsrv makes. The correctness gate
// compares vqlsrv's answers with them, and the traced replay runs on them.

#ifndef VQLDB_PERFBENCH_INPROC_H_
#define VQLDB_PERFBENCH_INPROC_H_

#include <memory>
#include <string>

#include "perfbench/gen.h"
#include "src/common/result.h"
#include "src/model/database.h"
#include "src/server/snapshot.h"
#include "src/storage/journal.h"
#include "src/storage/shard_store.h"

namespace perfbench {

/// A single database loaded as `vqlsrv archive.vql` loads it: declarations
/// and facts into the live database, rules into the snapshot write session.
struct SingleDb {
  std::unique_ptr<vqldb::VideoDatabase> db;
  std::unique_ptr<vqldb::server::SnapshotManager> snapshots;
};

vqldb::Result<SingleDb> LoadSingleDb(const Archive& archive);

/// The response body vqlsrv sends for `query` in single-db mode.
vqldb::Result<std::string> SingleDbAnswer(vqldb::server::SnapshotManager* mgr,
                                          const std::string& query);

/// Writes the generated tenants into the journals of a fresh sharded archive
/// at `dir`; opening it replays them.
vqldb::Status PopulateArchive(const Archive& archive, const std::string& dir);

/// Opens the archive at `dir` as `vqlsrv --archive` does (kArchiveShards
/// shards, default evaluation options) with the given journal durability,
/// and installs the rules, which a sharded archive keeps only in memory.
vqldb::Result<std::unique_ptr<vqldb::ShardedArchive>> OpenArchive(
    const Archive& archive, const std::string& dir,
    vqldb::Journal::Durability durability);

}  // namespace perfbench

#endif  // VQLDB_PERFBENCH_INPROC_H_
