#include "perfbench/inproc.h"

#include <utility>

#include "src/storage/text_format.h"

namespace perfbench {

vqldb::Result<SingleDb> LoadSingleDb(const Archive& archive) {
  SingleDb out;
  out.db = std::make_unique<vqldb::VideoDatabase>();
  auto loaded = vqldb::TextFormat::Load(archive.program, out.db.get());
  if (!loaded.ok()) return loaded.status();
  // vqlsrv's defaults: default evaluation options, and as many sessions per
  // snapshot as the admission gate has slots.
  out.snapshots = std::make_unique<vqldb::server::SnapshotManager>(
      out.db.get(), vqldb::EvalOptions{},
      vqldb::QueryGate::Options{}.max_concurrent);
  for (const vqldb::Rule& rule : loaded->rules) {
    VQLDB_RETURN_NOT_OK(out.snapshots->Apply(rule.ToString()));
  }
  return out;
}

vqldb::Result<std::string> SingleDbAnswer(vqldb::server::SnapshotManager* mgr,
                                          const std::string& query) {
  auto lease = mgr->AcquireSession();
  if (!lease.ok()) return lease.status();
  auto result = lease->session()->Query(query);
  if (!result.ok()) return result.status();
  return result->ToString(lease->db());
}

vqldb::Status PopulateArchive(const Archive& archive, const std::string& dir) {
  vqldb::ShardedArchive::Options opts;
  opts.shard_count = kArchiveShards;
  opts.durability = vqldb::Journal::Durability::kFlush;
  auto opened = vqldb::ShardedArchive::Open(dir, std::move(opts));
  if (!opened.ok()) return opened.status();
  // No snapshot: vqlsrv's set-up replays every statement, so it costs CPU in
  // proportion to the archive, as recovery after a crash does, rather than
  // being mostly process start-up.
  for (size_t t = 0; t < archive.tenants.size(); ++t) {
    VQLDB_RETURN_NOT_OK(
        (*opened)->Apply(archive.tenants[t], archive.tenant_text[t]));
  }
  return vqldb::Status::OK();
}

vqldb::Result<std::unique_ptr<vqldb::ShardedArchive>> OpenArchive(
    const Archive& archive, const std::string& dir,
    vqldb::Journal::Durability durability) {
  vqldb::ShardedArchive::Options opts;
  opts.shard_count = kArchiveShards;
  opts.durability = durability;
  auto opened = vqldb::ShardedArchive::Open(dir, std::move(opts));
  if (!opened.ok()) return opened.status();
  // Proper rules go to every shard whatever the tenant key.
  VQLDB_RETURN_NOT_OK((*opened)->Apply("default", archive.rules));
  return opened;
}

}  // namespace perfbench
