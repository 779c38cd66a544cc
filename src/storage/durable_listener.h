#ifndef SQUERY_STORAGE_DURABLE_LISTENER_H_
#define SQUERY_STORAGE_DURABLE_LISTENER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/checkpoint.h"
#include "dataflow/record.h"
#include "kv/grid.h"
#include "storage/snapshot_log.h"

namespace sq::storage {

/// Bridges the checkpoint 2PC to the snapshot log. Registered (via
/// `dataflow::CheckpointListenerChain`) *before* the `SnapshotRegistry`, so
/// by the time the registry publishes an id as the latest committed
/// snapshot, its deltas and commit record are already fsynced:
///
///   phase 1  OnCheckpointPrepared — append each table's per-partition delta
///            batches as the workers built them (`SnapshotTable::DeltaAt`,
///            tombstones included, which encodes any rows a writer left
///            open); an error aborts the checkpoint.
///   phase 2  OnCheckpointCommitted — `SnapshotLog::Commit` (flush + fsync +
///            commit record + MANIFEST).
///   failure  OnCheckpointAborted — `SnapshotLog::Abort` discards the tail.
///
/// Phase-2 and abort I/O errors are logged; a failed commit leaves the log
/// without that snapshot (recovery falls back to the previous durable id),
/// never with a half-written one.
class DurableSnapshotListener : public dataflow::CheckpointListener {
 public:
  /// Neither pointer is owned; both must outlive the listener.
  DurableSnapshotListener(kv::Grid* grid, SnapshotLog* log)
      : grid_(grid), log_(log) {}

  Status OnChannelLog(int64_t checkpoint_id, const std::string& vertex_name,
                      int32_t instance,
                      const std::vector<dataflow::Record>& records) override;
  Status OnCheckpointPrepared(int64_t checkpoint_id) override;
  void OnCheckpointCommitted(int64_t checkpoint_id) override;
  void OnCheckpointAborted(int64_t checkpoint_id) override;

 private:
  kv::Grid* grid_;
  SnapshotLog* log_;
};

}  // namespace sq::storage

#endif  // SQUERY_STORAGE_DURABLE_LISTENER_H_
