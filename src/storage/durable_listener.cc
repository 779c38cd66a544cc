#include "storage/durable_listener.h"

#include <string>
#include <vector>

#include "common/logging.h"
#include "kv/snapshot_table.h"
#include "trace/trace.h"

namespace sq::storage {

Status DurableSnapshotListener::OnChannelLog(
    int64_t checkpoint_id, const std::string& vertex_name, int32_t instance,
    const std::vector<dataflow::Record>& records) {
  trace::ScopedSpan span(trace::Category::kStorage, "log_channel");
  span.AddAttr("checkpoint_id", checkpoint_id);
  span.AddAttr("vertex", vertex_name);
  span.AddAttr("records", static_cast<int64_t>(records.size()));
  std::vector<SnapshotLog::LoggedRecord> logged;
  logged.reserve(records.size());
  for (const dataflow::Record& record : records) {
    logged.push_back(SnapshotLog::LoggedRecord{
        record.key, record.payload, record.source_nanos,
        record.from_instance});
  }
  return log_->AppendChannelLog(checkpoint_id, vertex_name, instance, logged)
      .WithContext("channel log append for " + vertex_name + "[" +
                   std::to_string(instance) + "]");
}

Status DurableSnapshotListener::OnCheckpointPrepared(int64_t checkpoint_id) {
  // Runs on the coordinator thread inside the checkpoint span scope, so this
  // nests under the checkpoint's phase2 span.
  trace::ScopedSpan span(trace::Category::kStorage, "log_append");
  span.AddAttr("checkpoint_id", checkpoint_id);
  int64_t total_entries = 0;
  int64_t total_batches = 0;
  for (const std::string& table : grid_->SnapshotTableNames()) {
    const kv::SnapshotTable* snap = grid_->GetSnapshotTable(table);
    if (snap == nullptr) continue;
    for (int32_t p = 0; p < snap->partition_count(); ++p) {
      // Held outside the partition lock: a write to this delta meanwhile
      // copies it, so the batch appended is the one taken here.
      const std::shared_ptr<const kv::ColumnBatch> delta =
          snap->DeltaAt(p, checkpoint_id);
      if (delta == nullptr) continue;
      total_entries += static_cast<int64_t>(delta->row_count());
      ++total_batches;
      SQ_RETURN_IF_ERROR(
          log_->AppendDelta(table, checkpoint_id, p, *delta)
              .WithContext("durable snapshot append of " + table +
                           " partition " + std::to_string(p)));
    }
  }
  span.AddAttr("entries", total_entries);
  span.AddAttr("partition_batches", total_batches);
  return Status::OK();
}

void DurableSnapshotListener::OnCheckpointCommitted(int64_t checkpoint_id) {
  Status s = log_->Commit(checkpoint_id);
  if (!s.ok()) {
    SQ_LOG(Warning) << "durable snapshot commit of " << checkpoint_id
                    << " failed: " << s;
  }
}

void DurableSnapshotListener::OnCheckpointAborted(int64_t checkpoint_id) {
  Status s = log_->Abort(checkpoint_id);
  if (!s.ok()) {
    SQ_LOG(Warning) << "durable snapshot abort of " << checkpoint_id
                    << " failed: " << s;
  }
}

}  // namespace sq::storage
