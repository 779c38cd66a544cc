#include "dataflow/state_store.h"

#include <limits>

namespace sq::dataflow {

Status StateStore::SnapshotTo(int64_t checkpoint_id) {
  SQ_RETURN_IF_ERROR(BeginSnapshot(checkpoint_id));
  auto done = FinishSnapshotStep(checkpoint_id,
                                 std::numeric_limits<size_t>::max());
  if (!done.ok()) return done.status();
  return *done ? Status::OK()
               : Status::Internal("unbounded capture step did not finish");
}

InMemoryStateStore::InMemoryStateStore(int retained_snapshots)
    : retained_snapshots_(retained_snapshots) {}

void InMemoryStateStore::Put(const kv::Value& key, kv::Object value) {
  live_[key] = std::move(value);
}

std::optional<kv::Object> InMemoryStateStore::Get(const kv::Value& key) const {
  auto it = live_.find(key);
  if (it == live_.end()) return std::nullopt;
  return it->second;
}

bool InMemoryStateStore::Remove(const kv::Value& key) {
  return live_.erase(key) > 0;
}

void InMemoryStateStore::ForEach(
    const std::function<void(const kv::Value&, const kv::Object&)>& fn)
    const {
  for (const auto& [key, value] : live_) fn(key, value);
}

size_t InMemoryStateStore::Size() const { return live_.size(); }

Status InMemoryStateStore::BeginSnapshot(int64_t checkpoint_id) {
  if (capture_ckpt_ != 0) {
    return Status::FailedPrecondition(
        "capture already in flight for checkpoint " +
        std::to_string(capture_ckpt_));
  }
  capture_ckpt_ = checkpoint_id;
  capture_ = live_;  // plain copy: the baseline store has no COW machinery
  return Status::OK();
}

Result<bool> InMemoryStateStore::FinishSnapshotStep(int64_t checkpoint_id,
                                                    size_t /*max_entries*/) {
  if (capture_ckpt_ != checkpoint_id) {
    return Status::FailedPrecondition(
        "no capture in flight for checkpoint " +
        std::to_string(checkpoint_id));
  }
  // The copy was taken at Begin; publishing it is one move, so any budget
  // finishes the write-out.
  snapshots_[checkpoint_id] = std::move(capture_);
  capture_ = StateMap();
  capture_ckpt_ = 0;
  TrimRetention();
  return true;
}

void InMemoryStateStore::AbortSnapshot(int64_t checkpoint_id) {
  if (capture_ckpt_ != checkpoint_id) return;
  capture_ = StateMap();
  capture_ckpt_ = 0;
}

void InMemoryStateStore::TrimRetention() {
  while (static_cast<int>(snapshots_.size()) > retained_snapshots_) {
    snapshots_.erase(snapshots_.begin());
  }
}

Status InMemoryStateStore::RestoreFrom(int64_t checkpoint_id) {
  AbortSnapshot(capture_ckpt_);  // any in-flight capture is from a dead epoch
  auto it = snapshots_.find(checkpoint_id);
  if (it == snapshots_.end()) {
    if (checkpoint_id == 0) {
      // Checkpoint 0 == "before any checkpoint": empty state.
      live_.clear();
      return Status::OK();
    }
    return Status::NotFound("no snapshot with id " +
                            std::to_string(checkpoint_id));
  }
  live_ = it->second;
  // Snapshots newer than the restore point belong to an aborted epoch.
  snapshots_.erase(snapshots_.upper_bound(checkpoint_id), snapshots_.end());
  return Status::OK();
}

void InMemoryStateStore::Clear() {
  live_.clear();
  AbortSnapshot(capture_ckpt_);
}

StateStoreFactory InMemoryStateStoreFactory(int retained_snapshots) {
  return StateStoreFactory(
      [retained_snapshots](const std::string& /*vertex_name*/,
                           int32_t /*instance*/)
          -> std::unique_ptr<StateStore> {
        return std::make_unique<InMemoryStateStore>(retained_snapshots);
      });
}

}  // namespace sq::dataflow
