#include "state/squery_state_store.h"

#include <algorithm>
#include <chrono>

#include "common/metric_names.h"
#include "storage/snapshot_log.h"

namespace sq::state {

std::string LiveTableName(const std::string& operator_name) {
  std::string out;
  out.reserve(operator_name.size());
  for (char c : operator_name) {
    if (c != ' ') out.push_back(c);
  }
  return out;
}

std::string SnapshotTableName(const std::string& operator_name) {
  return "snapshot_" + LiveTableName(operator_name);
}

SQueryStateStore::SQueryStateStore(kv::Grid* grid, std::string operator_name,
                                   int32_t instance, SQueryConfig config,
                                   SQueryStateStats* stats)
    : grid_(grid),
      operator_name_(std::move(operator_name)),
      instance_(instance),
      config_(config),
      stats_(stats) {
  if (config_.live_enabled) {
    live_map_ = grid_->GetOrCreateLiveMap(LiveTableName(operator_name_));
  }
  if (config_.snapshot_enabled) {
    snap_table_ =
        grid_->GetOrCreateSnapshotTable(SnapshotTableName(operator_name_));
  }
  if (config_.metrics != nullptr) {
    m_entries_ = config_.metrics->GetCounter(metric_names::kStateSnapshotEntries);
    m_bytes_ = config_.metrics->GetCounter(metric_names::kStateSnapshotBytes);
    m_tombstones_ = config_.metrics->GetCounter(metric_names::kStateSnapshotTombstones);
    m_entries_per_snapshot_ =
        config_.metrics->GetHistogram(metric_names::kStateSnapshotEntriesPerSnapshot);
    m_delta_ratio_pct_ =
        config_.metrics->GetHistogram(metric_names::kStateSnapshotDeltaRatioPct);
  }
}

namespace {

// Busy-waits for `ns` nanoseconds (sub-microsecond sleeps are not reliable).
void SpinFor(int64_t ns) {
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < end) {
  }
}

}  // namespace

void SQueryStateStore::Put(const kv::Value& key, kv::Object value) {
  if (live_map_ != nullptr) {
    if (config_.live_write_penalty_ns > 0) {
      SpinFor(config_.live_write_penalty_ns);
    }
    live_map_->Put(key, value);
    if (stats_ != nullptr) stats_->live_puts.fetch_add(1);
  }
  PreserveForCapture(key);
  deleted_.erase(key);
  dirty_.insert(key);
  local_[key] = std::move(value);
}

std::optional<kv::Object> SQueryStateStore::Get(const kv::Value& key) const {
  auto it = local_.find(key);
  if (it == local_.end()) return std::nullopt;
  return it->second;
}

bool SQueryStateStore::Remove(const kv::Value& key) {
  if (live_map_ != nullptr) {
    if (config_.live_write_penalty_ns > 0) {
      SpinFor(config_.live_write_penalty_ns);
    }
    live_map_->Remove(key);
    if (stats_ != nullptr) stats_->live_removes.fetch_add(1);
  }
  PreserveForCapture(key);
  const bool existed = local_.erase(key) > 0;
  if (existed) {
    dirty_.erase(key);
    deleted_.insert(key);
  }
  return existed;
}

void SQueryStateStore::PreserveForCapture(const kv::Value& key) {
  if (capture_ckpt_ == 0) return;
  if (cow_overlay_.count(key) != 0 || cow_absent_.count(key) != 0) return;
  auto it = local_.find(key);
  if (it == local_.end()) {
    cow_absent_.insert(key);
  } else {
    cow_overlay_.emplace(key, it->second);
  }
}

void SQueryStateStore::ForEach(
    const std::function<void(const kv::Value&, const kv::Object&)>& fn)
    const {
  for (const auto& [key, value] : local_) fn(key, value);
}

size_t SQueryStateStore::Size() const { return local_.size(); }

Status SQueryStateStore::BeginSnapshot(int64_t checkpoint_id) {
  if (capture_ckpt_ != 0) {
    return Status::FailedPrecondition(
        operator_name_ + "[" + std::to_string(instance_) +
        "]: capture already in flight for checkpoint " +
        std::to_string(capture_ckpt_));
  }
  capture_ckpt_ = checkpoint_id;
  // Freeze this epoch's delta; the live sets start tracking the next one.
  capture_dirty_ = std::move(dirty_);
  capture_deleted_ = std::move(deleted_);
  dirty_.clear();
  deleted_.clear();
  // The capture cursor: exactly the keys that exist at the capture point.
  // Keys created later are excluded here by construction; keys removed later
  // stay resolvable through the COW overlay (Remove preserves the value).
  capture_keys_.clear();
  capture_keys_.reserve(local_.size());
  for (const auto& [key, value] : local_) capture_keys_.push_back(key);
  capture_pos_ = 0;
  capture_build_.clear();
  capture_build_.reserve(capture_keys_.size());
  capture_table_entries_ = 0;
  capture_bytes_ = 0;
  return Status::OK();
}

Result<bool> SQueryStateStore::FinishSnapshotStep(int64_t checkpoint_id,
                                                  size_t max_entries) {
  if (capture_ckpt_ != checkpoint_id) {
    return Status::FailedPrecondition(
        operator_name_ + "[" + std::to_string(instance_) +
        "]: no capture in flight for checkpoint " +
        std::to_string(checkpoint_id));
  }
  // Walk the cursor, reconstructing each key's value as of BeginSnapshot:
  // the preserved pre-mutation value wins over the live one. A capture key
  // missing from both maps cannot happen (Remove preserves before erasing).
  size_t stepped = 0;
  while (capture_pos_ < capture_keys_.size() && stepped < max_entries) {
    const kv::Value& key = capture_keys_[capture_pos_++];
    const kv::Object* value = nullptr;
    if (auto ov = cow_overlay_.find(key); ov != cow_overlay_.end()) {
      value = &ov->second;
    } else if (auto it = local_.find(key); it != local_.end()) {
      value = &it->second;
    }
    if (value == nullptr) continue;
    capture_build_.emplace(key, *value);
    if (snap_table_ != nullptr &&
        (!config_.incremental || capture_dirty_.count(key) != 0)) {
      // Incremental mode writes only the epoch's delta to the queryable
      // table; full mode rewrites the complete captured state.
      snap_table_->Write(checkpoint_id, key, *value);
      ++capture_table_entries_;
      if (m_bytes_ != nullptr) {
        capture_bytes_ +=
            static_cast<int64_t>(key.ByteSize() + value->ByteSize());
      }
    }
    ++stepped;
  }
  if (capture_pos_ < capture_keys_.size()) return false;

  // Cursor exhausted: seal the snapshot — tombstones (so backward reads do
  // not resurrect deleted keys), the private recovery copy, then stats.
  int64_t tombstones = 0;
  if (snap_table_ != nullptr) {
    for (const kv::Value& key : capture_deleted_) {
      snap_table_->WriteTombstone(checkpoint_id, key);
      ++tombstones;
    }
  }
  const size_t captured_size = capture_build_.size();
  internal_snapshots_[checkpoint_id] = std::move(capture_build_);
  while (static_cast<int>(internal_snapshots_.size()) >
         config_.retained_versions) {
    internal_snapshots_.erase(internal_snapshots_.begin());
  }
  last_snapshot_entries_ = capture_table_entries_;
  if (snap_table_ != nullptr) {
    if (stats_ != nullptr) {
      stats_->snapshot_entries_written.fetch_add(
          static_cast<int64_t>(last_snapshot_entries_));
      stats_->snapshot_tombstones_written.fetch_add(tombstones);
      stats_->snapshots_taken.fetch_add(1);
    }
    if (config_.metrics != nullptr) {
      m_entries_->Increment(static_cast<int64_t>(last_snapshot_entries_));
      m_bytes_->Increment(capture_bytes_);
      m_tombstones_->Increment(tombstones);
      m_entries_per_snapshot_->Record(
          static_cast<int64_t>(last_snapshot_entries_));
      if (captured_size > 0) {
        // Delta ratio: share of the state rewritten this checkpoint (100 for
        // full snapshots; the Fig. 12 savings metric for incremental ones).
        m_delta_ratio_pct_->Record(static_cast<int64_t>(
            100 * last_snapshot_entries_ / captured_size));
      }
    }
  }
  DiscardCapture();
  return true;
}

void SQueryStateStore::AbortSnapshot(int64_t checkpoint_id) {
  if (capture_ckpt_ == 0 || capture_ckpt_ != checkpoint_id) return;
  // Fold the aborted epoch's change tracking back into the live epoch so
  // the next successful incremental snapshot still covers those keys. A key
  // mutated again since Begin keeps its newer classification.
  for (const kv::Value& key : capture_dirty_) {
    if (deleted_.count(key) == 0) dirty_.insert(key);
  }
  for (const kv::Value& key : capture_deleted_) {
    if (dirty_.count(key) == 0) deleted_.insert(key);
  }
  DiscardCapture();
}

void SQueryStateStore::DiscardCapture() {
  capture_ckpt_ = 0;
  cow_overlay_.clear();
  cow_absent_.clear();
  capture_dirty_.clear();
  capture_deleted_.clear();
  capture_keys_.clear();
  capture_pos_ = 0;
  capture_build_.clear();
  capture_table_entries_ = 0;
  capture_bytes_ = 0;
}

Status SQueryStateStore::RestoreFrom(int64_t checkpoint_id) {
  DiscardCapture();  // any in-flight capture belongs to a dead epoch
  StateMap restored;
  if (checkpoint_id != 0) {
    // Greatest internal snapshot <= checkpoint_id (an instance that did not
    // participate in the last checkpoints simply kept its older state).
    auto it = internal_snapshots_.upper_bound(checkpoint_id);
    if (it == internal_snapshots_.begin()) {
      return Status::NotFound(operator_name_ + "[" +
                              std::to_string(instance_) +
                              "]: no internal snapshot <= " +
                              std::to_string(checkpoint_id));
    }
    --it;
    restored = it->second;
    internal_snapshots_.erase(internal_snapshots_.upper_bound(checkpoint_id),
                              internal_snapshots_.end());
  } else {
    internal_snapshots_.clear();
  }

  // Re-align the live table with the rolled-back state: this instance owns
  // its keys exclusively, so removing its current keys and re-inserting the
  // restored ones cannot race with other instances.
  if (live_map_ != nullptr) {
    for (const auto& [key, value] : local_) {
      live_map_->Remove(key);
    }
    for (const auto& [key, value] : restored) {
      live_map_->Put(key, value);
    }
  }
  local_ = std::move(restored);
  dirty_.clear();
  deleted_.clear();
  return Status::OK();
}

Status SQueryStateStore::RestoreFromTable(int64_t checkpoint_id) {
  if (snap_table_ == nullptr) {
    return Status::FailedPrecondition(
        "snapshot table disabled for " + operator_name_);
  }
  DiscardCapture();
  StateMap restored;
  const int32_t partitions = grid_->partitioner().partition_count();
  for (int32_t p = instance_; p < partitions; p += config_.parallelism) {
    snap_table_->ScanPartitionAt(
        p, checkpoint_id,
        [&restored](const kv::Value& key, int64_t /*entry_ssid*/,
                    const kv::Object& value) { restored[key] = value; });
  }
  if (restored.empty() && config_.durable_log != nullptr &&
      config_.durable_log->IsDurable(checkpoint_id)) {
    // Cold restart: the in-memory table has nothing for this snapshot (the
    // grid itself was lost), so rebuild this instance's partitions from the
    // snapshot log.
    SQ_RETURN_IF_ERROR(config_.durable_log->ScanSnapshot(
        SnapshotTableName(operator_name_), checkpoint_id,
        [&](int32_t partition, const kv::Value& key, int64_t /*entry_ssid*/,
            const kv::Object& value) {
          if (partition % config_.parallelism == instance_) {
            restored[key] = value;
          }
        }));
  }
  if (live_map_ != nullptr) {
    for (const auto& [key, value] : local_) {
      live_map_->Remove(key);
    }
    for (const auto& [key, value] : restored) {
      live_map_->Put(key, value);
    }
  }
  local_ = std::move(restored);
  dirty_.clear();
  deleted_.clear();
  return Status::OK();
}

void SQueryStateStore::Clear() {
  if (live_map_ != nullptr) {
    for (const auto& [key, value] : local_) {
      live_map_->Remove(key);
    }
  }
  local_.clear();
  dirty_.clear();
  deleted_.clear();
  DiscardCapture();
}

dataflow::StateStoreFactory MakeSQueryStateStoreFactory(
    kv::Grid* grid, SQueryConfig config, SQueryStateStats* stats) {
  return dataflow::StateStoreFactory(
      [grid, config, stats](const std::string& vertex_name, int32_t instance)
          -> std::unique_ptr<dataflow::StateStore> {
        return std::make_unique<SQueryStateStore>(grid, vertex_name,
                                                  instance, config, stats);
      },
      // Declaring the grid's partitioner lets Job::Create verify colocation.
      &grid->partitioner());
}

}  // namespace sq::state
