#ifndef SQUERY_KV_SNAPSHOT_TABLE_H_
#define SQUERY_KV_SNAPSHOT_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "kv/columnar.h"
#include "kv/object.h"
#include "kv/partitioner.h"
#include "kv/value.h"

namespace sq::kv {

/// The `snapshot_<operator>` table of Table II: a multi-version map from
/// `(key, snapshot id)` to state objects. Supports both *full* snapshots
/// (every key rewritten each checkpoint) and *incremental* snapshots (only
/// changed keys written, deletions as tombstones), plus the backward
/// differential read the paper describes for querying incremental snapshots
/// (Section VI-A) and pruning/compaction of versions that fell out of the
/// retention window.
class SnapshotTable {
 public:
  /// One version of one key.
  struct Entry {
    int64_t ssid = 0;
    bool tombstone = false;
    Object value;
  };

  /// With `backup_count` > 0 every mutation is mirrored into backup
  /// replica(s); `FailPartitionPrimary` promotes replica 0 after a simulated
  /// node loss (the paper: snapshots are written locally first and then
  /// replicated, and recovery can schedule the operator on the replica
  /// holder).
  SnapshotTable(std::string name, const Partitioner* partitioner,
                int32_t backup_count = 0);

  SnapshotTable(const SnapshotTable&) = delete;
  SnapshotTable& operator=(const SnapshotTable&) = delete;

  const std::string& name() const { return name_; }
  int32_t partition_count() const { return partitioner_->partition_count(); }
  const Partitioner& partitioner() const { return *partitioner_; }

  /// Writes the value of `key` as of snapshot `ssid`. Used both by full
  /// snapshots (all keys) and incremental snapshots (changed keys only).
  void Write(int64_t ssid, const Value& key, Object value);

  /// Records that `key` was deleted as of snapshot `ssid` (incremental mode).
  void WriteTombstone(int64_t ssid, const Value& key);

  /// Drops every entry with the given ssid. Used to roll back an aborted
  /// (uncommitted) snapshot during failure recovery.
  void DropSnapshot(int64_t ssid);

  /// Point lookup of `key`'s value at snapshot `ssid`: the entry with the
  /// greatest ssid' <= ssid. Returns nullopt if the key did not exist at
  /// that snapshot (no entry, or tombstone).
  std::optional<Object> GetAt(const Value& key, int64_t ssid) const;

  /// Exact-version lookup: entry written *at* `ssid` (no backward search).
  std::optional<Object> GetExact(const Value& key, int64_t ssid) const;

  /// Scans the reconstructed view at snapshot `ssid`. `fn` receives the key,
  /// the ssid of the entry that supplied the value (== `ssid` for full
  /// snapshots, possibly older for incremental), and the value. This is the
  /// differential query process: it starts from the latest snapshot of
  /// interest and supplements results with the latest older entry per key.
  void ScanAt(int64_t ssid,
              const std::function<void(const Value&, int64_t, const Object&)>&
                  fn) const;

  /// Scans one partition of the view at `ssid`. Rows are emitted in
  /// first-write key order — the deterministic scan order shared with the
  /// columnar view, which this scan is the reference for (group first-seen
  /// order, representatives and ORDER BY tie-breaks depend on it).
  void ScanPartitionAt(
      int32_t partition, int64_t ssid,
      const std::function<void(const Value&, int64_t, const Object&)>& fn)
      const;

  /// The merged view of one partition at snapshot `ssid` as a columnar batch:
  /// same rows, same order as `ScanPartitionAt`, laid out as per-field typed
  /// column chunks for the vectorized executor. Views are cached per
  /// (partition, ssid) and built incrementally — a request for a new ssid
  /// patches the newest older cached view with just the entries that changed
  /// since (the checkpoint delta) instead of re-encoding every row. Writes at
  /// ssid S invalidate only cached views at S and newer; compaction and drops
  /// invalidate the partition's cache wholesale. The returned batch is
  /// never null, immutable, and safe to use without holding any table lock.
  std::shared_ptr<const ColumnBatch> ColumnarPartitionAt(int32_t partition,
                                                         int64_t ssid) const;

  /// Scans every retained version of every key (for "result set integrates
  /// multiple snapshot versions" mode, Section VI-A "Snapshot Versions").
  void ScanAllVersions(
      const std::function<void(const Value&, int64_t, const Object&)>& fn)
      const;

  /// Scans every retained version of every key in one partition. Distinct
  /// partitions may be scanned concurrently.
  void ScanAllVersionsInPartition(
      int32_t partition,
      const std::function<void(const Value&, int64_t, const Object&)>& fn)
      const;

  /// Visits every retained (non-tombstone) version of `key`, oldest first.
  /// Point-lookup counterpart of ScanAllVersions.
  void ForEachVersionOfKey(
      const Value& key,
      const std::function<void(int64_t, const Object&)>& fn) const;

  /// Visits, partition-major, every entry written *at* exactly `ssid` —
  /// tombstones included. This is the checkpoint's delta as stored (what the
  /// durable snapshot log persists in phase 1); contrast with `ScanAt`,
  /// which reconstructs the merged view.
  void ForEachEntryAt(
      int64_t ssid,
      const std::function<void(int32_t partition, const Value& key,
                               const Entry& entry)>& fn) const;

  /// Prunes obsolete state: for every key, drops all entries strictly older
  /// than the newest entry with ssid <= `floor_ssid` (that newest one is the
  /// base the retained versions still need), and drops base tombstones.
  /// Returns the number of entries removed.
  size_t Compact(int64_t floor_ssid);

  /// Number of (key, version) entries.
  size_t EntryCount() const;
  /// Number of distinct keys with at least one entry.
  size_t KeyCount() const;
  /// Approximate heap footprint.
  size_t ByteSize() const;

  void Clear();

  int32_t backup_count() const { return static_cast<int32_t>(backups_.size()); }

  /// Drops the primary copy of `partition` and restores it from replica 0.
  void FailPartitionPrimary(int32_t partition);

 private:
  struct PartitionData {
    mutable Mutex mu{lockrank::kKvPartition, "kv.snapshot.partition"};
    // Versions per key, sorted by ascending ssid.
    std::unordered_map<Value, std::vector<Entry>, ValueHash> keys
        SQ_GUARDED_BY(mu);
    // Keys in first-write order; invariant: contains exactly the keys of
    // `keys`, each once. All scans iterate this so row and columnar reads
    // agree on order.
    std::vector<Value> key_order SQ_GUARDED_BY(mu);
    // Cached merged columnar views by requested ssid.
    mutable std::map<int64_t, std::shared_ptr<const ColumnBatch>> columnar
        SQ_GUARDED_BY(mu);
  };

  // Bounds the per-partition view cache (snapshot retention windows are a
  // handful of versions; anything older is an explicit time-travel query).
  static constexpr size_t kMaxCachedViews = 8;

  static void WriteInto(PartitionData* part, int64_t ssid, const Value& key,
                        Object value, bool tombstone);
  static size_t CompactPartition(PartitionData* part, int64_t floor_ssid);
  static void DropSnapshotInPartition(PartitionData* part, int64_t ssid);
  // Rebuilds key_order after map erasures, preserving relative order.
  static void PruneKeyOrder(PartitionData* part) SQ_REQUIRES(part->mu);

  PartitionData& PartitionFor(const Value& key) {
    return *partitions_[partitioner_->PartitionOf(key)];
  }
  const PartitionData& PartitionFor(const Value& key) const {
    return *partitions_[partitioner_->PartitionOf(key)];
  }

  std::string name_;
  const Partitioner* partitioner_;
  std::vector<std::unique_ptr<PartitionData>> partitions_;
  // backups_[r][p] = replica r of partition p.
  std::vector<std::vector<std::unique_ptr<PartitionData>>> backups_;
};

}  // namespace sq::kv

#endif  // SQUERY_KV_SNAPSHOT_TABLE_H_
