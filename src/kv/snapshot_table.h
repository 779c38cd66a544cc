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
/// `(key, snapshot id)` to state objects, for *full* snapshots (every key
/// rewritten each checkpoint) and *incremental* ones (changed keys only,
/// deletions as tombstones), with the backward differential read of Section
/// VI-A and compaction of versions outside the retention window. A partition
/// is a chain of column batches — one delta per snapshot id holding the rows
/// written at it, plus a base that compaction folds old deltas into — and a
/// key -> (ssid, row) index over them. Rows written since the partition was
/// last read wait, as written, at the end of their delta: the first read
/// encodes them into its batch in one pass.
class SnapshotTable {
 public:
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

  /// Writes the value of `key` as of snapshot `ssid`: appends a row to the
  /// (partition, ssid) delta, replacing the key's earlier row there. Used
  /// both by full snapshots (all keys) and incremental snapshots (changed
  /// keys only). The row is encoded into the delta's batch when the
  /// partition is next read.
  void Write(int64_t ssid, const Value& key, Object value);

  /// Records that `key` was deleted as of snapshot `ssid` (incremental mode):
  /// a tombstone row in the (partition, ssid) delta.
  void WriteTombstone(int64_t ssid, const Value& key);

  /// Encodes the rows written to `partition` since it was last read into
  /// their delta now instead of at the next read: a writer that finished a
  /// checkpoint's rows pays for the encoding on its own thread.
  void EncodeWrites(int32_t partition);

  /// Drops every version written at `ssid`: the delta, and any of its rows
  /// compaction already folded into the base. Used to roll back an aborted
  /// (uncommitted) snapshot during failure recovery.
  void DropSnapshot(int64_t ssid);

  /// Point lookup of `key`'s value at snapshot `ssid`: the version with the
  /// greatest ssid' <= ssid. Returns nullopt if the key did not exist at
  /// that snapshot (no version, or a tombstone).
  std::optional<Object> GetAt(const Value& key, int64_t ssid) const;

  /// Exact-version lookup: the version written *at* `ssid` (no backward
  /// search).
  std::optional<Object> GetExact(const Value& key, int64_t ssid) const;

  /// GetAt's lookup without building an Object: calls `fn` with the batch
  /// and row holding `key`'s version at `ssid` and returns true, or returns
  /// false if the key did not exist there. `fn` runs under the partition
  /// lock and must not keep the batch.
  bool VisitRowAt(const Value& key, int64_t ssid,
                  const std::function<void(const ColumnBatch&, size_t)>& fn)
      const;

  /// Every partition's `ColumnarPartitionAt(p, ssid)` rows, materialized:
  /// key, the ssid of the version that supplied the value, value.
  void ScanAt(int64_t ssid,
              const std::function<void(const Value&, int64_t, const Object&)>&
                  fn) const;

  /// The merged view of one partition at snapshot `ssid` as a columnar batch:
  /// per key in first-write key order, the row of its newest version at or
  /// before `ssid` (tombstoned keys left out), copied from the chain. Group
  /// first-seen order, representatives and ORDER BY tie-breaks depend on
  /// that order. Views are cached per (partition, ssid) and built
  /// incrementally — a request for a new ssid patches the newest older
  /// cached view with just the rows that changed since instead of copying
  /// every row from the chain. Writes at ssid S invalidate only cached views
  /// at S and newer; compaction and drops invalidate the partition's cache
  /// wholesale. The returned batch is never null, immutable, and safe to use
  /// without holding any table lock.
  std::shared_ptr<const ColumnBatch> ColumnarPartitionAt(int32_t partition,
                                                         int64_t ssid) const;

  /// The rows of `partition` written at exactly `ssid`, one per key,
  /// tombstones included: the checkpoint's delta the durable log persists.
  /// Null if there are none, or once compaction retired some. The batch
  /// stays unchanged while held: a later write to it copies it first.
  std::shared_ptr<const ColumnBatch> DeltaAt(int32_t partition,
                                             int64_t ssid) const;

  /// Prunes obsolete state: for every key, drops all versions strictly older
  /// than the newest version with ssid <= `floor_ssid` (that newest one is
  /// the base the retained versions still need), and drops base tombstones;
  /// folds the batches at or below the floor into the base now and then.
  /// Returns the number of versions removed.
  size_t Compact(int64_t floor_ssid);

  /// Number of (key, version) entries.
  size_t EntryCount() const;
  /// Number of distinct keys with at least one version.
  size_t KeyCount() const;

  /// Drops the primary copy of `partition` and restores it from replica 0.
  void FailPartitionPrimary(int32_t partition);

 private:
  // Chunk key of the base, below every ssid.
  static constexpr int64_t kBase = INT64_MIN;

  // One version of a key: row `row` of chunk `chunk` (`ssid`, or kBase).
  struct Version {
    int64_t ssid = 0;
    int64_t chunk = 0;
    uint32_t row = 0;
    bool tombstone = false;
  };

  // One batch of the chain. Once `shared` (a reader or another replica holds
  // `rows`), the batch is never modified again: the next append copies it.
  struct Chunk {
    std::shared_ptr<ColumnBatch> rows;
    // Versions pointing into `rows`; compaction leaves the rest dead.
    size_t live = 0;
    bool shared = false;
  };

  // A row written at `PartitionData::open_ssid` and not yet encoded.
  struct OpenRow {
    Value key;
    Object value;
    bool tombstone = false;
  };

  struct PartitionData {
    mutable Mutex mu{lockrank::kKvPartition, "kv.snapshot.partition"};
    // The base and each ssid's delta, by chunk key; mutable so const readers
    // can encode open rows and mark a delta shared.
    mutable std::map<int64_t, Chunk> chunks SQ_GUARDED_BY(mu);
    // The rows of delta `open_ssid` written since the last read, rows
    // `open_base`, `open_base` + 1, ... of its batch once encoded (versions
    // already point there). Writes at one ssid come in a burst, so encoding
    // them together sizes the batch once instead of growing it row by row.
    mutable std::vector<OpenRow> open SQ_GUARDED_BY(mu);
    mutable int64_t open_ssid SQ_GUARDED_BY(mu) = 0;
    mutable uint32_t open_base SQ_GUARDED_BY(mu) = 0;
    // Versions per key, sorted by ascending ssid.
    std::unordered_map<Value, std::vector<Version>, ValueHash> index
        SQ_GUARDED_BY(mu);
    // Keys in first-write order; invariant: contains exactly the keys of
    // `index`, each once. Views iterate this, so their row order is stable.
    std::vector<Value> key_order SQ_GUARDED_BY(mu);
    // Cached merged columnar views by requested ssid.
    mutable std::map<int64_t, std::shared_ptr<const ColumnBatch>> columnar
        SQ_GUARDED_BY(mu);
  };

  // Bounds the per-partition view cache (snapshot retention windows are a
  // handful of versions; anything older is an explicit time-travel query).
  static constexpr size_t kMaxCachedViews = 8;
  // Chunks at or below the compaction floor (base included) kept unfolded.
  static constexpr size_t kFoldChunks = 4;
  // Open rows are encoded once this many wait, so a large delta never holds
  // all its objects next to its batch (left unbounded, sqbench `query`'s
  // median peak RSS rose from 86 to 100 MB on a 4-vCPU host; at 64 it read
  // 88), while a partition written a few dozen rows per checkpoint is still
  // encoded in one pass.
  static constexpr size_t kMaxOpenRows = 64;

  static void WriteInto(PartitionData* part, int64_t ssid, const Value& key,
                        Object value, bool tombstone);
  // Encodes the open rows into their delta's batch (copying it first if it
  // is shared); every reader of the chain calls this first.
  static void EncodeOpenRows(const PartitionData& part) SQ_REQUIRES(part.mu);
  static size_t CompactPartition(PartitionData* part, int64_t floor_ssid);
  static void DropSnapshotInPartition(PartitionData* part, int64_t ssid);
  // Appends the rows of chunk `from` a version still points at to `to`,
  // re-pointing those versions at their new rows in chunk `to_key`.
  static void MoveLiveRows(PartitionData* part, int64_t from, ColumnBatch* to,
                           int64_t to_key) SQ_REQUIRES(part->mu);
  // Replaces chunk `key` by a fresh copy of its live rows (erasing it when
  // none are left), so a reader holding the old batch keeps it intact.
  static void RebuildChunk(PartitionData* part, int64_t key)
      SQ_REQUIRES(part->mu);
  // Rebuilds key_order after index erasures, preserving relative order.
  static void PruneKeyOrder(PartitionData* part) SQ_REQUIRES(part->mu);
  // `key`'s newest version at or before `ssid` if it is not a tombstone.
  static const Version* LiveVersionAt(const PartitionData& part,
                                      const Value& key, int64_t ssid)
      SQ_REQUIRES(part.mu);

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
