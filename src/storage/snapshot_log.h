#ifndef SQUERY_STORAGE_SNAPSHOT_LOG_H_
#define SQUERY_STORAGE_SNAPSHOT_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "kv/columnar.h"
#include "kv/grid.h"
#include "kv/partitioner.h"
#include "kv/object.h"
#include "kv/value.h"

namespace sq::storage {

/// Durability configuration of a snapshot log directory.
struct StorageOptions {
  /// Directory holding `segment-<seq>.log` files and the MANIFEST. Created
  /// if missing.
  std::string dir;
  /// Rotate to a new segment once the active one exceeds this many bytes
  /// (rotation happens at commit boundaries only, so an uncommitted tail is
  /// always a suffix of the newest segment).
  size_t segment_bytes = 4 << 20;
  /// Appends accumulate in a user-space batch and spill to the file (without
  /// fsync) once the batch exceeds this; `Commit` flushes and fsyncs the
  /// rest. Larger values = fewer write() calls during phase 1.
  size_t flush_bytes = 64 << 10;
  /// Committed snapshots kept on disk; 0 keeps every snapshot ever committed
  /// (unbounded time travel). When > 0, background compaction mirrors the
  /// in-memory retention pruning: whole segments below the durable floor are
  /// rewritten to just the per-key base entries the newer snapshots still
  /// need (exactly SnapshotTable::Compact's semantics, applied to files).
  int64_t retained_snapshots = 0;
  /// fsync data before acknowledging a commit. Disable only for benchmarks
  /// that want to isolate the file-write cost from the sync cost.
  bool sync_on_commit = true;
  /// Run compaction on a background thread (disable for deterministic
  /// tests; compaction then runs inline on the commit path).
  bool async_compact = true;
  /// Sink for storage instrumentation (persisted bytes, fsync latency,
  /// segment count, compactions). May be null.
  MetricsRegistry* metrics = nullptr;
};

/// What `Open` found on disk. `torn_bytes_skipped` counts bytes discarded
/// from torn/corrupt/uncommitted tails (they are truncated away so the next
/// append starts from a clean, fully-committed file).
struct RecoveryInfo {
  int64_t latest_committed = 0;
  int64_t committed_count = 0;
  int64_t segments = 0;
  int64_t records_scanned = 0;
  int64_t torn_bytes_skipped = 0;
  int64_t torn_records_skipped = 0;
  /// In-flight records logged by unaligned checkpoints (summed across all
  /// durable channel-log records; the job replays the latest committed id's
  /// share into its channels on recovery).
  int64_t channel_log_records = 0;
};

/// Point-in-time counters of a log (the durability columns of the
/// `__checkpoints` system table read these).
struct LogStats {
  int64_t persisted_bytes = 0;  // durable bytes across all segments
  int64_t segments = 0;
  int64_t commits = 0;
  int64_t aborts = 0;
  int64_t compactions = 0;
  int64_t segments_deleted = 0;
  int64_t fsync_p99_nanos = 0;
};

/// The durable half of the paper's snapshot state (the IMDG half is
/// `kv::SnapshotTable`): a segmented, append-only log of checksummed
/// records.
///
/// Write protocol (driven by `DurableSnapshotListener`):
///   phase 1   AppendDelta(table, ssid, partition, delta)  [batched]
///             — a partition's `SnapshotTable::DeltaAt` batch, unchanged
///   phase 2   Commit(ssid)     — flush + fsync + commit record + MANIFEST
///   failure   Abort(ssid)      — discard the uncommitted tail
///
/// A snapshot id is durable iff its commit record is on disk; everything
/// after the last commit record is garbage by definition and is truncated
/// during `Open`. Records are framed [len][masked crc32c][payload] and a
/// failed checksum anywhere marks the rest of that segment torn. Deltas are
/// stored in one format, a column batch per (table, ssid, partition) whose
/// rows carry their ssid; a checksum-valid record of an unknown type, or one
/// whose body does not decode, inside the committed prefix fails `Open` with
/// an error naming the segment, offset and type.
///
/// Reads re-read segment files on demand: the log is the cold path behind
/// the in-memory retention window, so it trades read latency for zero
/// steady-state memory beyond per-segment metadata. `ReadSnapshot` and
/// `CompactTo` share one merge of the committed delta batches — per key the
/// newest row at or before the ssid wins, copied batch to batch.
class SnapshotLog {
 public:
  /// One in-flight record overtaken by an unaligned checkpoint marker,
  /// expressed in KV-layer types (this header stays dataflow-free; the
  /// durable listener converts from `dataflow::Record`).
  struct LoggedRecord {
    kv::Value key;
    kv::Object payload;
    int64_t source_nanos = 0;
    int32_t from_instance = 0;
  };

  /// Receives one channel-log record: the consumer it was logged by (vertex
  /// name + instance) and the record itself.
  using ChannelLogFn = std::function<void(const std::string&, int32_t,
                                          const LoggedRecord&)>;

  /// Opens (creating if necessary) the log in `options.dir` and recovers its
  /// state: segment list from the MANIFEST (or a directory scan if the
  /// MANIFEST is missing/corrupt), committed ids from commit records, torn
  /// and uncommitted tails truncated. Fails on a committed record it cannot
  /// read rather than skipping it.
  static Result<std::unique_ptr<SnapshotLog>> Open(StorageOptions options);

  ~SnapshotLog();

  SnapshotLog(const SnapshotLog&) = delete;
  SnapshotLog& operator=(const SnapshotLog&) = delete;

  /// Appends one partition's delta of `table` under snapshot `ssid`: the
  /// rows written at `ssid` (tombstones included), every row's ssid `ssid`,
  /// else InvalidArgument. Buffered; durable only after `Commit(ssid)`.
  Status AppendDelta(const std::string& table, int64_t ssid,
                     int32_t partition, const kv::ColumnBatch& delta);

  /// Appends the channel log of one consumer (unaligned mode): the records
  /// that overtook checkpoint `ssid`'s marker at `vertex[instance]`. Shares
  /// the delta batch and the same commit/abort boundary.
  Status AppendChannelLog(int64_t ssid, const std::string& vertex,
                          int32_t instance,
                          const std::vector<LoggedRecord>& records);

  /// Makes everything appended under `ssid` durable: flushes the batch,
  /// appends the commit record, fsyncs, updates the MANIFEST, then rotates
  /// and/or schedules compaction if thresholds are crossed.
  Status Commit(int64_t ssid);

  /// Discards everything appended since the last commit (both the in-memory
  /// batch and any spilled-but-unsynced file tail).
  Status Abort(int64_t ssid);

  /// Durable committed snapshot ids, ascending. Compaction removes ids that
  /// fell below the durable retention floor.
  std::vector<int64_t> CommittedIds() const;
  int64_t LatestDurable() const;
  bool IsDurable(int64_t ssid) const;

  /// Payload bytes appended under `ssid` (0 if unknown/compacted away).
  int64_t PersistedBytes(int64_t ssid) const;

  /// The view of `table` at durable snapshot `ssid` (else NotFound), read
  /// back from the log: per key the row of its newest version at or before
  /// `ssid`, tombstoned keys left out, in batch `partitioner.PartitionOf(key)`
  /// of one per partition, keys in log first-appearance order. The files are
  /// read without the log's lock, so appends and commits go on meanwhile; a
  /// compaction waits for the read to finish.
  Result<std::vector<std::shared_ptr<const kv::ColumnBatch>>> ReadSnapshot(
      const std::string& table, int64_t ssid,
      const kv::Partitioner& partitioner) const;

  /// Replays the channel log of snapshot `ssid` (records overtaken by the
  /// unaligned barrier, in logged order per consumer). Fails if `ssid` is
  /// not durable. Empty for aligned checkpoints.
  Status ScanChannelLog(int64_t ssid, const ChannelLogFn& fn) const;

  /// Replays every durable delta into `grid`'s snapshot tables and compacts
  /// them to the floor implied by `retained_versions`, rebuilding the
  /// in-memory retention window after a restart. Returns what was replayed.
  Result<RecoveryInfo> ReplayInto(kv::Grid* grid,
                                  int retained_versions) const;

  /// Drops and rewrites segments so only per-key base entries survive below
  /// `floor_ssid`; ids below the floor stop being durable. Returns segments
  /// deleted. (Called by the background compactor; public for tests.)
  size_t CompactTo(int64_t floor_ssid);

  /// Blocks until the background compactor drains (test determinism).
  void FlushCompaction();

  LogStats Stats() const;
  const RecoveryInfo& recovery_info() const { return recovery_; }
  const StorageOptions& options() const { return options_; }

 private:
  struct Segment {
    uint64_t seq = 0;
    std::string path;
    uint64_t durable_bytes = 0;  // file size at the last commit boundary
    int64_t max_ssid = 0;        // newest ssid of any entry in the segment
  };

  explicit SnapshotLog(StorageOptions options);

  Status OpenImpl();
  Status LoadManifest(std::vector<uint64_t>* seqs, uint64_t* next_seq) const;
  Status WriteManifestLocked() SQ_REQUIRES(mu_);
  Status ScanSegmentsLocked() SQ_REQUIRES(mu_);
  Status OpenActiveLocked(bool create_new) SQ_REQUIRES(mu_);
  Status FlushBatchLocked() SQ_REQUIRES(mu_);
  Status SyncActiveLocked() SQ_REQUIRES(mu_);
  Status RotateLocked() SQ_REQUIRES(mu_);
  void RunCompactor();

  // sq-lint: unguarded-ok(set in Open before any concurrent access)
  StorageOptions options_;
  // sq-lint: unguarded-ok(immutable once OpenImpl returns)
  RecoveryInfo recovery_;  // immutable once OpenImpl returns

  // Held shared while ReadSnapshot reads segment files without mu_, and
  // exclusively by CompactTo, which rewrites and deletes them; taken before
  // mu_.
  mutable SharedMutex files_mu_{lockrank::kStorageFiles, "storage.files"};
  // The commit path holds mu_ while enqueueing to the compactor under
  // compact_mu_, so kStorageLog must rank before kStorageCompact.
  mutable Mutex mu_{lockrank::kStorageLog, "storage.log"};
  // Ascending seq; back() is active.
  std::vector<Segment> segments_ SQ_GUARDED_BY(mu_);
  uint64_t next_seq_ SQ_GUARDED_BY(mu_) = 1;
  int active_fd_ SQ_GUARDED_BY(mu_) = -1;
  // Durable + spilled-uncommitted bytes.
  uint64_t active_size_ SQ_GUARDED_BY(mu_) = 0;
  // Appended, not yet written to the file.
  std::string batch_ SQ_GUARDED_BY(mu_);
  // Ssid of the uncommitted appends (0 = none).
  int64_t pending_ssid_ SQ_GUARDED_BY(mu_) = 0;

  std::vector<int64_t> committed_ SQ_GUARDED_BY(mu_);  // ascending
  // Payload bytes per snapshot.
  std::map<int64_t, int64_t> bytes_per_ssid_ SQ_GUARDED_BY(mu_);

  Histogram fsync_nanos_;  // internally synchronized
  int64_t commits_ SQ_GUARDED_BY(mu_) = 0;
  int64_t aborts_ SQ_GUARDED_BY(mu_) = 0;
  int64_t compactions_ SQ_GUARDED_BY(mu_) = 0;
  int64_t segments_deleted_ SQ_GUARDED_BY(mu_) = 0;

  // Cached metric handles (null when options_.metrics is null).
  Counter* m_persisted_bytes_ = nullptr;
  Counter* m_commits_ = nullptr;
  Counter* m_compactions_ = nullptr;
  Gauge* m_segments_ = nullptr;
  Histogram* m_fsync_ = nullptr;

  // Background compaction.
  Mutex compact_mu_{lockrank::kStorageCompact, "storage.compact"};
  CondVar compact_cv_;
  std::deque<int64_t> compact_queue_ SQ_GUARDED_BY(compact_mu_);
  bool compact_stop_ SQ_GUARDED_BY(compact_mu_) = false;
  bool compact_idle_ SQ_GUARDED_BY(compact_mu_) = true;
  // sq-lint: unguarded-ok(started in Open, joined in Close)
  std::thread compactor_;
};

}  // namespace sq::storage

#endif  // SQUERY_STORAGE_SNAPSHOT_LOG_H_
