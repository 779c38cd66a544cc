#ifndef SQUERY_DATAFLOW_EXECUTION_H_
#define SQUERY_DATAFLOW_EXECUTION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/queue.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dataflow/aligner.h"
#include "dataflow/checkpoint.h"
#include "dataflow/job_graph.h"
#include "dataflow/operator.h"
#include "dataflow/record.h"
#include "dataflow/state_store.h"
#include "kv/partitioner.h"
#include "trace/trace.h"

namespace sq::dataflow {

/// Execution-time configuration of a job.
struct JobConfig {
  /// Interval between automatic checkpoints; 0 disables the periodic
  /// coordinator (checkpoints can still be triggered manually).
  int64_t checkpoint_interval_ms = 1000;
  /// Per-worker input queue capacity (records). Determines backpressure.
  size_t channel_capacity = 4096;
  /// Supplies per-instance state stores; defaults to InMemoryStateStore
  /// (the plain-Jet configuration).
  StateStoreFactory state_store_factory;
  /// Key partitioner shared with the KV grid (colocation). If null, a
  /// private partitioner with 271 partitions is created.
  const kv::Partitioner* partitioner = nullptr;
  /// Time source; defaults to the monotonic system clock.
  Clock* clock = nullptr;
  /// Observer of checkpoint lifecycle events (may be null).
  CheckpointListener* listener = nullptr;
  /// Phase-1 wait budget before a checkpoint is aborted.
  int64_t checkpoint_timeout_ms = 30000;
  /// Barrier protocol: classic marker alignment (the differential-testing
  /// oracle) or unaligned capture with a channel log (the Fig. 8 tail
  /// killer). See CheckpointMode.
  CheckpointMode checkpoint_mode = CheckpointMode::kAligned;
  /// Sink for engine instrumentation (records in/out, channel depths,
  /// checkpoint phase timings). May be null: the job then keeps only its
  /// per-worker counters and the `RecentCheckpoints` rows.
  MetricsRegistry* metrics = nullptr;
};

/// Live statistics of one worker (operator instance), as exposed by the
/// `__operators` system table. Latency percentiles come from a sampled
/// per-record processing-time histogram (1 in 64 records timed).
struct OperatorStats {
  std::string vertex;
  int32_t instance = 0;
  int32_t worker_id = 0;
  bool finished = false;
  int64_t records_in = 0;
  int64_t records_out = 0;
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  size_t state_entries = 0;
  int64_t p50_nanos = 0;
  int64_t p99_nanos = 0;
};

/// One finished checkpoint attempt, as exposed by the `__checkpoints`
/// system table (bounded history, newest last).
struct CheckpointRow {
  int64_t id = 0;
  bool committed = false;
  int64_t phase1_nanos = 0;
  int64_t phase2_nanos = 0;
  int64_t started_unix_micros = 0;
  CheckpointMode mode = CheckpointMode::kAligned;
  /// Unaligned mode: in-flight records logged into this checkpoint's
  /// channel log across all workers (0 in aligned mode).
  int64_t overtaken_records = 0;
};

/// A running (or runnable) instantiation of a JobGraph: worker threads,
/// channels, marker-aligned checkpointing with 2PC commit, and
/// rollback recovery. See DESIGN.md §2 "Streaming dataflow engine".
class Job {
 public:
  /// Validates the graph and materializes workers and channels.
  static Result<std::unique_ptr<Job>> Create(const JobGraph& graph,
                                             JobConfig config);

  ~Job();

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Launches all worker threads and, if configured, the periodic
  /// checkpoint coordinator.
  Status Start();

  /// Waits until every worker finished (bounded sources ran dry). Stops the
  /// periodic coordinator afterwards.
  Status AwaitCompletion();

  /// Requests cooperative shutdown and joins all threads.
  Status Stop();

  /// Runs one checkpoint synchronously; returns its id once phase 2
  /// committed. Fails if the job is not running.
  Result<int64_t> TriggerCheckpoint();

  /// Id of the newest committed snapshot (0 before the first commit).
  int64_t latest_committed_checkpoint() const {
    return latest_committed_.load();
  }

  /// Simulates a crash of the whole pipeline followed by recovery: all
  /// workers are killed, uncommitted snapshots discarded, every stateful
  /// instance rolled back to the latest committed checkpoint, and the
  /// pipeline restarted (sources resume from their checkpointed offsets) —
  /// the roll-back semantics behind the paper's isolation-level discussion
  /// (Figures 5 and 6).
  Status InjectFailureAndRecover();

  /// True while at least one worker thread is live.
  bool IsRunning() const;

  /// Number of data records delivered to workers of `vertex` (monitoring).
  int64_t ProcessedCount(const std::string& vertex) const;

  /// Snapshot of every worker's live statistics (the `__operators` rows).
  std::vector<OperatorStats> CollectOperatorStats() const;

  /// Recent checkpoint attempts, oldest first (the `__checkpoints` rows).
  std::vector<CheckpointRow> RecentCheckpoints() const;

  /// Cold-restart hook (unaligned mode): stages channel-log records —
  /// typically read back from the durable snapshot log — for replay by the
  /// matching worker before it consumes any new input. Only valid before
  /// Start().
  Status StageChannelLogReplay(const std::string& vertex_name,
                               int32_t instance, std::vector<Record> records);

 private:
  struct OutEdge {
    EdgeKind kind = EdgeKind::kForward;
    std::vector<int32_t> dest_worker_ids;  // resolved to queues at push time
  };

  struct Worker {
    int32_t id = 0;  // global worker id
    int32_t vertex = 0;
    int32_t instance = 0;
    bool is_source = false;
    bool stateful = false;
    std::string vertex_name;
    int32_t parallelism = 1;

    std::unique_ptr<Operator> op;          // recreated on recovery
    std::unique_ptr<StateStore> state;     // survives recovery (rolled back)
    std::vector<OutEdge> outputs;
    std::unordered_set<int32_t> upstream_ids;  // workers feeding this one

    std::thread thread;
    /// Channel-log records to replay before consuming new input (set by
    /// recovery while the worker thread is down; consumed at RunConsumer
    /// start).
    std::vector<Record> pending_replay;
    std::atomic<bool> finished{false};
    std::atomic<int64_t> requested_checkpoint{0};  // sources only
    std::atomic<int64_t> processed{0};
    std::atomic<int64_t> emitted{0};
    std::atomic<size_t> state_entries{0};  // maintained by the worker thread
    /// The last capture this worker wrote out (worker thread only).
    int64_t written_capture = 0;
    Histogram proc_latency;                // sampled ProcessRecord nanos
  };

  /// A worker's phase-1 write-out between BeginCapture and its ack.
  struct PendingCapture {
    int64_t checkpoint_id = 0;  // 0 = none pending
    /// A failure so far (BeginCapture or a step); acked instead of stepping.
    Status status = Status::OK();
    /// Unaligned: the frozen channel log, acked with the capture.
    std::vector<Record> channel_log = {};
    int64_t start_steady = 0;  // phase1_capture span start
  };

  class ContextImpl;

  Job(const JobGraph& graph, JobConfig config);

  void RunWorker(Worker* w);
  void RunSource(Worker* w, ContextImpl* ctx);
  void RunConsumer(Worker* w, ContextImpl* ctx);
  /// Phase 1 of a worker, the same in both barrier modes: BeginCapture marks
  /// the capture point (OnCheckpoint + BeginSnapshot), StepCapture writes it
  /// out (FinishSnapshotStep) and acks. Aligned workers step once, unbounded;
  /// unaligned workers forward the marker first and step in chunks.
  Status BeginCapture(Worker* w, ContextImpl* ctx, int64_t checkpoint_id);
  /// Writes out up to `budget` entries of `capture`. Once it is fully written
  /// (or failed) records its phase1_capture span, acks it with its status and
  /// channel log, and resets it (checkpoint_id 0).
  void StepCapture(Worker* w, PendingCapture* capture, size_t budget);
  void EmitFrom(Worker* w, Record record);
  void BroadcastControl(Worker* w, const Record& record);
  /// Worker -> coordinator phase-1 vote. A non-OK status aborts the
  /// checkpoint; `channel_log` carries the worker's overtaken records
  /// (unaligned mode only).
  void AckPrepared(int32_t worker_id, int64_t checkpoint_id, Status status,
                   std::vector<Record> channel_log = {});
  /// Pushes an abort notification for `checkpoint_id` into every consumer
  /// queue so alignment buffers / in-flight captures are released.
  void BroadcastAbort(int64_t checkpoint_id);
  void NotifyWorkerFinished(int32_t worker_id);
  void AppendCheckpointRowLocked(CheckpointRow row) SQ_REQUIRES(ckpt_mu_);
  bool AllPreparedLocked() const SQ_REQUIRES(ckpt_mu_);
  void JoinAllWorkers();
  void RunCoordinator();
  /// Parent context for worker-side spans of checkpoint `checkpoint_id`
  /// (align_wait, phase1_capture): the coordinator's published root span, or
  /// all-zero (= don't record) when that root is stale or unsampled.
  trace::SpanContext CheckpointTraceParent(int64_t checkpoint_id) const;

  // sq-lint: unguarded-ok(set in the constructor, immutable once Start runs)
  JobConfig config_;
  // sq-lint: unguarded-ok(set in the constructor, immutable once Start runs)
  std::unique_ptr<kv::Partitioner> owned_partitioner_;
  const kv::Partitioner* partitioner_ = nullptr;
  // sq-lint: unguarded-ok(set in the constructor, immutable once Start runs)
  Clock* clock_ = nullptr;

  // sq-lint: unguarded-ok(built in Start before workers spawn; see below)
  std::vector<std::unique_ptr<Worker>> workers_;
  // By worker id. Deliberately NOT SQ_GUARDED_BY(ckpt_mu_): worker threads
  // read the array lock-free on the emit hot path. That is safe because the
  // only mutation (the swap in InjectFailureAndRecover) happens after every
  // worker joined; ckpt_mu_ is additionally held there only so concurrent
  // introspection (CollectOperatorStats) never observes the swap mid-way.
  // sq-lint: unguarded-ok(lock-free by design, see rationale above)
  std::vector<std::unique_ptr<BlockingQueue<Record>>> queues_;
  // sq-lint: unguarded-ok(built in Start before workers spawn)
  std::vector<OperatorFactory> factories_;  // by vertex index

  std::atomic<bool> started_{false};
  std::atomic<bool> abort_{false};
  std::atomic<int64_t> latest_committed_{0};

  // Root span of the in-flight checkpoint, published by TriggerCheckpoint
  // before marker injection so worker threads can parent their spans without
  // touching ckpt_mu_. Write order: root (relaxed), then id (release);
  // readers load the id with acquire first.
  std::atomic<uint64_t> trace_ckpt_root_{0};
  std::atomic<int64_t> trace_ckpt_id_{0};

  // Checkpoint coordination (also guards checkpoint_history_ and the queue
  // array swap during recovery, so const introspection methods lock it too).
  // Outermost rank: TriggerCheckpoint holds it across the whole 2PC,
  // including listener callbacks into storage and the snapshot registry.
  mutable Mutex ckpt_mu_{lockrank::kJobCheckpoint, "job.checkpoint"};
  CondVar ckpt_cv_;
  int64_t next_checkpoint_id_ SQ_GUARDED_BY(ckpt_mu_) = 0;
  int64_t pending_checkpoint_ SQ_GUARDED_BY(ckpt_mu_) = 0;  // 0 = none
  std::unordered_set<int32_t> prepared_workers_ SQ_GUARDED_BY(ckpt_mu_);
  /// First phase-1 failure of the pending checkpoint (OK = none so far).
  /// Set by AckPrepared; makes TriggerCheckpoint abort instead of
  /// committing a checkpoint that silently lost a worker's state.
  Status prepare_error_ SQ_GUARDED_BY(ckpt_mu_);
  /// Per-checkpoint channel logs (unaligned mode): worker id -> the records
  /// that overtook that checkpoint's marker. Kept for the latest committed
  /// id so in-process recovery can replay them; handed to listeners in
  /// phase 2 for durable recovery.
  std::map<int64_t, std::vector<std::pair<int32_t, std::vector<Record>>>>
      channel_logs_ SQ_GUARDED_BY(ckpt_mu_);
  std::deque<CheckpointRow> checkpoint_history_ SQ_GUARDED_BY(ckpt_mu_);

  // Cached metric handles (null when config_.metrics is null).
  Counter* m_records_in_ = nullptr;
  Counter* m_records_out_ = nullptr;
  Histogram* m_channel_depth_ = nullptr;
  Histogram* m_align_nanos_ = nullptr;
  Histogram* m_phase1_nanos_ = nullptr;
  Histogram* m_phase2_nanos_ = nullptr;
  Counter* m_committed_ = nullptr;
  Counter* m_aborted_ = nullptr;
  Counter* m_overtaken_ = nullptr;
  Counter* m_dropped_buffered_ = nullptr;
  // sq-lint: unguarded-ok(started in Start, joined in Stop; never raced)
  std::thread coordinator_thread_;
  std::atomic<bool> coordinator_stop_{false};
};

}  // namespace sq::dataflow

#endif  // SQUERY_DATAFLOW_EXECUTION_H_
