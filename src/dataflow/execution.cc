#include "dataflow/execution.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/metric_names.h"

namespace sq::dataflow {

/// Per-worker operator context. Lives on the worker thread's stack for the
/// duration of RunWorker.
class Job::ContextImpl : public OperatorContext {
 public:
  ContextImpl(Job* job, Worker* worker) : job_(job), worker_(worker) {}

  const std::string& vertex_name() const override {
    return worker_->vertex_name;
  }
  int32_t instance_index() const override { return worker_->instance; }
  int32_t parallelism() const override { return worker_->parallelism; }

  void PutState(const kv::Value& key, kv::Object value) override {
    if (worker_->state) {
      worker_->state->Put(key, std::move(value));
      // Size() runs on the owning worker thread; the atomic mirror is what
      // introspection threads read.
      worker_->state_entries.store(worker_->state->Size(),
                                   std::memory_order_relaxed);
    }
  }
  std::optional<kv::Object> GetState(const kv::Value& key) const override {
    if (!worker_->state) return std::nullopt;
    return worker_->state->Get(key);
  }
  bool RemoveState(const kv::Value& key) override {
    if (!worker_->state) return false;
    const bool removed = worker_->state->Remove(key);
    worker_->state_entries.store(worker_->state->Size(),
                                 std::memory_order_relaxed);
    return removed;
  }
  void ForEachState(
      const std::function<void(const kv::Value&, const kv::Object&)>& fn)
      const override {
    if (worker_->state) worker_->state->ForEach(fn);
  }

  void Emit(Record record) override {
    job_->EmitFrom(worker_, std::move(record));
  }

  int64_t NowNanos() const override { return job_->clock_->NowNanos(); }

 private:
  Job* job_;
  Worker* worker_;
};

Job::Job(const JobGraph& graph, JobConfig config)
    : config_(std::move(config)) {
  if (config_.partitioner != nullptr) {
    partitioner_ = config_.partitioner;
  } else {
    owned_partitioner_ =
        std::make_unique<kv::Partitioner>(kv::kDefaultPartitionCount);
    partitioner_ = owned_partitioner_.get();
  }
  clock_ = config_.clock != nullptr ? config_.clock : SystemClock::Default();
  if (!config_.state_store_factory) {
    config_.state_store_factory = InMemoryStateStoreFactory();
  }
  if (config_.metrics != nullptr) {
    m_records_in_ =
        config_.metrics->GetCounter(metric_names::kDataflowRecordsIn);
    m_records_out_ =
        config_.metrics->GetCounter(metric_names::kDataflowRecordsOut);
    m_channel_depth_ =
        config_.metrics->GetHistogram(metric_names::kDataflowChannelDepth);
    m_align_nanos_ =
        config_.metrics->GetHistogram(metric_names::kCheckpointAlignNanos);
    m_phase1_nanos_ =
        config_.metrics->GetHistogram(metric_names::kCheckpointPhase1Nanos);
    m_phase2_nanos_ =
        config_.metrics->GetHistogram(metric_names::kCheckpointPhase2Nanos);
    m_committed_ =
        config_.metrics->GetCounter(metric_names::kCheckpointCommitted);
    m_aborted_ = config_.metrics->GetCounter(metric_names::kCheckpointAborted);
    m_overtaken_ =
        config_.metrics->GetCounter(metric_names::kCheckpointOvertakenRecords);
    m_dropped_buffered_ =
        config_.metrics->GetCounter(metric_names::kCheckpointDroppedBuffered);
  }

  // Materialize workers.
  std::vector<std::vector<int32_t>> vertex_workers(graph.vertices().size());
  for (size_t v = 0; v < graph.vertices().size(); ++v) {
    const VertexSpec& spec = graph.vertices()[v];
    factories_.push_back(spec.factory);
    for (int32_t i = 0; i < spec.parallelism; ++i) {
      auto w = std::make_unique<Worker>();
      w->id = static_cast<int32_t>(workers_.size());
      w->vertex = static_cast<int32_t>(v);
      w->instance = i;
      w->is_source = spec.is_source;
      w->stateful = spec.stateful;
      w->vertex_name = spec.name;
      w->parallelism = spec.parallelism;
      w->op = spec.factory(i);
      if (spec.stateful) {
        w->state = config_.state_store_factory(spec.name, i);
      }
      vertex_workers[v].push_back(w->id);
      workers_.push_back(std::move(w));
    }
  }
  for (size_t i = 0; i < workers_.size(); ++i) {
    queues_.push_back(
        std::make_unique<BlockingQueue<Record>>(config_.channel_capacity));
  }
  // Wire edges.
  for (const EdgeSpec& e : graph.edges()) {
    for (int32_t wid : vertex_workers[e.from]) {
      OutEdge edge;
      edge.kind = e.kind;
      edge.dest_worker_ids = vertex_workers[e.to];
      workers_[wid]->outputs.push_back(std::move(edge));
    }
    for (int32_t wid : vertex_workers[e.to]) {
      for (int32_t up : vertex_workers[e.from]) {
        workers_[wid]->upstream_ids.insert(up);
      }
    }
  }
}

Result<std::unique_ptr<Job>> Job::Create(const JobGraph& graph,
                                         JobConfig config) {
  SQ_RETURN_IF_ERROR(graph.Validate());
  // Colocation guard: a state store that externalizes state into a
  // partitioned grid must hash with the same partitioner as the job's keyed
  // edges, or live/snapshot tables silently end up on the wrong partitions.
  if (config.state_store_factory &&
      config.state_store_factory.partitioner != nullptr) {
    const kv::Partitioner fallback(kv::kDefaultPartitionCount);
    const kv::Partitioner* effective =
        config.partitioner != nullptr ? config.partitioner : &fallback;
    if (*effective != *config.state_store_factory.partitioner) {
      return Status::InvalidArgument(
          "state-store factory partitions state into " +
          std::to_string(
              config.state_store_factory.partitioner->partition_count()) +
          " partitions but the job's keyed edges use " +
          std::to_string(effective->partition_count()) +
          "; share the grid's partitioner via JobConfig::partitioner");
    }
  }
  return std::unique_ptr<Job>(new Job(graph, std::move(config)));
}

Job::~Job() {
  if (started_.load()) {
    // Destructors cannot propagate errors; Stop() failures here would also
    // mean the job was already torn down.
    (void)Stop();
  }
}

Status Job::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("job already started");
  }
  abort_.store(false);
  for (auto& w : workers_) {
    Worker* raw = w.get();
    raw->thread = std::thread([this, raw] { RunWorker(raw); });
  }
  if (config_.checkpoint_interval_ms > 0) {
    coordinator_stop_.store(false);
    coordinator_thread_ = std::thread([this] { RunCoordinator(); });
  }
  return Status::OK();
}

Status Job::AwaitCompletion() {
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  coordinator_stop_.store(true);
  if (coordinator_thread_.joinable()) coordinator_thread_.join();
  return Status::OK();
}

Status Job::Stop() {
  coordinator_stop_.store(true);
  abort_.store(true);
  {
    MutexLock lock(&ckpt_mu_);
    ckpt_cv_.NotifyAll();
  }
  for (auto& q : queues_) q->Close();
  if (coordinator_thread_.joinable()) coordinator_thread_.join();
  JoinAllWorkers();
  return Status::OK();
}

void Job::JoinAllWorkers() {
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

bool Job::IsRunning() const {
  if (!started_.load()) return false;
  for (const auto& w : workers_) {
    if (!w->finished.load()) return true;
  }
  return false;
}

int64_t Job::ProcessedCount(const std::string& vertex) const {
  int64_t total = 0;
  for (const auto& w : workers_) {
    if (w->vertex_name == vertex) total += w->processed.load();
  }
  return total;
}

void Job::EmitFrom(Worker* w, Record record) {
  record.from_instance = w->id;
  const int64_t n_emit = w->emitted.fetch_add(1, std::memory_order_relaxed);
  if (m_records_out_ != nullptr) m_records_out_->Increment();
  // Sampled channel-occupancy probe: every 256th emit records the depth of
  // the destination queue (backpressure visibility without a per-push cost).
  const bool probe_depth =
      m_channel_depth_ != nullptr && (n_emit & 255) == 0;
  const size_t n_out = w->outputs.size();
  for (size_t e = 0; e < n_out; ++e) {
    const OutEdge& edge = w->outputs[e];
    // The last edge consumes the record; earlier ones get copies.
    Record r = (e + 1 == n_out) ? std::move(record) : record;
    switch (edge.kind) {
      case EdgeKind::kForward: {
        const int32_t dest =
            edge.dest_worker_ids[static_cast<size_t>(w->instance) %
                                 edge.dest_worker_ids.size()];
        queues_[dest]->Push(std::move(r));
        if (probe_depth) {
          m_channel_depth_->Record(
              static_cast<int64_t>(queues_[dest]->size()));
        }
        break;
      }
      case EdgeKind::kKeyed: {
        const int32_t p = partitioner_->PartitionOf(r.key);
        const int32_t dest =
            edge.dest_worker_ids[static_cast<size_t>(p) %
                                 edge.dest_worker_ids.size()];
        queues_[dest]->Push(std::move(r));
        if (probe_depth) {
          m_channel_depth_->Record(
              static_cast<int64_t>(queues_[dest]->size()));
        }
        break;
      }
      case EdgeKind::kBroadcast: {
        for (int32_t dest : edge.dest_worker_ids) {
          queues_[dest]->Push(r);
        }
        break;
      }
    }
  }
}

void Job::BroadcastControl(Worker* w, const Record& record) {
  // Markers and EOFs go to every downstream instance of every out edge.
  for (const OutEdge& edge : w->outputs) {
    for (int32_t dest : edge.dest_worker_ids) {
      Record r = record;
      r.from_instance = w->id;
      queues_[dest]->Push(std::move(r));
    }
  }
}

trace::SpanContext Job::CheckpointTraceParent(int64_t checkpoint_id) const {
  if (trace_ckpt_id_.load(std::memory_order_acquire) != checkpoint_id) {
    return trace::SpanContext{};  // stale or aborted: drop the span
  }
  const uint64_t root = trace_ckpt_root_.load(std::memory_order_relaxed);
  if (root == 0) return trace::SpanContext{};  // root span unsampled
  return trace::SpanContext{trace::CheckpointTraceId(checkpoint_id), root,
                            false};
}

Status Job::BeginCapture(Worker* w, ContextImpl* ctx, int64_t checkpoint_id) {
  // Order matters: OnCheckpoint may flush transient operator members into
  // keyed state (and emit pre-marker records) before the state store marks
  // its capture point. A failure in either step must reach the coordinator:
  // acking it as prepared would commit a checkpoint silently missing this
  // worker's state.
  Status s = w->op->OnCheckpoint(checkpoint_id, ctx);
  // The previous capture's checkpoint was decided before this marker was
  // injected. If it did not commit, the store takes its changes back here:
  // the abort notice is best-effort and may never have arrived.
  if (w->state && w->written_capture > latest_committed_.load()) {
    w->state->AbortSnapshot(w->written_capture);
  }
  w->written_capture = 0;
  if (s.ok() && w->state) s = w->state->BeginSnapshot(checkpoint_id);
  if (!s.ok()) {
    SQ_LOG(Error) << w->vertex_name << "[" << w->instance
                  << "] capture begin failed: " << s;
  }
  return s.WithContext(w->vertex_name + "[" + std::to_string(w->instance) +
                       "]");
}

void Job::StepCapture(Worker* w, PendingCapture* capture, size_t budget) {
  if (capture->checkpoint_id == 0) return;
  if (w->state != nullptr && capture->status.ok()) {
    auto step = w->state->FinishSnapshotStep(capture->checkpoint_id, budget);
    if (step.ok() && !*step) return;  // more chunks to go
    if (!step.ok()) {
      SQ_LOG(Error) << w->vertex_name << "[" << w->instance
                    << "] capture write-out failed: " << step.status();
      capture->status = step.status().WithContext(
          w->vertex_name + "[" + std::to_string(w->instance) + "]");
      w->state->AbortSnapshot(capture->checkpoint_id);  // release it
    } else {
      w->written_capture = capture->checkpoint_id;
    }
  }
  // Per-operator capture, attached to the coordinator's checkpoint span
  // across the thread boundary.
  trace::RecordSpan(trace::Category::kCheckpoint, "phase1_capture",
                    CheckpointTraceParent(capture->checkpoint_id),
                    capture->start_steady, trace::NowNanos(),
                    {{"vertex", w->vertex_name}, {"instance", w->instance}});
  AckPrepared(w->id, capture->checkpoint_id, std::move(capture->status),
              std::move(capture->channel_log));
  *capture = PendingCapture{};
}

void Job::RunWorker(Worker* w) {
  ContextImpl ctx(this, w);
  Status s = w->op->Open(&ctx);
  if (!s.ok()) {
    SQ_LOG(Error) << w->vertex_name << "[" << w->instance
                  << "] Open failed: " << s;
  } else if (w->is_source) {
    RunSource(w, &ctx);
  } else {
    RunConsumer(w, &ctx);
  }
  s = w->op->Close(&ctx);
  if (!s.ok()) {
    SQ_LOG(Error) << w->vertex_name << "[" << w->instance
                  << "] Close failed: " << s;
  }
  BroadcastControl(w, Record::Eof());
  NotifyWorkerFinished(w->id);
}

void Job::RunSource(Worker* w, ContextImpl* ctx) {
  bool done = false;
  int64_t last_ckpt = 0;
  while (!done && !abort_.load(std::memory_order_relaxed)) {
    const int64_t requested =
        w->requested_checkpoint.load(std::memory_order_acquire);
    if (requested > last_ckpt) {
      const bool unaligned =
          config_.checkpoint_mode == CheckpointMode::kUnaligned;
      PendingCapture capture{.checkpoint_id = requested,
                             .start_steady = trace::NowNanos()};
      capture.status = BeginCapture(w, ctx, requested);
      if (unaligned) {
        // The marker leaves *before* the write-out: downstream alignment
        // windows open as early as possible, and the COW overlay protects
        // the captured offset while this source keeps producing.
        BroadcastControl(w, Record::Marker(requested));
        capture.start_steady = trace::NowNanos();
      }
      StepCapture(w, &capture, std::numeric_limits<size_t>::max());
      if (!unaligned) BroadcastControl(w, Record::Marker(requested));
      last_ckpt = requested;
    }
    auto* source = static_cast<SourceOperator*>(w->op.get());
    Status s = source->Poll(ctx, &done);
    if (!s.ok()) {
      SQ_LOG(Error) << w->vertex_name << "[" << w->instance
                    << "] Poll failed: " << s;
      break;
    }
  }
}

void Job::RunConsumer(Worker* w, ContextImpl* ctx) {
  BlockingQueue<Record>* input = queues_[w->id].get();
  const CheckpointMode mode = config_.checkpoint_mode;
  ChannelAligner aligner(mode, w->upstream_ids);
  // The aligner decides; this loop owns the records it rules on:
  std::vector<Record> buffered;   // aligned: blocked-channel records
  std::vector<Record> overtaken;  // unaligned: the channel log being built
  int64_t window_start_nanos = 0;
  int64_t window_start_steady = 0;  // trace timeline (clock_ may be virtual)

  auto process = [&](const Record& r) {
    const int64_t n = w->processed.fetch_add(1, std::memory_order_relaxed);
    if (m_records_in_ != nullptr) m_records_in_->Increment();
    // Sampled processing-latency probe: time 1 in 64 records (two clock
    // reads per sample) so `__operators` can report per-vertex percentiles.
    const bool timed = (n & 63) == 0;
    const int64_t t0 = timed ? clock_->NowNanos() : 0;
    Status s = w->op->ProcessRecord(r, ctx);
    if (timed) w->proc_latency.Record(clock_->NowNanos() - t0);
    if (!s.ok()) {
      SQ_LOG(Error) << w->vertex_name << "[" << w->instance
                    << "] ProcessRecord failed: " << s;
    }
  };

  auto drain_buffered = [&] {
    std::vector<Record> replay;
    replay.swap(buffered);
    for (const Record& r : replay) process(r);
  };

  // Chunked phase-1 write-out (unaligned): the capture whose window already
  // closed but whose entries are still being persisted. Chunks of
  // kCaptureChunk entries run preferentially in queue-idle gaps (sources
  // emit in rate-limited bursts, so gaps are plentiful) and at worst every
  // kRecordsPerForcedChunk records, so a large state neither stalls the
  // data path in one long pause nor starves behind a saturated queue — the
  // COW overlay keeps the captured values stable while new records mutate
  // the live map. Aligned captures write out in one unbounded step.
  constexpr size_t kCaptureChunk = 256;
  constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();
  constexpr int kRecordsPerForcedChunk = 64;
  PendingCapture writeout;
  int records_since_chunk = 0;

  // Acts on one aligner ruling, in field order (see ChannelAligner::Outcome).
  auto handle = [&](const ChannelAligner::Outcome& o) {
    if (o.alignment_started) {
      window_start_nanos = clock_->NowNanos();
      window_start_steady = trace::NowNanos();
    }
    // Records buffered for a superseded/aborted alignment are pre-marker
    // traffic of the *new* barrier: process them before any capture below.
    if (o.drain_buffered_first) drain_buffered();
    if (o.abandoned_capture != 0) {
      if (w->state) w->state->AbortSnapshot(o.abandoned_capture);
      overtaken.clear();
    }
    if (o.begin_capture != 0) {
      // A previous checkpoint's write-out still pending? Flush it now: the
      // store tracks one capture epoch at a time.
      StepCapture(w, &writeout, kUnbounded);
      Status s = BeginCapture(w, ctx, o.begin_capture);
      if (!s.ok()) AckPrepared(w->id, o.begin_capture, std::move(s));
      // Forward the marker immediately — the unaligned overtake: downstream
      // barriers open without waiting for this worker's write-out, so
      // capture stalls do not cascade layer by layer.
      BroadcastControl(w, Record::Marker(o.begin_capture));
    }
    if (o.complete != 0) {
      if (mode == CheckpointMode::kAligned) {
        if (m_align_nanos_ != nullptr) {
          m_align_nanos_->Record(clock_->NowNanos() - window_start_nanos);
        }
        // Barrier-alignment stall: first marker seen → last marker seen. The
        // dominant, hardest-to-attribute checkpoint cost (Carbone et al.).
        trace::RecordSpan(trace::Category::kCheckpoint, "align_wait",
                          CheckpointTraceParent(o.complete),
                          window_start_steady, trace::NowNanos(),
                          {{"vertex", w->vertex_name},
                           {"instance", w->instance},
                           {"buffered_records",
                            static_cast<int64_t>(buffered.size())}});
        writeout = PendingCapture{.checkpoint_id = o.complete,
                                  .start_steady = trace::NowNanos()};
        writeout.status = BeginCapture(w, ctx, o.complete);
        StepCapture(w, &writeout, kUnbounded);
        BroadcastControl(w, Record::Marker(o.complete));
        drain_buffered();
      } else {
        // The unaligned counterpart of align_wait: the capture window in
        // which in-flight records overtook the barrier and were logged.
        trace::RecordSpan(trace::Category::kCheckpoint, "channel_log",
                          CheckpointTraceParent(o.complete),
                          window_start_steady, trace::NowNanos(),
                          {{"vertex", w->vertex_name},
                           {"instance", w->instance},
                           {"overtaken_records",
                            static_cast<int64_t>(overtaken.size())}});
        if (m_overtaken_ != nullptr && !overtaken.empty()) {
          m_overtaken_->Increment(static_cast<int64_t>(overtaken.size()));
        }
        // Freeze the channel log and hand the write-out to the chunked
        // pipeline; the ack happens when the last chunk lands.
        writeout = PendingCapture{.checkpoint_id = o.complete,
                                  .start_steady = trace::NowNanos()};
        writeout.channel_log.swap(overtaken);
        records_since_chunk = 0;
        StepCapture(w, &writeout, kCaptureChunk);
      }
    }
  };

  // Channel-log replay staged by recovery: the committed checkpoint's
  // pre-barrier in-flight records, re-delivered before any new input.
  {
    std::vector<Record> replay;
    replay.swap(w->pending_replay);
    for (const Record& r : replay) process(r);
  }

  while (aligner.has_active_upstreams() &&
         !abort_.load(std::memory_order_relaxed)) {
    std::optional<Record> r;
    if (writeout.checkpoint_id != 0) {
      // Never block while a write-out is pending: idle queue time turns
      // into capture chunks instead.
      r = input->TryPop();
      if (!r.has_value()) {
        StepCapture(w, &writeout, kCaptureChunk);
        continue;
      }
    } else {
      r = input->Pop();
      if (!r.has_value()) break;  // queue closed: shutdown/failure
    }
    switch (r->kind) {
      case RecordKind::kEof:
        handle(aligner.OnEof(r->from_instance));
        break;
      case RecordKind::kMarker:
        handle(aligner.OnMarker(r->from_instance, r->checkpoint_id,
                                latest_committed_.load()));
        break;
      case RecordKind::kAbort:
        if (r->checkpoint_id == writeout.checkpoint_id &&
            writeout.checkpoint_id != 0) {
          // The coordinator gave up on the checkpoint whose write-out is
          // still pending: abandon it instead of finishing dead work.
          if (w->state != nullptr) {
            w->state->AbortSnapshot(writeout.checkpoint_id);
          }
          writeout = PendingCapture{};
        }
        handle(aligner.OnAbort(r->checkpoint_id));
        break;
      case RecordKind::kData:
        switch (aligner.ActionForData(r->from_instance)) {
          case ChannelAligner::DataAction::kBuffer:
            // Channel already delivered the marker: blocked until alignment
            // completes (Fig. 3a).
            buffered.push_back(std::move(*r));
            break;
          case ChannelAligner::DataAction::kProcessAndLog:
            // Pre-barrier in-flight record that the marker overtook: the
            // upstream's capture excludes it and will not re-emit it after
            // a rollback, so it must ride along in the checkpoint.
            overtaken.push_back(*r);
            process(*r);
            break;
          case ChannelAligner::DataAction::kProcess:
            process(*r);
            break;
        }
        break;
    }
    // Under sustained load the idle-gap path above never fires; force a
    // chunk every kRecordsPerForcedChunk records so the write-out still
    // progresses without throttling the data path per record.
    if (writeout.checkpoint_id != 0 &&
        ++records_since_chunk >= kRecordsPerForcedChunk) {
      records_since_chunk = 0;
      StepCapture(w, &writeout, kCaptureChunk);
    }
  }
  // Flush a write-out still pending at exit (EOF arrived mid-capture) so
  // the coordinator is not left waiting on a worker that already drained
  // its input.
  StepCapture(w, &writeout, kUnbounded);
  // Exiting with records still held means shutdown/crash mid-alignment:
  // they are dropped here (recovery re-delivers them from the sources), but
  // the drop is counted instead of being silent.
  if (!buffered.empty() && m_dropped_buffered_ != nullptr) {
    m_dropped_buffered_->Increment(static_cast<int64_t>(buffered.size()));
  }
}

void Job::AppendCheckpointRowLocked(CheckpointRow row) {
  // Bounded history: enough for dashboards without growing with job age.
  constexpr size_t kMaxCheckpointRows = 128;
  checkpoint_history_.push_back(row);
  if (checkpoint_history_.size() > kMaxCheckpointRows) {
    checkpoint_history_.pop_front();
  }
}

std::vector<OperatorStats> Job::CollectOperatorStats() const {
  std::vector<OperatorStats> out;
  out.reserve(workers_.size());
  // ckpt_mu_ also guards the queue array against the swap in
  // InjectFailureAndRecover, so introspection may run during recovery.
  MutexLock lock(&ckpt_mu_);
  for (const auto& w : workers_) {
    OperatorStats s;
    s.vertex = w->vertex_name;
    s.instance = w->instance;
    s.worker_id = w->id;
    s.finished = w->finished.load();
    s.records_in = w->processed.load(std::memory_order_relaxed);
    s.records_out = w->emitted.load(std::memory_order_relaxed);
    s.queue_depth = queues_[w->id]->size();
    s.queue_capacity = queues_[w->id]->capacity();
    s.state_entries = w->state_entries.load(std::memory_order_relaxed);
    s.p50_nanos = w->proc_latency.ValueAtPercentile(50);
    s.p99_nanos = w->proc_latency.ValueAtPercentile(99);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<CheckpointRow> Job::RecentCheckpoints() const {
  MutexLock lock(&ckpt_mu_);
  return {checkpoint_history_.begin(), checkpoint_history_.end()};
}

void Job::AckPrepared(int32_t worker_id, int64_t checkpoint_id, Status status,
                      std::vector<Record> channel_log) {
  MutexLock lock(&ckpt_mu_);
  if (checkpoint_id != pending_checkpoint_) return;  // aborted or stale
  if (!status.ok()) {
    // First failure wins; the coordinator aborts instead of committing a
    // checkpoint that is silently missing this worker's state.
    if (prepare_error_.ok()) prepare_error_ = std::move(status);
    ckpt_cv_.NotifyAll();
    return;
  }
  if (!channel_log.empty()) {
    channel_logs_[checkpoint_id].emplace_back(worker_id,
                                              std::move(channel_log));
  }
  prepared_workers_.insert(worker_id);
  ckpt_cv_.NotifyAll();
}

void Job::BroadcastAbort(int64_t checkpoint_id) {
  // Wake consumers stuck holding alignment buffers or an in-flight capture.
  // ckpt_mu_ guards against the queue swap during recovery; TryPush (never
  // blocks while the lock is held) makes delivery best-effort — a full or
  // closed queue drops the notice, and the consumer instead releases its
  // barrier when the *next* checkpoint's markers supersede it.
  MutexLock lock(&ckpt_mu_);
  for (const auto& w : workers_) {
    if (w->is_source) continue;
    // Best effort: a full queue means the worker is draining records and
    // will learn of the abort from the atomic flag instead.
    (void)queues_[w->id]->TryPush(Record::Abort(checkpoint_id));
  }
}

void Job::NotifyWorkerFinished(int32_t worker_id) {
  workers_[worker_id]->finished.store(true);
  MutexLock lock(&ckpt_mu_);
  ckpt_cv_.NotifyAll();
}

bool Job::AllPreparedLocked() const {
  for (const auto& w : workers_) {
    if (!w->finished.load() && !prepared_workers_.contains(w->id)) {
      return false;
    }
  }
  return true;
}

Result<int64_t> Job::TriggerCheckpoint() {
  if (!started_.load() || abort_.load()) {
    return Status::FailedPrecondition("job is not running");
  }
  MutexLock lock(&ckpt_mu_);
  if (pending_checkpoint_ != 0) {
    return Status::FailedPrecondition("a checkpoint is already in flight");
  }
  bool any_active = false;
  for (const auto& w : workers_) {
    if (!w->finished.load()) {
      any_active = true;
      break;
    }
  }
  if (!any_active) {
    return Status::FailedPrecondition("all workers have finished");
  }

  const int64_t id = ++next_checkpoint_id_;
  pending_checkpoint_ = id;
  prepared_workers_.clear();
  prepare_error_ = Status::OK();
  channel_logs_.erase(id);
  // One span tree per checkpoint, keyed by the checkpoint id itself so
  // `SELECT * FROM __spans WHERE trace_id = <id>` finds it directly. Span
  // endpoints are always steady time (trace::NowNanos) even when the job
  // runs on a virtual clock; phase metrics keep using clock_.
  trace::ScopedSpan ckpt_span(
      trace::Category::kCheckpoint, "checkpoint",
      trace::RootContext(trace::CheckpointTraceId(id)));
  ckpt_span.AddAttr("checkpoint_id", id);
  const int64_t s0 = trace::NowNanos();
  const int64_t started_micros = SteadyToUnixMicros(s0);
  const int64_t t0 = clock_->NowNanos();
  // Publish the root so worker-side spans (align_wait, phase1_capture) can
  // attach to this tree; must happen before the markers are injected.
  trace_ckpt_root_.store(ckpt_span.context().span_id,
                         std::memory_order_relaxed);
  trace_ckpt_id_.store(id, std::memory_order_release);
  // Phase 1: inject markers at the sources; they flow through the DAG and
  // every instance writes its snapshot after alignment.
  for (auto& w : workers_) {
    if (w->is_source) {
      w->requested_checkpoint.store(id, std::memory_order_release);
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.checkpoint_timeout_ms);
  while (!abort_.load() && prepare_error_.ok() && !AllPreparedLocked()) {
    if (ckpt_cv_.WaitUntil(ckpt_mu_, deadline)) break;
  }
  const bool prepared = abort_.load() || AllPreparedLocked();
  // Why the checkpoint fails, if it does: a worker's phase-1 error, or a
  // listener's error appending the prepared checkpoint (durable log).
  Status failure = prepare_error_;
  int64_t overtaken_total = 0;
  if (prepared && !abort_.load() && failure.ok()) {
    const int64_t t1 = clock_->NowNanos();
    if (m_phase1_nanos_ != nullptr) m_phase1_nanos_->Record(t1 - t0);
    trace::RecordSpan(trace::Category::kCheckpoint, "phase1",
                      ckpt_span.context(), s0, trace::NowNanos());
    {
      // The listener chain (durable log append, flush+fsync, registry
      // commit) runs on this thread, so its storage spans nest under phase2
      // via the thread-local scope.
      trace::ScopedSpan phase2_span(trace::Category::kCheckpoint, "phase2",
                                    ckpt_span.context());
      // Channel logs first: the overtaken in-flight records are part of the
      // checkpoint and must be durable before the prepared/commit records.
      if (auto logs = channel_logs_.find(id); logs != channel_logs_.end()) {
        for (const auto& [worker_id, records] : logs->second) {
          overtaken_total += static_cast<int64_t>(records.size());
          const Worker& w = *workers_[worker_id];
          if (config_.listener != nullptr && failure.ok()) {
            failure = config_.listener->OnChannelLog(id, w.vertex_name,
                                                     w.instance, records);
          }
        }
      }
      if (config_.listener != nullptr && failure.ok()) {
        failure = config_.listener->OnCheckpointPrepared(id);
      }
      if (failure.ok()) {
        // Phase 2: atomically publish the new snapshot id (the commit point
        // that makes the snapshot queryable everywhere at once).
        latest_committed_.store(id);
        if (config_.listener != nullptr) {
          config_.listener->OnCheckpointCommitted(id);
        }
      } else {
        phase2_span.AddAttr("aborted", true);
      }
    }
    if (failure.ok()) {
      // Only the newest committed checkpoint can be recovered to; older
      // channel logs (and any stray aborted-id leftovers) are dead weight.
      for (auto it = channel_logs_.begin(); it != channel_logs_.end();) {
        it = it->first == id ? std::next(it) : channel_logs_.erase(it);
      }
      trace_ckpt_id_.store(0, std::memory_order_release);
      const int64_t t2 = clock_->NowNanos();
      if (m_phase2_nanos_ != nullptr) m_phase2_nanos_->Record(t2 - t0);
      if (m_committed_ != nullptr) m_committed_->Increment();
      AppendCheckpointRowLocked(CheckpointRow{.id = id,
                                              .committed = true,
                                              .phase1_nanos = t1 - t0,
                                              .phase2_nanos = t2 - t0,
                                              .started_unix_micros =
                                                  started_micros,
                                              .mode = config_.checkpoint_mode,
                                              .overtaken_records =
                                                  overtaken_total});
      pending_checkpoint_ = 0;
      ckpt_cv_.NotifyAll();
      return id;
    }
  } else {
    trace::RecordSpan(trace::Category::kCheckpoint, "phase1",
                      ckpt_span.context(), s0, trace::NowNanos(),
                      {{"aborted", true}});
  }
  trace_ckpt_id_.store(0, std::memory_order_release);
  ckpt_span.AddAttr("aborted", true);
  pending_checkpoint_ = 0;
  channel_logs_.erase(id);
  if (m_aborted_ != nullptr) m_aborted_->Increment();
  AppendCheckpointRowLocked(CheckpointRow{
      .id = id,
      .committed = false,
      .phase1_nanos = clock_->NowNanos() - t0,
      .phase2_nanos = 0,
      .started_unix_micros = started_micros,
      .mode = config_.checkpoint_mode});
  lock.Unlock();
  // Unwedge consumers first (alignment buffers, in-flight captures), then
  // let listeners discard anything written under this id.
  BroadcastAbort(id);
  if (config_.listener != nullptr) {
    config_.listener->OnCheckpointAborted(id);
  }
  if (!failure.ok()) {
    return Status::Aborted("checkpoint " + std::to_string(id) +
                           " aborted: phase-1 failure: " + failure.message());
  }
  return Status::Aborted("checkpoint " + std::to_string(id) +
                         (prepared ? " aborted" : " timed out"));
}

void Job::RunCoordinator() {
  const int64_t interval_ms = config_.checkpoint_interval_ms;
  while (!coordinator_stop_.load()) {
    // Interruptible sleep.
    int64_t slept = 0;
    while (slept < interval_ms && !coordinator_stop_.load()) {
      const int64_t step = std::min<int64_t>(10, interval_ms - slept);
      std::this_thread::sleep_for(std::chrono::milliseconds(step));
      slept += step;
    }
    if (coordinator_stop_.load() || abort_.load()) break;
    if (!IsRunning()) break;
    Result<int64_t> result = TriggerCheckpoint();
    if (!result.ok() && !result.status().IsAborted() &&
        GetLogLevel() <= LogLevel::kDebug) {
      SQ_LOG(Debug) << "periodic checkpoint skipped: " << result.status();
    }
  }
}

Status Job::InjectFailureAndRecover() {
  if (!started_.load()) {
    return Status::FailedPrecondition("job not started");
  }
  // --- Crash: kill every worker, losing all in-flight records and all
  // uncommitted state progress.
  abort_.store(true);
  {
    MutexLock lock(&ckpt_mu_);
    ckpt_cv_.NotifyAll();
  }
  for (auto& q : queues_) q->Close();
  JoinAllWorkers();

  const int64_t committed = latest_committed_.load();
  {
    MutexLock lock(&ckpt_mu_);
    // Discard snapshots of checkpoints that never committed.
    for (int64_t id = committed + 1; id <= next_checkpoint_id_; ++id) {
      if (config_.listener != nullptr) {
        config_.listener->OnCheckpointAborted(id);
      }
      if (m_aborted_ != nullptr) m_aborted_->Increment();
      AppendCheckpointRowLocked(CheckpointRow{
          .id = id,
          .committed = false,
          .phase1_nanos = 0,
          .phase2_nanos = 0,
          .started_unix_micros = SteadyToUnixMicros(trace::NowNanos()),
          .mode = config_.checkpoint_mode});
      channel_logs_.erase(id);
    }
    next_checkpoint_id_ = committed;
    pending_checkpoint_ = 0;
    prepared_workers_.clear();
  }

  // --- Recovery: roll every stateful instance back to the latest committed
  // checkpoint and rebuild the pipeline. Sources resume from their restored
  // offsets, re-producing the exact post-checkpoint record sequence
  // (deterministic generators), which yields exactly-once state updates.
  for (auto& w : workers_) {
    w->finished.store(false);
    w->requested_checkpoint.store(0);
    w->pending_replay.clear();
    if (w->state) {
      SQ_RETURN_IF_ERROR(
          w->state->RestoreFrom(committed)
              .WithContext("restoring " + w->vertex_name + "[" +
                           std::to_string(w->instance) + "]"));
      w->state_entries.store(w->state->Size(), std::memory_order_relaxed);
    }
    w->op = factories_[w->vertex](w->instance);
  }
  {
    MutexLock lock(&ckpt_mu_);
    for (size_t i = 0; i < queues_.size(); ++i) {
      queues_[i] =
          std::make_unique<BlockingQueue<Record>>(config_.channel_capacity);
    }
    // Unaligned mode: the committed checkpoint excluded the in-flight
    // records that overtook its markers; the sources will not re-emit them
    // either (their captured offsets are *past* those records). Stage the
    // channel log for replay before any new input — this, plus
    // deterministic source re-emission, is what keeps unaligned recovery
    // exactly-once on state. Staged as a copy: a second crash rolling back
    // to the same checkpoint must replay the same log again.
    auto logs = channel_logs_.find(committed);
    if (logs != channel_logs_.end()) {
      for (const auto& [worker_id, records] : logs->second) {
        auto& dst = workers_[worker_id]->pending_replay;
        dst.insert(dst.end(), records.begin(), records.end());
      }
    }
  }
  abort_.store(false);
  for (auto& w : workers_) {
    Worker* raw = w.get();
    raw->thread = std::thread([this, raw] { RunWorker(raw); });
  }
  return Status::OK();
}

Status Job::StageChannelLogReplay(const std::string& vertex_name,
                                  int32_t instance,
                                  std::vector<Record> records) {
  if (started_.load()) {
    return Status::FailedPrecondition(
        "channel-log replay must be staged before Start()");
  }
  for (auto& w : workers_) {
    if (w->vertex_name == vertex_name && w->instance == instance) {
      w->pending_replay.insert(w->pending_replay.end(),
                               std::make_move_iterator(records.begin()),
                               std::make_move_iterator(records.end()));
      return Status::OK();
    }
  }
  return Status::NotFound("no worker " + vertex_name + "[" +
                          std::to_string(instance) + "]");
}

}  // namespace sq::dataflow
