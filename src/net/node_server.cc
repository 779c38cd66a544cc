#include "net/node_server.h"

#include <memory>
#include <utility>

#include "common/metric_names.h"
#include "net/socket.h"
#include "trace/trace.h"

namespace sq::net {

namespace {

/// Reply send deadline: a client that stopped draining its socket must not
/// pin a server thread forever.
constexpr int64_t kSendDeadlineNanos = int64_t{30} * 1000 * 1000 * 1000;

}  // namespace

Result<std::string> BuildScanPage(const sql::TableSource& source,
                                  int32_t begin, int32_t end,
                                  const std::vector<kv::Value>& keys,
                                  size_t budget_bytes) {
  // The node serves the batches its own source yields and nothing else: the
  // coordinator filters and folds them with the code it runs on local ones.
  std::vector<sql::PartitionLookup> looked_up;
  if (!keys.empty()) {
    std::vector<kv::Value> in_range;
    for (const kv::Value& key : keys) {
      const int32_t p = source.PartitionOfKey(key);
      if (p >= begin && p < end) in_range.push_back(key);
    }
    SQ_ASSIGN_OR_RETURN(looked_up, source.ScanKeys(in_range));
  }
  auto next_found = looked_up.begin();
  ScanRangeReplyWriter page;
  int32_t partition = begin;
  // Every page carries at least one partition, so a scan always progresses.
  while (partition < end &&
         (partition == begin || page.size() <= budget_bytes)) {
    PartitionBatches served;
    served.partition = partition;
    const auto serve = [&served](sql::ScanBatch* batch) {
      WireBatch wire;
      if (batch->ssid.has_value()) {
        wire.has_ssid = true;
        wire.ssid = batch->ssid->AsInt64();
      }
      wire.rows = std::move(batch->rows);
      served.batches.push_back(std::move(wire));
    };
    if (keys.empty()) {
      std::unique_ptr<sql::BatchReader> reader =
          source.OpenBatchReader(partition);
      sql::ScanBatch batch;
      for (;;) {
        SQ_ASSIGN_OR_RETURN(bool more, reader->NextBatch(&batch));
        if (!more) break;
        serve(&batch);
        batch = sql::ScanBatch{};
      }
    } else if (next_found != looked_up.end() &&
               next_found->partition == partition) {
      for (sql::ScanBatch& batch : next_found->batches) serve(&batch);
      ++next_found;
    }
    page.Add(served);
    ++partition;
  }
  std::string out;
  page.Finish(partition, &out);
  return out;
}

NodeServer::NodeServer(NodeServerOptions options)
    : options_(std::move(options)) {
  if (MetricsRegistry* m = options_.metrics; m != nullptr) {
    m_bytes_in_ = m->GetCounter(metric_names::kNetServerBytesIn);
    m_bytes_out_ = m->GetCounter(metric_names::kNetServerBytesOut);
    m_errors_ = m->GetCounter(metric_names::kNetServerErrors);
    m_connections_ = m->GetCounter(metric_names::kNetServerConnections);
    m_handle_nanos_ = m->GetHistogram(metric_names::kNetServerHandleNanos);
    // Register the per-type RPC counter of every known message type eagerly,
    // so `__metrics` carries a (possibly zero) row for each type from the
    // start — dashboards and the lint rpc-metrics rule rely on the full
    // set existing, not just the types already exercised.
    for (int t = 0; t < 256; ++t) {
      if (!IsKnownMsgType(static_cast<uint8_t>(t))) continue;
      // Registration only; Handle() re-looks the handle up per request.
      (void)m->GetCounter(std::string(metric_names::kNetServerRpcsPrefix) +
                          MsgTypeToString(static_cast<MsgType>(t)));
    }
  }
}

NodeServer::~NodeServer() { Stop(); }

Status NodeServer::Start() {
  if (options_.query == nullptr) {
    return Status::InvalidArgument("net: NodeServer requires a QueryService");
  }
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("net: NodeServer already started");
  }
  SQ_ASSIGN_OR_RETURN(listen_fd_, ListenTcp(options_.host, options_.port));
  SQ_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void NodeServer::Stop() {
  if (stopping_.exchange(true)) {
    // A second caller must still wait for the first stop to finish joining,
    // but the destructor is the only second caller in practice.
  }
  if (listen_fd_ >= 0) {
    ShutdownFd(listen_fd_);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  std::vector<std::thread> to_join;
  {
    MutexLock lock(&mu_);
    for (int fd : conn_fds_) {
      ShutdownFd(fd);
    }
    to_join = std::move(conn_threads_);
    conn_threads_.clear();
  }
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
  {
    MutexLock lock(&mu_);
    for (int fd : conn_fds_) {
      CloseFd(fd);
    }
    conn_fds_.clear();
  }
  CloseFd(listen_fd_);
  listen_fd_ = -1;
}

void NodeServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<int> fd = AcceptConn(listen_fd_);
    if (!fd.ok()) {
      // Shutdown wakes the accept; anything else on a healthy listener is
      // transient (EMFILE under load) — keep serving.
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;
    }
    if (m_connections_ != nullptr) m_connections_->Increment();
    MutexLock lock(&mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      CloseFd(*fd);
      break;
    }
    const size_t index = conn_fds_.size();
    conn_fds_.push_back(*fd);
    conn_threads_.emplace_back([this, index, conn = *fd] {
      Serve(conn);
      MutexLock conn_lock(&mu_);
      if (index < conn_fds_.size() && conn_fds_[index] == conn) {
        CloseFd(conn);
        conn_fds_[index] = -1;
      }
    });
  }
}

void NodeServer::Serve(int fd) {
  for (;;) {
    int64_t bytes_in = 0;
    int64_t bytes_out = 0;
    int64_t first_byte_nanos = 0;
    // Block without deadline between requests (peers hold idle connections);
    // Stop() shuts the fd down to wake this.
    Result<Frame> request =
        RecvFrame(fd, /*deadline_nanos=*/0, &bytes_in, &first_byte_nanos);
    if (m_bytes_in_ != nullptr && bytes_in > 0) {
      m_bytes_in_->Increment(bytes_in);
    }
    if (!request.ok()) break;
    bool handled_ok = true;
    const Frame reply = Handle(*request, &handled_ok);
    const Status sent = SendFrame(fd, reply,
                                  trace::NowNanos() + kSendDeadlineNanos,
                                  &bytes_out);
    if (m_bytes_out_ != nullptr && bytes_out > 0) {
      m_bytes_out_->Increment(bytes_out);
    }
    // The server half of the RPC, wide: from the frame header's arrival
    // through body receive, decode, dispatch, encode and the reply send —
    // so client `rpc.call` minus server `rpc.serve` is pure wire time.
    if (request->trace_id != 0) {
      trace::RecordSpan(trace::Category::kNet, "rpc.serve",
                        trace::RootContext(request->trace_id),
                        first_byte_nanos, trace::NowNanos(),
                        {{"msg_type", MsgTypeToString(request->type)},
                         {"node", options_.node_id},
                         {"ok", handled_ok && sent.ok()},
                         {"bytes_in", bytes_in},
                         {"bytes_out", bytes_out}});
    }
    if (!sent.ok()) break;
  }
}

Frame NodeServer::Handle(const Frame& request, bool* handled_ok) {
  const int64_t t0 = trace::NowNanos();
  Frame reply;
  reply.request_id = request.request_id;
  reply.trace_id = request.trace_id;
  MsgType reply_type = MsgType::kError;
  Result<std::string> body = Dispatch(request, &reply_type);
  if (body.ok() && body->size() > kMaxBodyBytes) {
    // Sent as is, the frame would fail the client's length check as corrupt
    // and be retried; as a typed error it fails once.
    body = Status::InvalidArgument(
        std::string("net: ") + MsgTypeToString(reply_type) + " reply of " +
        std::to_string(body->size()) + " bytes exceeds the " +
        std::to_string(kMaxBodyBytes) + "-byte frame body limit on node " +
        std::to_string(options_.node_id));
  }
  *handled_ok = body.ok();
  if (body.ok()) {
    reply.type = reply_type;
    reply.body = std::move(body).value();
  } else {
    reply.type = MsgType::kError;
    EncodeStatusBody(body.status(), &reply.body);
    if (m_errors_ != nullptr) m_errors_->Increment();
  }
  const int64_t t1 = trace::NowNanos();
  if (m_handle_nanos_ != nullptr) m_handle_nanos_->Record(t1 - t0);
  if (options_.metrics != nullptr) {
    options_.metrics
        ->GetCounter(std::string(metric_names::kNetServerRpcsPrefix) +
                     MsgTypeToString(request.type))
        ->Increment();
  }
  return reply;
}

Result<std::string> NodeServer::Dispatch(const Frame& request,
                                         MsgType* reply_type) {
  switch (request.type) {
    case MsgType::kHello: {
      HelloReply hello;
      hello.node_id = options_.node_id;
      hello.partition_begin = options_.owned.begin;
      hello.partition_end = options_.owned.end;
      hello.partition_count = options_.partition_count;
      std::string body;
      EncodeHelloReply(hello, &body);
      *reply_type = MsgType::kHelloReply;
      return body;
    }
    case MsgType::kScanRange:
      *reply_type = MsgType::kRangeBatches;
      return HandleScanRange(request.body);
    case MsgType::kReplicationDelta:
      *reply_type = MsgType::kAck;
      return HandleReplicationDelta(request.body);
    case MsgType::kCheckpointMarker:
      *reply_type = MsgType::kAck;
      return HandleCheckpointMarker(request.body);
    case MsgType::kResolveSsid:
      *reply_type = MsgType::kResolveSsidReply;
      return HandleResolveSsid(request.body);
    case MsgType::kFetchSystemTable:
      *reply_type = MsgType::kSystemTableReply;
      return HandleFetchSystemTable(request.body);
    default:
      return Status::InvalidArgument(
          std::string("net: not a request type: ") +
          MsgTypeToString(request.type));
  }
}

Status NodeServer::CheckOwnedRange(int32_t begin, int32_t end) const {
  const std::string range =
      "[" + std::to_string(begin) + ", " + std::to_string(end) + ")";
  if (begin >= end) {
    return Status::InvalidArgument("net: empty or inverted partition range " +
                                   range);
  }
  if (begin < 0 || end > options_.partition_count) {
    return Status::InvalidArgument("net: partition range " + range +
                                   " outside the partition space");
  }
  if (begin < options_.owned.begin || end > options_.owned.end) {
    return Status::OutOfRange(
        "net: partition range " + range + " not owned by node " +
        std::to_string(options_.node_id) + " (owns [" +
        std::to_string(options_.owned.begin) + ", " +
        std::to_string(options_.owned.end) + "))");
  }
  return Status::OK();
}

Result<std::unique_ptr<sql::TableSource>> NodeServer::OpenSource(
    const TableRead& read) {
  query::QueryOptions qopts;
  // Live tables must be servable: the *client* decided the isolation level
  // and only routes live reads here when its level allows them.
  qopts.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  std::optional<int64_t> requested;
  if (read.has_ssid) {
    requested = read.ssid;
    qopts.snapshot_id = read.ssid;
  }
  SQ_ASSIGN_OR_RETURN(
      std::unique_ptr<sql::TableSource> source,
      options_.query->OpenTableSource(read.table, requested, qopts));
  // Requests address partitions of the cluster's partition space; a
  // single-partition source (a virtual table, a snapshot read back from the
  // durable log) cannot answer them.
  if (source->partition_count() != options_.partition_count) {
    return Status::NotFound("net: no partition-scannable table named \"" +
                            read.table + "\" on node " +
                            std::to_string(options_.node_id));
  }
  return source;
}

Result<std::string> NodeServer::HandleScanRange(std::string_view body) {
  SQ_ASSIGN_OR_RETURN(ScanRangeRequest req, DecodeScanRangeRequest(body));
  SQ_RETURN_IF_ERROR(CheckOwnedRange(req.begin, req.end));
  SQ_ASSIGN_OR_RETURN(std::unique_ptr<sql::TableSource> source,
                      OpenSource(req.read));
  return BuildScanPage(*source, req.begin, req.end, req.keys, kScanPageBytes);
}

Result<std::string> NodeServer::HandleReplicationDelta(
    std::string_view body) {
  SQ_ASSIGN_OR_RETURN(ReplicationDelta delta, DecodeReplicationDelta(body));
  if (options_.grid == nullptr) {
    return Status::FailedPrecondition(
        "net: node has no grid to apply replication deltas to");
  }
  if (delta.ssid == 0) {
    kv::LiveMap* live = options_.grid->GetOrCreateLiveMap(delta.table);
    for (DeltaEntry& entry : delta.entries) {
      if (entry.tombstone) {
        // Removing an absent key is a no-op, not an error worth surfacing.
        (void)live->Remove(entry.key);
      } else {
        live->Put(entry.key, std::move(entry.value));
      }
    }
  } else {
    kv::SnapshotTable* snap =
        options_.grid->GetOrCreateSnapshotTable(delta.table);
    for (DeltaEntry& entry : delta.entries) {
      if (entry.tombstone) {
        snap->WriteTombstone(delta.ssid, entry.key);
      } else {
        snap->Write(delta.ssid, entry.key, std::move(entry.value));
      }
    }
  }
  return std::string();
}

Result<std::string> NodeServer::HandleCheckpointMarker(
    std::string_view body) {
  SQ_ASSIGN_OR_RETURN(CheckpointMarker marker, DecodeCheckpointMarker(body));
  if (dataflow::CheckpointListener* l = options_.checkpoint; l != nullptr) {
    switch (marker.phase) {
      case CheckpointPhase::kPrepare:
        // A failed prepare (e.g. the durable append) goes back in the
        // reply, and the coordinator aborts the checkpoint.
        SQ_RETURN_IF_ERROR(l->OnCheckpointPrepared(marker.checkpoint_id));
        break;
      case CheckpointPhase::kCommit:
        l->OnCheckpointCommitted(marker.checkpoint_id);
        break;
      case CheckpointPhase::kAbort:
        l->OnCheckpointAborted(marker.checkpoint_id);
        break;
    }
  }
  return std::string();
}

Result<std::string> NodeServer::HandleFetchSystemTable(std::string_view body) {
  SQ_ASSIGN_OR_RETURN(FetchSystemTableRequest req,
                      DecodeFetchSystemTableRequest(body));
  // ScanSystemObjects is local-only by contract, so a federated fetch can
  // never recurse back into the cluster from here.
  SQ_ASSIGN_OR_RETURN(std::vector<kv::Object> rows,
                      options_.query->ScanSystemObjects(req.table));
  SystemTableReply reply;
  reply.rows = std::move(rows);
  if (req.table == "__metrics" && options_.metrics != nullptr) {
    // Histograms additionally travel as raw bucket state: the coordinator
    // recomputes the percentile columns from these (percentiles themselves
    // must never be merged across processes).
    for (auto& [name, state] : options_.metrics->HistogramStates()) {
      WireHistogram h;
      h.name = name;
      h.buckets = std::move(state.buckets);
      h.count = state.count;
      h.min = state.min;
      h.max = state.max;
      h.sum = state.sum;
      reply.histograms.push_back(std::move(h));
    }
  }
  reply.server_unix_micros = SteadyToUnixMicros(trace::NowNanos());
  std::string out;
  EncodeSystemTableReply(reply, &out);
  return out;
}

Result<std::string> NodeServer::HandleResolveSsid(std::string_view body) {
  SQ_ASSIGN_OR_RETURN(ResolveSsidRequest req, DecodeResolveSsidRequest(body));
  if (options_.registry == nullptr) {
    return Status::FailedPrecondition(
        "net: node has no snapshot registry to resolve ids against");
  }
  std::optional<int64_t> requested;
  if (req.has_requested) requested = req.requested;
  SQ_ASSIGN_OR_RETURN(int64_t ssid, options_.registry->Resolve(requested));
  ResolveSsidReply reply{ssid};
  std::string out;
  EncodeResolveSsidReply(reply, &out);
  return out;
}

}  // namespace sq::net
