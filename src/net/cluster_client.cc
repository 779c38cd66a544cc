#include "net/cluster_client.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "common/metric_names.h"
#include "net/socket.h"

namespace sq::net {

// ---------------------------------------------------------------------------
// ClusterTableSource

namespace {

/// The client half of distributed routing: a TableSource whose partitions
/// live on remote nodes. A node answers a partition read with the columnar
/// batches its own source yields, so the coordinator filters and folds
/// remote partitions with exactly the code it runs on local ones. The
/// executor's partition fan-out reads partitions from pool workers, so one
/// slow node only stalls its own partitions; per-peer connection locks
/// serialize RPCs to the same node and let distinct nodes proceed in
/// parallel.
class ClusterTableSource : public sql::TableSource {
 public:
  ClusterTableSource(ClusterClient* client, TableRead read)
      : client_(client),
        read_(std::move(read)),
        // Captured once on the coordinating thread (the source is opened
        // inside the query's span); worker-side RPCs parent here so the
        // whole scatter joins the query's trace tree.
        ctx_(trace::CurrentContext()) {}

  int32_t partition_count() const override {
    return client_->topology().partition_count;
  }

  int32_t PartitionOfKey(const kv::Value& key) const override {
    return client_->partitioner().PartitionOf(key);
  }

  /// The row engine's view of the same batches the columnar engine reads.
  Status ScanPartition(int32_t partition, const RowFn& fn) const override {
    SQ_ASSIGN_OR_RETURN(std::vector<sql::ScanBatch> batches,
                        FetchBatches(partition));
    for (const sql::ScanBatch& batch : batches) {
      const kv::Value* ssid = batch.ssid.has_value() ? &*batch.ssid : nullptr;
      for (size_t r = 0; r < batch.rows->row_count(); ++r) {
        fn(batch.rows->keys()[r], ssid, batch.rows->MaterializeRow(r));
      }
    }
    return Status::OK();
  }

  Status ScanKeys(const std::vector<kv::Value>& keys,
                  const RowFn& fn) const override {
    // Scatter the key set by owning node, then replay replies in request-key
    // order — the exact emission order of the local point-lookup path (keys
    // outermost, versions innermost), so multi-version lookups stay
    // bit-identical.
    std::map<int32_t, PointLookupRequest> by_node;
    for (size_t i = 0; i < keys.size(); ++i) {
      const int32_t node =
          client_->OwnerOfPartition(PartitionOfKey(keys[i]));
      PointLookupRequest& req = by_node[node];
      req.read = read_;
      req.keys.push_back(keys[i]);
    }
    std::vector<std::pair<size_t, WireRow>> collected;
    for (auto& [node, req] : by_node) {
      std::string body;
      EncodePointLookupRequest(req, &body);
      std::string reply_body;
      SQ_RETURN_IF_ERROR(client_->Call(node, MsgType::kPointLookup, body,
                                       MsgType::kRows, &reply_body, ctx_,
                                       /*idempotent=*/true));
      SQ_ASSIGN_OR_RETURN(RowsReply reply, DecodeRowsReply(reply_body));
      for (WireRow& row : reply.rows) {
        size_t index = keys.size();
        for (size_t i = 0; i < keys.size(); ++i) {
          if (keys[i] == row.key) {
            index = i;
            break;
          }
        }
        collected.emplace_back(index, std::move(row));
      }
    }
    std::stable_sort(collected.begin(), collected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& [index, row] : collected) {
      if (row.has_ssid) {
        const kv::Value ssid(row.ssid);
        fn(row.key, &ssid, row.value);
      } else {
        fn(row.key, nullptr, row.value);
      }
    }
    return Status::OK();
  }

  std::unique_ptr<sql::BatchReader> OpenBatchReader(
      int32_t partition) const override {
    return std::make_unique<RemoteBatchReader>(this, partition);
  }

  bool SupportsBatches() const override { return true; }

 private:
  /// Cursor over one remote partition. The RPC runs on the first NextBatch,
  /// so transport and decode errors come back through its Result.
  class RemoteBatchReader : public sql::BatchReader {
   public:
    RemoteBatchReader(const ClusterTableSource* source, int32_t partition)
        : source_(source), partition_(partition) {}

    Result<bool> NextBatch(sql::ScanBatch* out) override {
      if (!fetched_) {
        SQ_ASSIGN_OR_RETURN(batches_, source_->FetchBatches(partition_));
        fetched_ = true;
      }
      if (next_ == batches_.size()) return false;
      *out = std::move(batches_[next_++]);
      return true;
    }

   private:
    const ClusterTableSource* source_;
    const int32_t partition_;
    bool fetched_ = false;
    std::vector<sql::ScanBatch> batches_;
    size_t next_ = 0;
  };

  /// One kScanBatches RPC to the partition's owner.
  Result<std::vector<sql::ScanBatch>> FetchBatches(int32_t partition) const {
    ScanPartitionRequest req;
    req.read = read_;
    req.partition = partition;
    std::string body;
    EncodeScanPartitionRequest(req, &body);
    std::string reply_body;
    SQ_RETURN_IF_ERROR(client_->Call(
        client_->OwnerOfPartition(partition), MsgType::kScanBatches, body,
        MsgType::kBatches, &reply_body, ctx_, /*idempotent=*/true));
    SQ_ASSIGN_OR_RETURN(BatchesReply reply, DecodeBatchesReply(reply_body));
    std::vector<sql::ScanBatch> batches;
    batches.reserve(reply.batches.size());
    for (WireBatch& batch : reply.batches) {
      std::optional<kv::Value> ssid;
      if (batch.has_ssid) ssid = kv::Value(batch.ssid);
      batches.push_back(sql::ScanBatch{std::move(batch.rows), std::move(ssid)});
    }
    return batches;
  }

  ClusterClient* client_;
  TableRead read_;
  trace::SpanContext ctx_;
};

}  // namespace

// ---------------------------------------------------------------------------
// ClusterClient

ClusterClient::ClusterClient(ClusterTopology topology, RpcOptions rpc,
                             MetricsRegistry* metrics)
    : topology_(std::move(topology)),
      rpc_(rpc),
      partitioner_(topology_.partition_count),
      metrics_(metrics) {
  peers_.reserve(topology_.nodes.size());
  for (size_t i = 0; i < topology_.nodes.size(); ++i) {
    peers_.push_back(std::make_unique<Peer>());
  }
  if (metrics_ != nullptr) {
    m_bytes_in_ = metrics_->GetCounter(metric_names::kNetClientBytesIn);
    m_bytes_out_ = metrics_->GetCounter(metric_names::kNetClientBytesOut);
    m_retries_ = metrics_->GetCounter(metric_names::kNetClientRetries);
    m_deadline_exceeded_ = metrics_->GetCounter(metric_names::kNetClientDeadlineExceeded);
    m_errors_ = metrics_->GetCounter(metric_names::kNetClientErrors);
    // Per-node health metrics, registered up front so every known node has
    // rows in `__metrics` (alive defaults to 0 = "not yet contacted").
    for (size_t i = 0; i < topology_.nodes.size(); ++i) {
      const std::string id = std::to_string(topology_.nodes[i].node_id);
      peers_[i]->m_alive = metrics_->GetGauge(
          std::string(metric_names::kNetHealthAlivePrefix) + id);
      peers_[i]->m_reconnects = metrics_->GetCounter(
          std::string(metric_names::kNetHealthReconnectsPrefix) + id);
      peers_[i]->m_failures = metrics_->GetCounter(
          std::string(metric_names::kNetHealthFailuresPrefix) + id);
    }
    // Likewise the per-type RPC counters of every known message type, so
    // `__metrics` carries the full set (zeros included) from the start —
    // the lint rpc-metrics rule keeps this list in sync with the enum.
    for (int t = 0; t < 256; ++t) {
      if (!IsKnownMsgType(static_cast<uint8_t>(t))) continue;
      // Registration only; Call() re-looks the handle up per RPC.
      (void)metrics_->GetCounter(
          std::string(metric_names::kNetClientRpcsPrefix) +
          MsgTypeToString(static_cast<MsgType>(t)));
    }
  }
}

ClusterClient::~ClusterClient() { Disconnect(); }

void ClusterClient::Disconnect() {
  for (auto& peer : peers_) {
    MutexLock lock(&peer->mu);
    CloseFd(peer->fd);
    peer->fd = -1;
  }
}

int32_t ClusterClient::OwnerOfPartition(int32_t partition) const {
  return kv::OwnerOfPartition(partition,
                              static_cast<int32_t>(topology_.nodes.size()),
                              topology_.partition_count);
}

Result<size_t> ClusterClient::IndexOfNode(int32_t node_id) const {
  for (size_t i = 0; i < topology_.nodes.size(); ++i) {
    if (topology_.nodes[i].node_id == node_id) return i;
  }
  return Status::NotFound("net: no node " + std::to_string(node_id) +
                          " in the cluster topology");
}

Status ClusterClient::TryCall(Peer* peer, const NodeAddress& address,
                              const Frame& request, MsgType expected_reply,
                              std::string* reply_body,
                              bool* transport_failed) {
  *transport_failed = true;
  const int64_t deadline =
      trace::NowNanos() + rpc_.deadline_ms * 1000 * 1000;
  MutexLock lock(&peer->mu);
  if (peer->fd < 0) {
    Result<int> fd = DialTcp(address.host, address.port, deadline);
    if (!fd.ok()) return fd.status();
    peer->fd = *fd;
    if (peer->ever_connected) {
      // Health registry: a successful dial after a lost connection.
      ++peer->reconnects;
      if (peer->m_reconnects != nullptr) peer->m_reconnects->Increment();
    }
    peer->ever_connected = true;
  }
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  Status s = SendFrame(peer->fd, request, deadline, &bytes_out);
  Result<Frame> reply = s.ok() ? RecvFrame(peer->fd, deadline, &bytes_in)
                               : Result<Frame>(s);
  if (m_bytes_out_ != nullptr && bytes_out > 0) {
    m_bytes_out_->Increment(bytes_out);
  }
  if (m_bytes_in_ != nullptr && bytes_in > 0) m_bytes_in_->Increment(bytes_in);
  {
    TypeStats& stats = peer->by_type[static_cast<uint8_t>(request.type)];
    stats.bytes_in += bytes_in;
    stats.bytes_out += bytes_out;
  }
  if (reply.ok()) {
    // Any decoded reply — kError included — proves the node is answering.
    peer->last_contact_micros = SteadyToUnixMicros(trace::NowNanos());
  }
  if (!reply.ok()) {
    // The connection is in an unknown state (half-written request, torn
    // reply) — drop it; a retry reconnects.
    CloseFd(peer->fd);
    peer->fd = -1;
    return reply.status();
  }
  if (reply->request_id != request.request_id) {
    CloseFd(peer->fd);
    peer->fd = -1;
    return Status::Internal("net: response id mismatch from node " +
                            std::to_string(address.node_id));
  }
  *transport_failed = false;
  if (reply->type == MsgType::kError) {
    Status app_error = Status::OK();
    SQ_RETURN_IF_ERROR(DecodeStatusBody(reply->body, &app_error));
    return app_error;
  }
  if (reply->type != expected_reply) {
    CloseFd(peer->fd);
    peer->fd = -1;
    return Status::Internal(
        std::string("net: unexpected reply type ") +
        MsgTypeToString(reply->type) + " (wanted " +
        MsgTypeToString(expected_reply) + ") from node " +
        std::to_string(address.node_id));
  }
  *reply_body = std::move(reply->body);
  return Status::OK();
}

Status ClusterClient::Call(int32_t node_id, MsgType type,
                           const std::string& body, MsgType expected_reply,
                           std::string* reply_body, trace::SpanContext parent,
                           bool idempotent) {
  SQ_ASSIGN_OR_RETURN(size_t index, IndexOfNode(node_id));
  const NodeAddress& address = topology_.nodes[index];
  Peer* peer = peers_[index].get();

  Frame request;
  request.type = type;
  request.trace_id = parent.trace_id;
  request.body = body;

  const int64_t t0 = trace::NowNanos();
  Status status = Status::OK();
  int32_t attempts = 0;
  bool transport_failed = false;
  for (;;) {
    ++attempts;
    request.request_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    transport_failed = false;
    status = TryCall(peer, address, request, expected_reply, reply_body,
                     &transport_failed);
    if (status.ok()) break;
    if (status.IsTimeout() && m_deadline_exceeded_ != nullptr) {
      m_deadline_exceeded_->Increment();
    }
    if (!transport_failed || !idempotent || attempts >= rpc_.max_attempts) {
      break;
    }
    if (m_retries_ != nullptr) m_retries_->Increment();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(rpc_.backoff_ms * attempts));
  }
  const int64_t t1 = trace::NowNanos();
  {
    // Health registry: liveness follows the *transport*, not the status — a
    // typed error reply means the node answered and is alive.
    MutexLock lock(&peer->mu);
    TypeStats& stats = peer->by_type[static_cast<uint8_t>(type)];
    ++stats.rpcs;
    if (stats.latency == nullptr) stats.latency = std::make_unique<Histogram>();
    stats.latency->Record(t1 - t0);
    const bool answered = status.ok() || !transport_failed;
    peer->alive = answered;
    if (peer->m_alive != nullptr) peer->m_alive->Set(answered ? 1 : 0);
    if (!status.ok()) {
      peer->last_error = status.ToString();
      if (!answered) {
        ++peer->failures;
        if (peer->m_failures != nullptr) peer->m_failures->Increment();
      }
    }
  }
  if (!status.ok()) {
    status = status.WithContext(std::string("rpc ") + MsgTypeToString(type) +
                                " to node " + std::to_string(node_id));
    if (m_errors_ != nullptr) m_errors_->Increment();
  }
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter(std::string(metric_names::kNetClientRpcsPrefix) +
                     MsgTypeToString(type))
        ->Increment();
    metrics_
        ->GetHistogram(std::string(metric_names::kNetClientRpcNanosPrefix) +
                       MsgTypeToString(type))
        ->Record(t1 - t0);
  }
  trace::RecordSpan(trace::Category::kNet, "rpc.call", parent, t0, t1,
                    {{"type", MsgTypeToString(type)},
                     {"node", node_id},
                     {"attempts", attempts},
                     {"ok", status.ok()}});
  return status;
}

Result<std::unique_ptr<sql::TableSource>> ClusterClient::OpenRemoteSource(
    const std::string& table, std::optional<int64_t> resolved_ssid,
    bool all_versions) {
  if (topology_.nodes.empty()) {
    return Status::FailedPrecondition("net: empty cluster topology");
  }
  TableRead read;
  read.table = table;
  if (resolved_ssid.has_value()) {
    read.has_ssid = true;
    read.ssid = *resolved_ssid;
  }
  read.all_versions = all_versions;
  return std::unique_ptr<sql::TableSource>(
      new ClusterTableSource(this, std::move(read)));
}

Result<int64_t> ClusterClient::ResolveSsid(std::optional<int64_t> requested) {
  if (topology_.nodes.empty()) {
    return Status::FailedPrecondition("net: empty cluster topology");
  }
  ResolveSsidRequest req;
  if (requested.has_value()) {
    req.has_requested = true;
    req.requested = *requested;
  }
  std::string body;
  EncodeResolveSsidRequest(req, &body);
  // Any node can answer (the committed id is published cluster-wide at
  // phase 2); walk the topology so a single dead node cannot block
  // resolution.
  Status last = Status::OK();
  for (const NodeAddress& node : topology_.nodes) {
    std::string reply_body;
    last = Call(node.node_id, MsgType::kResolveSsid, body,
                MsgType::kResolveSsidReply, &reply_body,
                trace::CurrentContext(), /*idempotent=*/true);
    if (last.ok()) {
      SQ_ASSIGN_OR_RETURN(ResolveSsidReply reply,
                          DecodeResolveSsidReply(reply_body));
      return reply.ssid;
    }
    if (!last.IsUnavailable() && !last.IsTimeout()) break;
  }
  return last;
}

Result<query::RemoteSystemTable> ClusterClient::FetchSystemTable(
    const std::string& table, int32_t node_id) {
  FetchSystemTableRequest req;
  req.table = table;
  std::string body;
  EncodeFetchSystemTableRequest(req, &body);
  trace::ScopedSpan span(trace::Category::kNet, "rpc.fetch_system_table",
                         trace::CurrentContext());
  span.AddAttr("table", table);
  span.AddAttr("node", node_id);
  std::string reply_body;
  const int64_t t0_wall = SteadyToUnixMicros(trace::NowNanos());
  SQ_RETURN_IF_ERROR(Call(node_id, MsgType::kFetchSystemTable, body,
                          MsgType::kSystemTableReply, &reply_body,
                          span.context(), /*idempotent=*/true));
  const int64_t t1_wall = SteadyToUnixMicros(trace::NowNanos());
  SQ_ASSIGN_OR_RETURN(SystemTableReply reply,
                      DecodeSystemTableReply(reply_body));
  query::RemoteSystemTable out;
  out.rows = std::move(reply.rows);
  out.histograms.reserve(reply.histograms.size());
  for (WireHistogram& h : reply.histograms) {
    Histogram::State state;
    state.buckets = std::move(h.buckets);
    state.count = h.count;
    state.min = h.min;
    state.max = h.max;
    state.sum = h.sum;
    out.histograms.emplace_back(std::move(h.name), std::move(state));
  }
  // RPC-midpoint clock alignment (DESIGN.md §11): assume the server stamped
  // its reply halfway through the round trip, so the stamp minus our own
  // midpoint is the server's wall-clock skew. The error is bounded by half
  // the RTT — far below the millisecond-scale drift it corrects.
  const int64_t skew = reply.server_unix_micros - (t0_wall + t1_wall) / 2;
  span.AddAttr("clock_offset_micros", skew);
  out.clock_offset_micros = -skew;
  if (Result<size_t> index = IndexOfNode(node_id); index.ok()) {
    Peer* peer = peers_[*index].get();
    MutexLock lock(&peer->mu);
    peer->clock_offset_micros = out.clock_offset_micros;
    peer->has_clock_offset = true;
  }
  return out;
}

std::vector<int32_t> ClusterClient::RemoteNodeIds() {
  std::vector<int32_t> ids;
  ids.reserve(topology_.nodes.size());
  for (const NodeAddress& node : topology_.nodes) {
    ids.push_back(node.node_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<kv::Object> ClusterClient::NodeHealthRows() {
  std::vector<kv::Object> rows;
  for (size_t i = 0; i < topology_.nodes.size(); ++i) {
    const NodeAddress& address = topology_.nodes[i];
    Peer* peer = peers_[i].get();
    const kv::PartitionRange owned = kv::PartitionRangeOf(
        static_cast<int32_t>(i), static_cast<int32_t>(topology_.nodes.size()),
        topology_.partition_count);

    // Snapshot the health state under the peer mutex, then build rows
    // outside it (Summarize takes the histogram's own lock; the rank order
    // kNetClient < kHistogram would allow it inline, but there is no need
    // to hold up RPCs for row formatting).
    bool ever_connected;
    bool alive;
    int64_t last_contact_micros;
    int64_t reconnects;
    int64_t failures;
    std::string last_error;
    bool has_clock_offset;
    int64_t clock_offset_micros;
    struct TypeRow {
      uint8_t type;
      int64_t rpcs;
      int64_t bytes_in;
      int64_t bytes_out;
      Histogram::Summary latency;
    };
    std::vector<TypeRow> type_rows;
    {
      MutexLock lock(&peer->mu);
      ever_connected = peer->ever_connected;
      alive = peer->alive;
      last_contact_micros = peer->last_contact_micros;
      reconnects = peer->reconnects;
      failures = peer->failures;
      last_error = peer->last_error;
      has_clock_offset = peer->has_clock_offset;
      clock_offset_micros = peer->clock_offset_micros;
      for (const auto& [type, stats] : peer->by_type) {
        TypeRow tr;
        tr.type = type;
        tr.rpcs = stats.rpcs;
        tr.bytes_in = stats.bytes_in;
        tr.bytes_out = stats.bytes_out;
        if (stats.latency != nullptr) tr.latency = stats.latency->Summarize();
        type_rows.push_back(std::move(tr));
      }
    }

    int64_t total_rpcs = 0;
    int64_t total_bytes_in = 0;
    int64_t total_bytes_out = 0;
    for (const TypeRow& tr : type_rows) {
      total_rpcs += tr.rpcs;
      total_bytes_in += tr.bytes_in;
      total_bytes_out += tr.bytes_out;
    }

    const int64_t node = address.node_id;
    const std::string node_key = std::to_string(node);
    kv::Object row;
    row.Set("key", kv::Value(node_key));
    row.Set("partitionKey", kv::Value(node_key));
    row.Set("node", kv::Value(node));
    row.Set("msg_type", kv::Value(""));  // summary row; per-type rows follow
    row.Set("host", kv::Value(address.host));
    row.Set("port", kv::Value(static_cast<int64_t>(address.port)));
    row.Set("partition_begin", kv::Value(static_cast<int64_t>(owned.begin)));
    row.Set("partition_end", kv::Value(static_cast<int64_t>(owned.end)));
    // `status` says why a federated scan may be partial: "ok" answers RPCs,
    // "unreachable" failed its last transport attempt, "unknown" has never
    // been contacted.
    row.Set("status", kv::Value(alive ? "ok"
                                : ever_connected ? "unreachable"
                                                 : "unknown"));
    row.Set("alive", kv::Value(alive));
    row.Set("last_contact_micros", kv::Value(last_contact_micros));
    row.Set("reconnects", kv::Value(reconnects));
    row.Set("failures", kv::Value(failures));
    row.Set("rpcs", kv::Value(total_rpcs));
    row.Set("bytes_in", kv::Value(total_bytes_in));
    row.Set("bytes_out", kv::Value(total_bytes_out));
    if (has_clock_offset) {
      row.Set("clock_offset_micros", kv::Value(clock_offset_micros));
    }
    row.Set("last_error", kv::Value(std::move(last_error)));
    rows.push_back(std::move(row));

    for (const TypeRow& tr : type_rows) {
      const char* type_name = MsgTypeToString(static_cast<MsgType>(tr.type));
      kv::Object trow;
      const std::string key = node_key + "/" + type_name;
      trow.Set("key", kv::Value(key));
      trow.Set("partitionKey", kv::Value(key));
      trow.Set("node", kv::Value(node));
      trow.Set("msg_type", kv::Value(type_name));
      trow.Set("status", kv::Value(alive ? "ok"
                                   : ever_connected ? "unreachable"
                                                    : "unknown"));
      trow.Set("alive", kv::Value(alive));
      trow.Set("rpcs", kv::Value(tr.rpcs));
      trow.Set("bytes_in", kv::Value(tr.bytes_in));
      trow.Set("bytes_out", kv::Value(tr.bytes_out));
      trow.Set("rpc_p50_nanos", kv::Value(tr.latency.p50));
      trow.Set("rpc_p99_nanos", kv::Value(tr.latency.p99));
      rows.push_back(std::move(trow));
    }
  }
  return rows;
}

Result<HelloReply> ClusterClient::Hello(int32_t node_id) {
  std::string reply_body;
  SQ_RETURN_IF_ERROR(Call(node_id, MsgType::kHello, std::string(),
                          MsgType::kHelloReply, &reply_body,
                          trace::CurrentContext(), /*idempotent=*/true));
  return DecodeHelloReply(reply_body);
}

Status ClusterClient::Apply(const std::string& table, int64_t ssid,
                            const std::vector<DeltaEntry>& entries) {
  std::map<int32_t, ReplicationDelta> by_node;
  for (const DeltaEntry& entry : entries) {
    const int32_t node =
        OwnerOfPartition(partitioner_.PartitionOf(entry.key));
    ReplicationDelta& delta = by_node[node];
    delta.table = table;
    delta.ssid = ssid;
    delta.entries.push_back(entry);
  }
  for (const auto& [node, delta] : by_node) {
    std::string body;
    EncodeReplicationDelta(delta, &body);
    std::string reply_body;
    SQ_RETURN_IF_ERROR(Call(node, MsgType::kReplicationDelta, body,
                            MsgType::kAck, &reply_body,
                            trace::CurrentContext(), /*idempotent=*/false));
  }
  return Status::OK();
}

Status ClusterClient::RunCheckpoint(int64_t checkpoint_id) {
  const auto broadcast = [this, checkpoint_id](CheckpointPhase phase,
                                               Status* first_error) {
    CheckpointMarker marker{phase, checkpoint_id};
    std::string body;
    EncodeCheckpointMarker(marker, &body);
    for (const NodeAddress& node : topology_.nodes) {
      std::string reply_body;
      Status s = Call(node.node_id, MsgType::kCheckpointMarker, body,
                      MsgType::kAck, &reply_body, trace::CurrentContext(),
                      /*idempotent=*/false);
      if (!s.ok() && first_error->ok()) *first_error = std::move(s);
    }
  };

  Status prepare_error = Status::OK();
  broadcast(CheckpointPhase::kPrepare, &prepare_error);
  if (!prepare_error.ok()) {
    Status ignored = Status::OK();
    broadcast(CheckpointPhase::kAbort, &ignored);
    (void)ignored;  // best-effort: abort is advisory on unreachable nodes
    return Status::Aborted(
        "checkpoint " + std::to_string(checkpoint_id) +
        " aborted: " + prepare_error.ToString());
  }
  Status commit_error = Status::OK();
  broadcast(CheckpointPhase::kCommit, &commit_error);
  return commit_error;
}

}  // namespace sq::net
