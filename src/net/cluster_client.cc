#include "net/cluster_client.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/metric_names.h"
#include "net/socket.h"

namespace sq::net {

// ---------------------------------------------------------------------------
// ClusterTableSource

namespace {

/// The client half of distributed routing: a TableSource whose partitions
/// live on remote nodes. A node answers a range read with the columnar
/// batches its own source yields, so the coordinator filters and folds
/// remote partitions with exactly the code it runs on local ones.
///
/// The first read of any partition fetches them all: one range request per
/// owning node, all sent before any reply is read (ClusterClient::Scatter),
/// so the nodes serve the scan at once. The decoded batches stay with the
/// source for its lifetime, and each partition's reader gets copies of
/// their shared pointers, so the executor's partition fan-out and merge
/// work as they do on a local table. Point lookups go out the same way, as
/// keyed range requests to the nodes that own the keys.
class ClusterTableSource : public sql::TableSource {
 public:
  ClusterTableSource(ClusterClient* client, TableRead read,
                     bool resolve_latest)
      : client_(client),
        read_(std::move(read)),
        resolve_latest_(resolve_latest),
        // Captured once on the coordinating thread (the source is opened
        // inside the query's span); RPCs from pool workers parent here so
        // the whole scatter joins the query's trace tree.
        ctx_(trace::CurrentContext()) {}

  int32_t partition_count() const override {
    return client_->topology().partition_count;
  }

  int32_t PartitionOfKey(const kv::Value& key) const override {
    return client_->partitioner().PartitionOf(key);
  }

  Result<std::vector<sql::PartitionLookup>> ScanKeys(
      const std::vector<kv::Value>& keys) const override {
    // A keyed range request per owning node, spanning the partitions its
    // keys hit, all sent at once like a scan's.
    const ClusterTopology& topology = client_->topology();
    std::map<int32_t, PendingRange> by_owner;
    for (const kv::Value& key : keys) {
      const int32_t partition = PartitionOfKey(key);
      const int32_t owner = client_->OwnerOfPartition(partition);
      auto [it, inserted] = by_owner.try_emplace(
          owner, PendingRange{topology.nodes[owner].node_id, partition,
                              partition + 1, {}});
      PendingRange& range = it->second;
      range.begin = std::min(range.begin, partition);
      range.end = std::max(range.end, partition + 1);
      range.keys.push_back(key);
    }
    std::vector<PendingRange> pending;
    pending.reserve(by_owner.size());
    for (auto& [owner, range] : by_owner) pending.push_back(std::move(range));
    std::vector<sql::PartitionLookup> found;
    SQ_RETURN_IF_ERROR(Fetch(
        std::move(pending),
        [&found](int32_t partition, std::vector<sql::ScanBatch> batches) {
          if (!batches.empty()) {
            found.push_back({partition, std::move(batches)});
          }
        }));
    // Pages of several rounds interleave their nodes' partitions.
    std::sort(found.begin(), found.end(),
              [](const sql::PartitionLookup& a, const sql::PartitionLookup& b) {
                return a.partition < b.partition;
              });
    return found;
  }

  std::unique_ptr<sql::BatchReader> OpenBatchReader(
      int32_t partition) const override {
    return std::make_unique<RemoteBatchReader>(this, partition);
  }

 private:
  /// Cursor over one remote partition. The fetch runs on the first
  /// NextBatch, so transport and decode errors come back through its Result.
  class RemoteBatchReader : public sql::BatchReader {
   public:
    RemoteBatchReader(const ClusterTableSource* source, int32_t partition)
        : source_(source), partition_(partition) {}

    Result<bool> NextBatch(sql::ScanBatch* out) override {
      if (batches_ == nullptr) {
        SQ_ASSIGN_OR_RETURN(batches_, source_->Batches(partition_));
      }
      if (next_ == batches_->size()) return false;
      *out = (*batches_)[next_++];
      return true;
    }

   private:
    const ClusterTableSource* source_;
    const int32_t partition_;
    const std::vector<sql::ScanBatch>* batches_ = nullptr;
    size_t next_ = 0;
  };

  /// The read to send to `nodes` nodes. An unpinned snapshot read served by
  /// one node lets that node resolve "latest"; one that spans several
  /// resolves it once first, so every node serves the same id.
  Result<TableRead> ReadFor(size_t nodes) const {
    TableRead read = read_;
    if (resolve_latest_ && nodes > 1) {
      SQ_ASSIGN_OR_RETURN(read.ssid,
                          client_->ResolveSsid(std::nullopt, ctx_));
      read.has_ssid = true;
    }
    return read;
  }

  /// The batches of `partition`, fetched with every other partition by the
  /// first caller; later callers wait for that fetch and share its outcome.
  Result<const std::vector<sql::ScanBatch>*> Batches(int32_t partition) const {
    std::call_once(fetch_once_, [this] { fetch_status_ = FetchAll(); });
    SQ_RETURN_IF_ERROR(fetch_status_);
    return &partitions_[partition];
  }

  /// One owning node's part of a read still to fetch: a range of its
  /// partitions, restricted to `keys` when they are given.
  struct PendingRange {
    int32_t node_id;
    int32_t begin;
    int32_t end;
    std::vector<kv::Value> keys;
  };

  /// Fetches every partition of the table into `partitions_`.
  Status FetchAll() const {
    const ClusterTopology& topology = client_->topology();
    const auto node_count = static_cast<int32_t>(topology.nodes.size());
    partitions_.resize(topology.partition_count);
    std::vector<PendingRange> pending;
    for (int32_t i = 0; i < node_count; ++i) {
      const kv::PartitionRange owned =
          kv::PartitionRangeOf(i, node_count, topology.partition_count);
      if (owned.begin < owned.end) {
        pending.push_back(
            {topology.nodes[i].node_id, owned.begin, owned.end, {}});
      }
    }
    return Fetch(std::move(pending),
                 [this](int32_t partition, std::vector<sql::ScanBatch> batches) {
                   partitions_[partition] = std::move(batches);
                 });
  }

  /// Sends every pending range at once, hands each partition of the pages
  /// to `file(partition, batches)`, then asks again from `next_partition`
  /// for each node that answered with a partial page.
  template <typename File>
  Status Fetch(std::vector<PendingRange> pending, const File& file) const {
    SQ_ASSIGN_OR_RETURN(const TableRead read, ReadFor(pending.size()));
    while (!pending.empty()) {
      std::vector<ClusterClient::ScatterCall> calls(pending.size());
      for (size_t i = 0; i < pending.size(); ++i) {
        calls[i].node_id = pending[i].node_id;
        EncodeScanRangeRequest(ScanRangeRequest{read, pending[i].begin,
                                                pending[i].end,
                                                pending[i].keys},
                               &calls[i].body);
      }
      client_->Scatter(MsgType::kScanRange, MsgType::kRangeBatches, &calls,
                       ctx_);
      std::vector<PendingRange> unfinished;
      for (size_t i = 0; i < pending.size(); ++i) {
        SQ_RETURN_IF_ERROR(calls[i].status);
        SQ_ASSIGN_OR_RETURN(ScanRangeReply page,
                            DecodeScanRangeReply(calls[i].reply_body));
        SQ_RETURN_IF_ERROR(Store(pending[i], &page, file));
        if (page.next_partition < pending[i].end) {
          pending[i].begin = page.next_partition;
          unfinished.push_back(std::move(pending[i]));
        }
      }
      pending = std::move(unfinished);
    }
    return Status::OK();
  }

  /// Hands one page's partitions to `file(partition, batches)`. A page must
  /// cover consecutive partitions from the range's start and make progress.
  template <typename File>
  static Status Store(const PendingRange& range, ScanRangeReply* page,
                      const File& file) {
    const auto served = static_cast<int32_t>(page->partitions.size());
    bool consecutive = served > 0 && page->next_partition <= range.end &&
                       page->next_partition - range.begin == served;
    for (int32_t k = 0; consecutive && k < served; ++k) {
      consecutive = page->partitions[k].partition == range.begin + k;
    }
    if (!consecutive) {
      return Status::Internal("net: node " + std::to_string(range.node_id) +
                              " answered partitions [" +
                              std::to_string(range.begin) + ", " +
                              std::to_string(range.end) +
                              ") with a page that does not follow them");
    }
    for (PartitionBatches& partition : page->partitions) {
      std::vector<sql::ScanBatch> batches;
      batches.reserve(partition.batches.size());
      for (WireBatch& batch : partition.batches) {
        std::optional<kv::Value> ssid;
        if (batch.has_ssid) ssid = kv::Value(batch.ssid);
        batches.push_back(
            sql::ScanBatch{std::move(batch.rows), std::move(ssid)});
      }
      file(partition.partition, std::move(batches));
    }
    return Status::OK();
  }

  ClusterClient* client_;
  const TableRead read_;
  const bool resolve_latest_;
  trace::SpanContext ctx_;

  // Written once, inside the call_once, and read-only after it.
  mutable std::once_flag fetch_once_;
  mutable Status fetch_status_;
  mutable std::vector<std::vector<sql::ScanBatch>> partitions_;
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

Frame ClusterClient::MakeRequest(MsgType type, const std::string& body,
                                 trace::SpanContext parent) {
  Frame request;
  request.type = type;
  request.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  request.trace_id = parent.trace_id;
  request.body = body;
  return request;
}

Status ClusterClient::SendRequest(Peer* peer, const NodeAddress& address,
                                  const Frame& request, int64_t deadline,
                                  bool* transport_failed) {
  *transport_failed = true;
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
  int64_t bytes_out = 0;
  const Status s = SendFrame(peer->fd, request, deadline, &bytes_out);
  if (m_bytes_out_ != nullptr && bytes_out > 0) {
    m_bytes_out_->Increment(bytes_out);
  }
  peer->by_type[static_cast<uint8_t>(request.type)].bytes_out += bytes_out;
  if (s.IsInvalidArgument()) {
    // Refused before a byte was written (an oversized frame): the connection
    // is intact, and a retry would be refused the same way.
    *transport_failed = false;
  } else if (!s.ok()) {
    // A half-written request leaves the connection unusable; a retry
    // reconnects.
    CloseFd(peer->fd);
    peer->fd = -1;
  }
  return s;
}

Status ClusterClient::ReceiveReply(Peer* peer, const NodeAddress& address,
                                   const Frame& request,
                                   MsgType expected_reply, int64_t deadline,
                                   std::string* reply_body,
                                   bool* transport_failed) {
  *transport_failed = true;
  int64_t bytes_in = 0;
  Result<Frame> reply = RecvFrame(peer->fd, deadline, &bytes_in);
  if (m_bytes_in_ != nullptr && bytes_in > 0) m_bytes_in_->Increment(bytes_in);
  peer->by_type[static_cast<uint8_t>(request.type)].bytes_in += bytes_in;
  if (!reply.ok()) {
    // The connection is in an unknown state (a torn reply): drop it; a
    // retry reconnects.
    CloseFd(peer->fd);
    peer->fd = -1;
    return reply.status();
  }
  // Any decoded reply — kError included — proves the node is answering.
  peer->last_contact_micros = SteadyToUnixMicros(trace::NowNanos());
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

void ClusterClient::FinishCall(Peer* peer, int32_t node_id, MsgType type,
                               trace::SpanContext parent, int64_t t0,
                               int64_t t1, int32_t attempts,
                               bool transport_failed, Status* status) {
  {
    // Health registry: liveness follows the *transport*, not the status — a
    // typed error reply means the node answered and is alive.
    MutexLock lock(&peer->mu);
    TypeStats& stats = peer->by_type[static_cast<uint8_t>(type)];
    ++stats.rpcs;
    if (stats.latency == nullptr) stats.latency = std::make_unique<Histogram>();
    stats.latency->Record(t1 - t0);
    const bool answered = status->ok() || !transport_failed;
    peer->alive = answered;
    if (peer->m_alive != nullptr) peer->m_alive->Set(answered ? 1 : 0);
    if (!status->ok()) {
      peer->last_error = status->ToString();
      if (!answered) {
        ++peer->failures;
        if (peer->m_failures != nullptr) peer->m_failures->Increment();
      }
    }
  }
  if (!status->ok()) {
    *status = status->WithContext(std::string("rpc ") + MsgTypeToString(type) +
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
                     {"ok", status->ok()}});
}

Status ClusterClient::Call(int32_t node_id, MsgType type,
                           const std::string& body, MsgType expected_reply,
                           std::string* reply_body, trace::SpanContext parent,
                           bool idempotent) {
  SQ_ASSIGN_OR_RETURN(size_t index, IndexOfNode(node_id));
  const NodeAddress& address = topology_.nodes[index];
  Peer* peer = peers_[index].get();

  const int64_t t0 = trace::NowNanos();
  Status status = Status::OK();
  int32_t attempts = 0;
  bool transport_failed = false;
  for (;;) {
    ++attempts;
    const Frame request = MakeRequest(type, body, parent);
    const int64_t deadline =
        trace::NowNanos() + rpc_.deadline_ms * 1000 * 1000;
    {
      MutexLock lock(&peer->mu);
      status = SendRequest(peer, address, request, deadline,
                           &transport_failed);
      if (status.ok()) {
        status = ReceiveReply(peer, address, request, expected_reply,
                              deadline, reply_body, &transport_failed);
      }
    }
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
  FinishCall(peer, node_id, type, parent, t0, trace::NowNanos(), attempts,
             transport_failed, &status);
  return status;
}

void ClusterClient::Scatter(MsgType type, MsgType expected_reply,
                            std::vector<ScatterCall>* calls,
                            trace::SpanContext parent) {
  struct Step {
    Peer* peer = nullptr;
    const NodeAddress* address = nullptr;
    Frame request;
    bool sent = false;
    bool transport_failed = false;
    int64_t t1 = 0;
  };
  std::vector<Step> steps(calls->size());
  const int64_t t0 = trace::NowNanos();
  const int64_t deadline = t0 + rpc_.deadline_ms * 1000 * 1000;
  {
    // Every peer stays locked for the whole exchange, taken in ascending
    // node order so two concurrent scatters cannot deadlock.
    std::vector<std::unique_ptr<MutexLock>> locks;
    locks.reserve(calls->size());
    size_t last_index = 0;
    for (size_t i = 0; i < calls->size(); ++i) {
      ScatterCall& call = (*calls)[i];
      Result<size_t> index = IndexOfNode(call.node_id);
      if (!index.ok()) {
        call.status = index.status();
        continue;
      }
      SQ_CHECK(locks.empty() || *index > last_index)
          << "Scatter calls must be in ascending node order";
      last_index = *index;
      Step& step = steps[i];
      step.peer = peers_[*index].get();
      step.address = &topology_.nodes[*index];
      step.request = MakeRequest(type, call.body, parent);
      locks.push_back(std::make_unique<MutexLock>(&step.peer->mu));
      step.peer->mu.AssertHeld();
      call.status = SendRequest(step.peer, *step.address, step.request,
                                deadline, &step.transport_failed);
      step.sent = call.status.ok();
    }
    for (size_t i = 0; i < calls->size(); ++i) {
      Step& step = steps[i];
      if (!step.sent) continue;
      ScatterCall& call = (*calls)[i];
      step.peer->mu.AssertHeld();  // locked by the loop above
      call.status = ReceiveReply(step.peer, *step.address, step.request,
                                 expected_reply, deadline, &call.reply_body,
                                 &step.transport_failed);
      step.t1 = trace::NowNanos();
    }
  }
  for (size_t i = 0; i < calls->size(); ++i) {
    Step& step = steps[i];
    if (step.peer == nullptr) continue;
    ScatterCall& call = (*calls)[i];
    if (!call.status.ok() && step.transport_failed) {
      // This node's part of the exchange failed in transit: the ordinary
      // retrying call takes it over.
      if (call.status.IsTimeout() && m_deadline_exceeded_ != nullptr) {
        m_deadline_exceeded_->Increment();
      }
      if (m_retries_ != nullptr) m_retries_->Increment();
      call.status = Call(call.node_id, type, call.body, expected_reply,
                         &call.reply_body, parent, /*idempotent=*/true);
      continue;
    }
    FinishCall(step.peer, call.node_id, type, parent, t0,
               step.sent ? step.t1 : trace::NowNanos(), /*attempts=*/1,
               step.transport_failed, &call.status);
  }
}

Result<std::unique_ptr<sql::TableSource>> ClusterClient::OpenRemoteSource(
    const std::string& table, query::RemoteVersion version, int64_t ssid) {
  if (topology_.nodes.empty()) {
    return Status::FailedPrecondition("net: empty cluster topology");
  }
  TableRead read;
  read.table = table;
  read.has_ssid = version == query::RemoteVersion::kPinned;
  read.ssid = read.has_ssid ? ssid : 0;
  read.all_versions = version == query::RemoteVersion::kAllVersions;
  return std::unique_ptr<sql::TableSource>(new ClusterTableSource(
      this, std::move(read), version == query::RemoteVersion::kLatest));
}

Result<int64_t> ClusterClient::ResolveSsid(std::optional<int64_t> requested,
                                           trace::SpanContext parent) {
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
                MsgType::kResolveSsidReply, &reply_body, parent,
                /*idempotent=*/true);
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
