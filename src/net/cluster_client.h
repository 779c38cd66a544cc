#ifndef SQUERY_NET_CLUSTER_CLIENT_H_
#define SQUERY_NET_CLUSTER_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "kv/partitioner.h"
#include "net/wire.h"
#include "query/query_service.h"
#include "trace/trace.h"

namespace sq::net {

struct NodeAddress {
  int32_t node_id = 0;
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Static cluster membership. Nodes must be listed in node-id order; node
/// `i` of `n` owns `kv::PartitionRangeOf(i, n, partition_count)` — the same
/// contiguous-range assignment the node servers are started with.
struct ClusterTopology {
  int32_t partition_count = kv::kDefaultPartitionCount;
  std::vector<NodeAddress> nodes;
};

struct RpcOptions {
  /// Per-attempt deadline. A node that accepts but never answers costs at
  /// most this long per attempt — a slow or dead node yields a typed error,
  /// never a hang.
  int64_t deadline_ms = 2000;
  /// Attempts for idempotent (read) RPCs; mutations get exactly one.
  int32_t max_attempts = 3;
  /// Base backoff between retries (multiplied by the attempt number).
  int64_t backoff_ms = 25;
};

/// TCP client side of the cluster: one cached connection per peer (guarded
/// per peer, so distinct nodes can be called in parallel), request-id
/// matching, bounded retry with backoff for idempotent reads, a scatter that
/// sends several nodes their requests at once, and the
/// `query::ClusterRouter` implementation that plugs distributed routing into
/// a coordinator QueryService.
class ClusterClient : public query::ClusterRouter {
 public:
  explicit ClusterClient(ClusterTopology topology, RpcOptions rpc = {},
                         MetricsRegistry* metrics = nullptr);
  ~ClusterClient() override;

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  // query::ClusterRouter:
  Result<std::unique_ptr<sql::TableSource>> OpenRemoteSource(
      const std::string& table, query::RemoteVersion version,
      int64_t ssid) override;
  /// One node's local rows of a virtual system table, plus (for
  /// `__metrics`) raw histogram state and the RPC-midpoint clock-offset
  /// estimate. Bounded by the per-attempt RPC deadline; a dead node is a
  /// typed error the coordinator degrades on, never a hang.
  Result<query::RemoteSystemTable> FetchSystemTable(const std::string& table,
                                                    int32_t node_id) override;
  std::vector<int32_t> RemoteNodeIds() override;
  std::vector<kv::Object> NodeHealthRows() override;

  /// Handshake with one node: identity and owned partition range.
  Result<HelloReply> Hello(int32_t node_id);

  /// Resolves `requested` (nullopt = latest committed) against the cluster:
  /// the first node that answers decides. Its RPCs parent on `parent`.
  Result<int64_t> ResolveSsid(
      std::optional<int64_t> requested,
      trace::SpanContext parent = trace::CurrentContext());

  /// Routes `entries` to their owning nodes as replication deltas (`ssid` 0
  /// = live table; table names are grid names, e.g. "orders" /
  /// "snapshot_orders"). The primary→backup replication path, and how
  /// harnesses load a cluster.
  Status Apply(const std::string& table, int64_t ssid,
               const std::vector<DeltaEntry>& entries);

  /// Two-phase checkpoint-marker exchange: prepare on every node, then
  /// commit; any prepare failure broadcasts an abort and returns kAborted.
  /// Markers are not idempotent, so each send gets exactly one attempt.
  Status RunCheckpoint(int64_t checkpoint_id);

  /// Closes every cached connection (next RPC reconnects).
  void Disconnect();

  const ClusterTopology& topology() const { return topology_; }
  const kv::Partitioner& partitioner() const { return partitioner_; }

  /// Node owning `partition` under the contiguous-range assignment.
  int32_t OwnerOfPartition(int32_t partition) const;

  /// One RPC to `node_id`: send `type`+`body`, await `expected_reply`.
  /// kError replies decode to their typed Status (never retried); transport
  /// failures retry with backoff when `idempotent`. `parent` propagates the
  /// caller's trace (its trace_id rides the frame).
  Status Call(int32_t node_id, MsgType type, const std::string& body,
              MsgType expected_reply, std::string* reply_body,
              trace::SpanContext parent, bool idempotent);

  /// One node's part of a Scatter: the request body in, the reply body and
  /// the RPC's outcome out.
  struct ScatterCall {
    int32_t node_id = 0;
    std::string body;
    std::string reply_body;
    Status status;
  };

  /// Sends every call's request before it reads any reply, so the nodes
  /// serve them at once, from this thread alone: the peers stay locked,
  /// taken in ascending node order, for the whole exchange. `calls` must be
  /// in ascending node order, one per node. A call that fails in transit
  /// (dial, send, receive, deadline) then goes through the ordinary
  /// retrying Call; a kError reply is a typed answer and is not retried.
  /// Each call is recorded like a Call: stats, health, metrics, span.
  void Scatter(MsgType type, MsgType expected_reply,
               std::vector<ScatterCall>* calls, trace::SpanContext parent);

 private:
  /// Per-message-type RPC stats of one peer. Latency is a real Histogram so
  /// `__nodes` percentiles come from raw buckets, exactly like `__metrics`
  /// (recording under the peer mutex is rank-safe: kNetClient < kHistogram).
  struct TypeStats {
    int64_t rpcs = 0;
    int64_t bytes_in = 0;
    int64_t bytes_out = 0;
    std::unique_ptr<Histogram> latency;
  };

  struct Peer {
    Mutex mu{lockrank::kNetClient, "net.client.peer"};
    int fd SQ_GUARDED_BY(mu) = -1;

    // --- health registry (surfaced as the `__nodes` system table and the
    // net.health.* metrics) ---
    bool ever_connected SQ_GUARDED_BY(mu) = false;
    /// True while the node answers RPCs (a typed error reply still counts:
    /// the node is alive, the request was just bad). False after a
    /// transport-level failure, until the next successful contact.
    bool alive SQ_GUARDED_BY(mu) = false;
    int64_t last_contact_micros SQ_GUARDED_BY(mu) = 0;
    int64_t reconnects SQ_GUARDED_BY(mu) = 0;
    int64_t failures SQ_GUARDED_BY(mu) = 0;
    std::string last_error SQ_GUARDED_BY(mu);
    /// Latest RPC-midpoint clock-offset estimate (micros to add to the
    /// node's wall timestamps), refreshed by every FetchSystemTable.
    int64_t clock_offset_micros SQ_GUARDED_BY(mu) = 0;
    bool has_clock_offset SQ_GUARDED_BY(mu) = false;
    std::map<uint8_t, TypeStats> by_type SQ_GUARDED_BY(mu);

    // Cached per-node metric handles (null without a registry).
    // sq-lint: unguarded-ok(written once in the constructor, before sharing)
    Gauge* m_alive = nullptr;
    // sq-lint: unguarded-ok(written once in the constructor, before sharing)
    Counter* m_reconnects = nullptr;
    // sq-lint: unguarded-ok(written once in the constructor, before sharing)
    Counter* m_failures = nullptr;
  };

  /// A request frame with a fresh request id.
  Frame MakeRequest(MsgType type, const std::string& body,
                    trace::SpanContext parent);

  /// The two halves of one attempt over the peer's cached connection:
  /// SendRequest dials if needed and writes the request, ReceiveReply reads
  /// and checks its reply. `transport_failed` tells retryable connection
  /// and deadline failures from typed errors the server answered with.
  Status SendRequest(Peer* peer, const NodeAddress& address,
                     const Frame& request, int64_t deadline,
                     bool* transport_failed) SQ_REQUIRES(peer->mu);
  Status ReceiveReply(Peer* peer, const NodeAddress& address,
                      const Frame& request, MsgType expected_reply,
                      int64_t deadline, std::string* reply_body,
                      bool* transport_failed) SQ_REQUIRES(peer->mu);

  /// Records one finished RPC — per-type stats, health, metrics and its
  /// `rpc.call` span — and adds the RPC's context to a failed `*status`.
  void FinishCall(Peer* peer, int32_t node_id, MsgType type,
                  trace::SpanContext parent, int64_t t0, int64_t t1,
                  int32_t attempts, bool transport_failed, Status* status);

  Result<size_t> IndexOfNode(int32_t node_id) const;

  ClusterTopology topology_;
  RpcOptions rpc_;
  kv::Partitioner partitioner_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::atomic<uint64_t> next_request_id_{1};

  MetricsRegistry* metrics_;
  Counter* m_bytes_in_ = nullptr;
  Counter* m_bytes_out_ = nullptr;
  Counter* m_retries_ = nullptr;
  Counter* m_deadline_exceeded_ = nullptr;
  Counter* m_errors_ = nullptr;
};

}  // namespace sq::net

#endif  // SQUERY_NET_CLUSTER_CLIENT_H_
