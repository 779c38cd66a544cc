#ifndef SQUERY_NET_NODE_SERVER_H_
#define SQUERY_NET_NODE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dataflow/checkpoint.h"
#include "kv/grid.h"
#include "kv/partitioner.h"
#include "net/wire.h"
#include "query/query_service.h"
#include "state/snapshot_registry.h"

namespace sq::net {

struct NodeServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable via `port()` after Start.
  int port = 0;
  int32_t node_id = 0;
  /// Contiguous partition range this node owns (use kv::PartitionRangeOf).
  /// Reads for partitions outside the range are answered with a typed
  /// kOutOfRange error — a misrouted request must never silently read
  /// another node's share of the keyspace.
  kv::PartitionRange owned;
  /// Total cluster partition space (must match every peer and client).
  int32_t partition_count = kv::kDefaultPartitionCount;
  /// Serves point lookups and partition scans. Required.
  query::QueryService* query = nullptr;
  /// Target of replication deltas (live maps and snapshot tables). May be
  /// null on a read-only node; deltas then fail with kFailedPrecondition.
  kv::Grid* grid = nullptr;
  /// Resolves "latest" snapshot ids for remote clients. May be null.
  state::SnapshotRegistry* registry = nullptr;
  /// Driven by checkpoint-marker frames from the coordinator (chain the
  /// durable snapshot listener before the registry, exactly as in-process).
  /// May be null; markers are then acknowledged as no-ops.
  dataflow::CheckpointListener* checkpoint = nullptr;
  /// Sink for net.server.* metrics. May be null.
  MetricsRegistry* metrics = nullptr;
};

/// One cluster node: a TCP server answering the wire protocol against the
/// node's local state (live maps, snapshot tables, snapshot registry). One
/// thread per connection — peers hold few long-lived connections, so the
/// thread count stays near the cluster size.
class NodeServer {
 public:
  explicit NodeServer(NodeServerOptions options);
  ~NodeServer();

  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  /// Binds, listens and starts the accept thread. Fails if the address is
  /// unusable; safe to call once.
  Status Start();

  /// Shuts the listener and every open connection down and joins all
  /// threads. Idempotent.
  void Stop();

  /// The bound port (after Start; resolves ephemeral port requests).
  int port() const { return port_; }
  const NodeServerOptions& options() const { return options_; }

 private:
  void AcceptLoop();
  void Serve(int fd);
  /// Builds the reply for one request frame. Never fails: errors become
  /// kError frames carrying the typed Status (`*handled_ok` reports which).
  Frame Handle(const Frame& request, bool* handled_ok);
  Result<std::string> Dispatch(const Frame& request, MsgType* reply_type);

  Result<std::string> HandlePointLookup(std::string_view body);
  Result<std::string> HandleScanBatches(std::string_view body);
  Result<std::string> HandleReplicationDelta(std::string_view body);
  Result<std::string> HandleCheckpointMarker(std::string_view body);
  Result<std::string> HandleResolveSsid(std::string_view body);
  Result<std::string> HandleFetchSystemTable(std::string_view body);

  Status CheckOwned(int32_t partition) const;
  Result<std::unique_ptr<sql::TableSource>> OpenSource(const TableRead& read);

  // sq-lint: unguarded-ok(set in Start before the accept thread spawns)
  NodeServerOptions options_;
  // sq-lint: unguarded-ok(set in Start before the accept thread spawns)
  int listen_fd_ = -1;
  // sq-lint: unguarded-ok(set in Start before the accept thread spawns)
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  // sq-lint: unguarded-ok(started in Start, joined in Stop; never raced)
  std::thread accept_thread_;

  Mutex mu_{lockrank::kNetServer, "net.server"};
  std::vector<int> conn_fds_ SQ_GUARDED_BY(mu_);
  std::vector<std::thread> conn_threads_ SQ_GUARDED_BY(mu_);

  // Cached metric handles (null when options_.metrics is null).
  Counter* m_bytes_in_ = nullptr;
  Counter* m_bytes_out_ = nullptr;
  Counter* m_errors_ = nullptr;
  Counter* m_connections_ = nullptr;
  Histogram* m_handle_nanos_ = nullptr;
};

}  // namespace sq::net

#endif  // SQUERY_NET_NODE_SERVER_H_
