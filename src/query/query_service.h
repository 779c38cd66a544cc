#ifndef SQUERY_QUERY_QUERY_SERVICE_H_
#define SQUERY_QUERY_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/metrics.h"
#include "common/result.h"
#include "kv/grid.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/result_set.h"
#include "state/isolation.h"
#include "state/snapshot_registry.h"

namespace sq::dataflow {
class Job;
}  // namespace sq::dataflow

namespace sq::storage {
class SnapshotLog;
}  // namespace sq::storage

namespace sq::query {

/// Per-query options.
struct QueryOptions {
  /// Requested isolation level. Snapshot/serializable queries may only touch
  /// `snapshot_*` tables; read-uncommitted/read-committed queries may touch
  /// live tables (and snapshot tables, which are always consistent).
  state::IsolationLevel isolation = state::IsolationLevel::kSerializable;
  /// Pins all snapshot scans to this version (time travel / auditing).
  /// Overridden by an explicit `ssid = n` WHERE conjunct; defaults to the
  /// latest committed snapshot.
  std::optional<int64_t> snapshot_id;
  /// Maximum concurrent workers (including the calling thread) per base-table
  /// scan: 0 = one per hardware thread, 1 = fully sequential on the calling
  /// thread, n = at most n. Workers come from a pool shared by all queries of
  /// this service.
  int32_t parallelism = 0;
  /// Evaluate the WHERE clause of join-free statements inside the scan (rows
  /// that fail are never copied) and route `key = <literal>` / IN-list
  /// restrictions to point lookups. Off = materialize-then-filter.
  bool pushdown = true;
  /// Evaluate this query's scanned batches with the row evaluator instead of
  /// the vectorized engine. Results are identical either way; this is an
  /// escape hatch for debugging and A/B measurement.
  bool force_row_scan = false;
};

/// One node's answer to a federated system-table fetch (the query-layer
/// view of a `system_table_reply` wire message — no net:: types leak here).
struct RemoteSystemTable {
  /// Fully materialized rows, already carrying their `node` column.
  std::vector<kv::Object> rows;
  /// `__metrics` fetches only: the raw bucket state of every histogram on
  /// the node, keyed by metric name. The coordinator recomputes percentile
  /// columns from these — bucket counts merge across processes, percentiles
  /// never do (a p99 of p99s is not a p99).
  std::vector<std::pair<std::string, Histogram::State>> histograms;
  /// Estimated microseconds to ADD to the node's wall timestamps to land
  /// them on this process's timeline (RPC-midpoint method, DESIGN.md §11).
  int64_t clock_offset_micros = 0;
};

/// The version a remote table read serves.
enum class RemoteVersion {
  kLive,         ///< the live table
  kPinned,       ///< one snapshot id, sent as is; each node validates it
  kLatest,       ///< the latest committed snapshot (see OpenRemoteSource)
  kAllVersions,  ///< every retained version: the `__versions` view
};

/// Distributed-routing hook, implemented by the cluster layer (`sq::net`).
/// QueryService stays network-agnostic: when a router is attached it asks
/// the router for partition-addressable sources over grid tables, which
/// scatter scans and lookups to the owning nodes and resolve snapshot ids
/// there when the local registry cannot.
class ClusterRouter {
 public:
  virtual ~ClusterRouter() = default;

  /// Opens a remote source for `table` at `version`; `ssid` is the id of a
  /// kPinned read. A kLatest read that one node serves lets that node
  /// resolve the id; one that spans several nodes resolves it once,
  /// cluster-wide, before it scatters, so every node serves the same id.
  /// Opening sends no RPC.
  virtual Result<std::unique_ptr<sql::TableSource>> OpenRemoteSource(
      const std::string& table, RemoteVersion version, int64_t ssid) = 0;

  /// Fetches node `node_id`'s local rows of virtual table `table` within
  /// the router's RPC deadline. A dead or slow node is a typed error, never
  /// a hang — the caller degrades to a partial result.
  virtual Result<RemoteSystemTable> FetchSystemTable(const std::string& table,
                                                     int32_t node_id) = 0;

  /// Ids of the remote nodes this router can reach, ascending (the merge
  /// order of federated scans). Empty = nothing to federate.
  virtual std::vector<int32_t> RemoteNodeIds() = 0;

  /// The `__nodes` health registry: one summary row per known node plus one
  /// row per (node, message type) with RPC latency/byte stats.
  virtual std::vector<kv::Object> NodeHealthRows() = 0;
};

/// Everything one Execute call produced: the rows plus that query's own scan
/// instrumentation. Returned by value so concurrent queries cannot race on a
/// shared slot.
struct QueryResult {
  sql::ResultSet result;
  /// Scan instrumentation of exactly this query.
  sql::ExecStats stats;
  /// Trace id of this query's root span (join against `__spans.trace_id`),
  /// or 0 if the span was sampled out / tracing is disabled.
  uint64_t trace_id = 0;
};

/// The query subsystem of Fig. 1: the entry point external applications use
/// to query stream-processor state, via SQL or the direct object interface.
///
/// Table namespace:
///   `<operator>`                    live state (Table I)
///   `snapshot_<operator>`           committed snapshot view (Table II)
///   `snapshot_<operator>__versions` every retained version of every key,
///                                   with the `ssid` column telling versions
///                                   apart (Section VI-A, multi-version
///                                   result sets)
///   `__metrics`/`__operators`/`__checkpoints`
///                                   virtual system tables over the engine's
///                                   own internals (after
///                                   RegisterEngineIntrospection); with a
///                                   cluster attached, scans federate across
///                                   every reachable node (`__spans` too)
///   `__spans`                       the trace-span journal as rows
///   `__nodes`                       per-peer cluster health registry (empty
///                                   without an attached cluster)
class QueryService {
 public:
  QueryService(kv::Grid* grid, state::SnapshotRegistry* registry,
               Clock* clock = nullptr, MetricsRegistry* metrics = nullptr);

  /// Runs a SQL statement. The result's LOCALTIMESTAMP is bound once at
  /// query start. Besides plain SELECT, accepts:
  ///   `EXPLAIN SELECT ...`          the plan as rows (one `plan` column),
  ///                                 nothing executed;
  ///   `EXPLAIN ANALYZE SELECT ...`  executes the statement (trace recording
  ///                                 forced on for this query) and returns
  ///                                 the plan annotated with measured span
  ///                                 timings and scan counters.
  Result<sql::ResultSet> Execute(const std::string& sql,
                                 const QueryOptions& options = {});

  /// Execute() plus this query's own ExecStats and trace id, returned
  /// together so concurrent callers never read another query's numbers.
  Result<QueryResult> ExecuteWithStats(const std::string& sql,
                                       const QueryOptions& options = {});

  /// Direct object interface, live state: point lookups through key-level
  /// locks (read committed under no failures). Missing keys are skipped.
  Result<std::vector<std::pair<kv::Value, kv::Object>>> GetLiveObjects(
      const std::string& operator_name, const std::vector<kv::Value>& keys);

  /// Direct object interface, snapshot state at `ssid` (nullopt = latest).
  Result<std::vector<std::pair<kv::Value, kv::Object>>> GetSnapshotObjects(
      const std::string& operator_name, const std::vector<kv::Value>& keys,
      std::optional<int64_t> ssid = std::nullopt);

  /// Full live-state scan of one operator via the direct interface.
  Result<std::vector<std::pair<kv::Value, kv::Object>>> ScanLiveObjects(
      const std::string& operator_name);

  /// Registers the engine-introspection system tables in this service's
  /// catalog, backed by live engine structures:
  ///   `__metrics`      every metric in `metrics` (name, kind, value, count,
  ///                    mean, p50/p90/p99/p999, max)
  ///   `__operators`    per-worker stats of `job` (records in/out, queue
  ///                    depth/capacity, state entries, latency percentiles)
  ///   `__checkpoints`  the job's recent checkpoint attempts (id, state,
  ///                    phase timings)
  /// `metrics` defaults to the registry passed at construction; either
  /// argument may be null, skipping the tables it backs. Rows are computed
  /// at scan time, so every query sees current values.
  void RegisterEngineIntrospection(dataflow::Job* job,
                                   MetricsRegistry* metrics = nullptr);

  /// Direct object interface to system tables: the rows `SELECT * FROM
  /// <table>` would return, bypassing SQL (cheap programmatic monitoring).
  /// Always local-only — this is what node servers serve to federated
  /// fetches, so it must never fan out itself.
  Result<std::vector<kv::Object>> ScanSystemObjects(const std::string& table);

  /// Writes a merged multi-process Chrome/Perfetto trace: the local span
  /// journal plus every reachable node's `__spans` (fetched through the
  /// attached router), timestamps aligned per node via the RPC-midpoint
  /// clock offsets the router estimated. Unreachable nodes are skipped —
  /// the export degrades exactly like a federated scan. Without a router
  /// this is a single-process export of the local journal.
  Status ExportClusterTrace(const std::string& path);

  /// Attaches the durable snapshot log (not owned; may be null to detach).
  /// With a log attached:
  ///  * snapshot queries for an explicit id that fell out of the in-memory
  ///    retention window (or whose table the grid lost) fall through to the
  ///    log — time travel beyond `retained_versions`;
  ///  * `__checkpoints` gains durability columns (`durable`,
  ///    `persisted_bytes`, `segments`, `fsync_p99_nanos`).
  void AttachDurableStorage(storage::SnapshotLog* log) {
    durable_log_.store(log, std::memory_order_release);
  }

  /// Attaches a cluster router (not owned; null detaches). With a router
  /// attached, every non-virtual table read routes to the owning nodes —
  /// this service then acts as the cluster's query coordinator and its local
  /// grid is not consulted. Atomic for the same reason as the durable log:
  /// attach may race in-flight queries.
  void AttachCluster(ClusterRouter* router) {
    cluster_.store(router, std::memory_order_release);
  }

  /// Identity stamped onto `__metrics`/`__operators` rows (the `node`
  /// column), so system tables stay attributable when many nodes' tables
  /// are unioned cluster-wide. Defaults to 0 (single-process).
  void set_node_id(int32_t node_id) {
    node_id_.store(node_id, std::memory_order_release);
  }
  int32_t node_id() const { return node_id_.load(std::memory_order_acquire); }

  /// Opens `table` (any name of the table namespace above) for one scan:
  /// the one place that decides how a table is read. `requested_ssid` is an
  /// explicit version pin (it overrides `options.snapshot_id`). Returns a
  /// source or a typed error: NotFound for a missing table, InvalidArgument
  /// for a live table read at a snapshot isolation level, the registry's
  /// error for a version it cannot resolve and the durable log does not
  /// hold. Opening reads no rows (with a cluster attached it may resolve a
  /// snapshot id over RPC). Execute() reads through this; node servers call
  /// it to serve remote scans.
  Result<std::unique_ptr<sql::TableSource>> OpenTableSource(
      const std::string& table, std::optional<int64_t> requested_ssid,
      const QueryOptions& options);

  /// The virtual-table catalog (system tables; extensible by embedders).
  sql::Catalog* catalog() { return &catalog_; }

  /// Nanoseconds spent resolving the snapshot id in the most recent
  /// snapshot-table access ("snapshot ID retrieval time", Section IX-D).
  int64_t last_ssid_resolve_nanos() const {
    return last_resolve_nanos_.load();
  }

 private:
  Result<int64_t> ResolveSsid(std::optional<int64_t> requested,
                              const QueryOptions& options);

  /// Whether the durable log serves a snapshot read the in-memory grid
  /// cannot (`resolved` failed, or the grid lost snapshot table `table`):
  /// a source over the log's copy at the resolved id, else at
  /// `explicit_id`. Null when no log is attached or it does not hold that
  /// id durably.
  std::unique_ptr<sql::TableSource> OpenDurableSource(
      const std::string& table, const Result<int64_t>& resolved,
      std::optional<int64_t> explicit_id);

  /// Cluster routing: opens a remote source for `table` through `router`.
  /// The local registry resolves a snapshot id when it can; otherwise the
  /// read goes out unresolved (RemoteVersion), and opening sends no RPC.
  Result<std::unique_ptr<sql::TableSource>> OpenClusterSource(
      ClusterRouter* router, const std::string& table,
      std::optional<int64_t> requested_ssid, const QueryOptions& options);

  /// Appends every reachable node's rows of federated system table `table`
  /// to `rows` (remote `__metrics` percentile columns rebuilt from raw
  /// buckets). Unreachable nodes are skipped — partial results, visible in
  /// `__nodes` — never an error or a hang.
  void AppendFederatedRows(ClusterRouter* router, const std::string& table,
                           std::vector<kv::Object>* rows);

  /// The scan worker pool, created on first parallel query.
  ThreadPool* Pool();

  kv::Grid* grid_;
  state::SnapshotRegistry* registry_;
  Clock* clock_;
  MetricsRegistry* metrics_;
  sql::Catalog catalog_;
  // Atomic because AttachDurableStorage may race with in-flight queries
  // (readers take one acquire load per operation and use that pointer
  // throughout, so attach/detach mid-query is torn-free).
  std::atomic<storage::SnapshotLog*> durable_log_{nullptr};
  std::atomic<ClusterRouter*> cluster_{nullptr};
  std::atomic<int32_t> node_id_{0};
  std::atomic<int64_t> last_resolve_nanos_{0};

  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace sq::query

#endif  // SQUERY_QUERY_QUERY_SERVICE_H_
