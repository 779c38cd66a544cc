// `cluster`: three forked NodeServer processes on localhost, each owning a
// kv::PartitionRangeOf slice of the 271-partition space, preloaded through
// ClusterClient::Apply and RunCheckpoint. One closed-loop client on the
// coordinator QueryService alternates a snapshot GROUP BY scan and a point
// lookup. The only workload whose results cross `net`: today a scan sends
// one RPC per partition, which net.rpcs_per_scan counts.
//
// Every result must equal a single-process QueryService over the same
// entries. The node processes are SIGKILLed and reaped on every exit path,
// and die with this process (PR_SET_PDEATHSIG) if it is killed first.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/metric_names.h"
#include "common/rng.h"
#include "kv/grid.h"
#include "kv/partitioner.h"
#include "net/cluster_client.h"
#include "net/node_server.h"
#include "query/query_service.h"
#include "state/snapshot_registry.h"

namespace sqb {
namespace {

namespace mn = sq::metric_names;

constexpr int32_t kNodes = 3;
constexpr int32_t kPartitions = sq::kv::kDefaultPartitionCount;
constexpr int64_t kKeys = 10000;
constexpr int kRegions = 8;
// A set-up takes ~20 ms, so more of them steady the median cheaply.
constexpr int kSetups = 9;
// The coordinator calls the nodes from the client thread alone. Workers of
// a parallel fan-out contend for the per-peer connections: on 4 cores that
// made a scan slower (31 against 19 ms) and spread more run to run.
constexpr int32_t kScanParallelism = 1;
// A fully traced scan journals ~550 spans (two per partition); tracing 60
// scan/lookup pairs spread evenly over the window keeps it near half of the
// 65536-span journal, however long the window and however fast the scans.
constexpr int64_t kTracedPairs = 60;

const char kScanSql[] =
    "SELECT region, COUNT(*) AS n, SUM(total) AS s FROM snapshot_orders "
    "GROUP BY region";

std::string LookupSql(int64_t key) {
  return "SELECT total, region FROM snapshot_orders WHERE key = " +
         std::to_string(key);
}

/// The preloaded entries, generated from the seed.
std::vector<sq::net::DeltaEntry> MakeEntries(uint64_t seed) {
  sq::Rng rng(DeriveSeed(seed, kClusterValueStream));
  std::vector<sq::net::DeltaEntry> entries;
  entries.reserve(kKeys);
  for (int64_t k = 0; k < kKeys; ++k) {
    sq::net::DeltaEntry& e = entries.emplace_back();
    e.key = sq::kv::Value(k);
    e.value.Set("total",
                sq::kv::Value(static_cast<int64_t>(rng.NextBounded(1000))));
    e.value.Set("region", sq::kv::Value("r" + std::to_string(
                                                 rng.NextBounded(kRegions))));
  }
  return entries;
}

/// Child body: one node serving its partition range until killed.
[[noreturn]] void RunNode(int32_t node_id, int port_fd) {
  (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
  // Server-side spans follow the caller's sampling: requests of unsampled
  // queries carry trace id 0 and record nothing.
  EnableTracing(1);
  sq::MetricsRegistry metrics;
  sq::kv::Grid grid(sq::kv::GridConfig{
      .node_count = 1, .partition_count = kPartitions, .backup_count = 0});
  sq::state::SnapshotRegistry registry(
      &grid, {.retained_versions = 2, .async_prune = false, .metrics = nullptr});
  sq::query::QueryService query(&grid, &registry);
  query.set_node_id(node_id);
  query.RegisterEngineIntrospection(/*job=*/nullptr, &metrics);
  sq::net::NodeServerOptions opts;
  opts.node_id = node_id;
  opts.owned = sq::kv::PartitionRangeOf(node_id, kNodes, kPartitions);
  opts.partition_count = kPartitions;
  opts.query = &query;
  opts.grid = &grid;
  opts.registry = &registry;
  opts.checkpoint = &registry;
  opts.metrics = &metrics;
  sq::net::NodeServer server(opts);
  if (!server.Start().ok()) _exit(2);
  const int32_t port = server.port();
  if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) _exit(3);
  ::close(port_fd);
  for (;;) ::pause();
}

/// Three node processes plus the coordinator that routes to them.
class Cluster {
 public:
  Cluster() = default;
  ~Cluster() {
    coordinator_.reset();
    client_.reset();
    for (pid_t pid : pids_) {
      (void)::kill(pid, SIGKILL);
      int status = 0;
      (void)::waitpid(pid, &status, 0);
    }
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::string Start() {
    sq::net::ClusterTopology topology;
    topology.partition_count = kPartitions;
    for (int32_t i = 0; i < kNodes; ++i) {
      int fds[2];
      if (::pipe(fds) != 0) return "pipe failed";
      std::fflush(nullptr);  // the child must not replay buffered output
      const pid_t pid = ::fork();
      if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return "fork failed";
      }
      if (pid == 0) {
        ::close(fds[0]);
        RunNode(i, fds[1]);
      }
      pids_.push_back(pid);
      ::close(fds[1]);
      int32_t port = 0;
      const ssize_t n = ::read(fds[0], &port, sizeof(port));
      ::close(fds[0]);
      if (n != sizeof(port)) {
        return "node " + std::to_string(i) + " died before reporting a port";
      }
      topology.nodes.push_back(sq::net::NodeAddress{i, "127.0.0.1", port});
    }
    client_ = std::make_unique<sq::net::ClusterClient>(
        topology, sq::net::RpcOptions{}, &metrics_);
    // The coordinator's own grid stays empty: with a router attached every
    // table read is answered by the nodes.
    coordinator_ = std::make_unique<sq::query::QueryService>(
        &grid_, &registry_, nullptr, &metrics_);
    coordinator_->AttachCluster(client_.get());
    return "";
  }

  std::string Load(const std::vector<sq::net::DeltaEntry>& entries) {
    sq::Status s = client_->Apply("snapshot_orders", 1, entries);
    if (s.ok()) s = client_->RunCheckpoint(1);
    return s.ok() ? "" : "cluster load: " + s.ToString();
  }

  sq::query::QueryService* coordinator() { return coordinator_.get(); }
  const sq::MetricsRegistry& metrics() const { return metrics_; }

  /// Bucket-wise sum over all nodes of one histogram, read through the
  /// federated `__metrics` fetch (raw bucket state, so windows subtract).
  sq::Histogram::State NodeHistogram(const std::string& name) {
    sq::Histogram::State total;
    for (int32_t i = 0; i < kNodes; ++i) {
      auto table = client_->FetchSystemTable("__metrics", i);
      if (!table.ok()) continue;
      for (const auto& [metric, state] : table->histograms) {
        if (metric != name) continue;
        if (total.buckets.size() < state.buckets.size()) {
          total.buckets.resize(state.buckets.size(), 0);
        }
        for (size_t b = 0; b < state.buckets.size(); ++b) {
          total.buckets[b] += state.buckets[b];
        }
        total.count += state.count;
        total.sum += state.sum;
      }
    }
    return total;
  }

 private:
  std::vector<pid_t> pids_;
  sq::MetricsRegistry metrics_;
  sq::kv::Grid grid_{sq::kv::GridConfig{
      .node_count = 1, .partition_count = kPartitions, .backup_count = 0}};
  sq::state::SnapshotRegistry registry_{
      &grid_, {.retained_versions = 2, .async_prune = false, .metrics = nullptr}};
  std::unique_ptr<sq::net::ClusterClient> client_;
  std::unique_ptr<sq::query::QueryService> coordinator_;
};

/// The single-process reference over the same entries. Every lookup answer
/// is computed up front, so checking one in the window costs nothing.
struct Reference {
  sq::kv::Grid grid{sq::kv::GridConfig{
      .node_count = 1, .partition_count = kPartitions, .backup_count = 0}};
  sq::state::SnapshotRegistry registry{
      &grid, {.retained_versions = 2, .async_prune = false, .metrics = nullptr}};
  sq::query::QueryService service{&grid, &registry};
  std::vector<sq::sql::ResultSet> lookups;
  std::string error;

  explicit Reference(const std::vector<sq::net::DeltaEntry>& entries) {
    sq::kv::SnapshotTable* table =
        grid.GetOrCreateSnapshotTable("snapshot_orders");
    for (const sq::net::DeltaEntry& e : entries) table->Write(1, e.key, e.value);
    registry.OnCheckpointCommitted(1);
    for (int64_t k = 0; k < kKeys && error.empty(); ++k) {
      auto r = service.Execute(LookupSql(k));
      if (r.ok()) {
        lookups.push_back(std::move(*r));
      } else {
        error = "reference lookup: " + r.status().ToString();
      }
    }
  }

  const sq::sql::ResultSet& Lookup(int64_t key) const {
    return lookups[static_cast<size_t>(key)];
  }
};

bool SameResult(const sq::sql::ResultSet& a, const sq::sql::ResultSet& b) {
  return a.columns == b.columns && a.rows == b.rows;
}

void Window(Cluster* cluster, Reference* reference, const Args& args,
            uint64_t window_index, Report* report) {
  sq::query::QueryService* coordinator = cluster->coordinator();
  auto expected_scan = reference->service.Execute(kScanSql);
  if (!expected_scan.ok()) {
    report->Mismatch("reference scan: " + expected_scan.status().ToString());
    return;
  }
  sq::Rng rng(DeriveSeed(args.seed, kLookupStream) + window_index);

  const sq::Histogram::State serve_before =
      cluster->NodeHistogram(mn::kNetServerHandleNanos);
  const MetricsSnapshot before = MetricsSnapshot::Take(cluster->metrics());
  Samples scan;
  Samples lookup;
  // The scan p90 of each second: their median is what a burst of host
  // noise lasting a few seconds cannot move, unlike the pooled p90.
  Samples second_scan;
  Samples scan_p90_per_second;
  SqlCounts sql;
  int64_t attempted = 0;
  int64_t failed = 0;
  const int64_t t0 = NowNanos();
  const int64_t deadline = t0 + static_cast<int64_t>(args.seconds * 1e9);
  int64_t second_start = t0;
  const bool traced = sq::trace::GetConfig().enabled;
  const int64_t traced_pair_interval = (deadline - t0) / kTracedPairs;
  int64_t next_traced_pair = t0;
  sq::query::QueryOptions options;
  options.parallelism = kScanParallelism;
  for (int64_t i = 0; NowNanos() < deadline && report->correct; ++i) {
    const bool is_scan = i % 2 == 0;
    if (traced && is_scan) {
      // The client picks the traced pairs itself: the engine's root
      // sampling counts every root candidate a query opens, and its period
      // aliases with the fixed number a scan and a lookup open.
      if (NowNanos() >= next_traced_pair) {
        next_traced_pair += traced_pair_interval;
        EnableTracing(1);
      } else {
        DisableTracing();
      }
    }
    const int64_t key = static_cast<int64_t>(rng.NextBounded(kKeys));
    const std::string text = is_scan ? kScanSql : LookupSql(key);
    const int64_t q0 = NowNanos();
    auto r = coordinator->ExecuteWithStats(text, options);
    const int64_t q1 = NowNanos();
    RecordBenchSpan(is_scan ? kBenchQuery : kBenchLookup, q0, q1,
                    r.ok() ? r->trace_id : 0);
    ++attempted;
    if (!r.ok()) {
      ++failed;
      continue;
    }
    (is_scan ? scan : lookup).Add(static_cast<double>(q1 - q0));
    if (is_scan) second_scan.Add(static_cast<double>(q1 - q0));
    if (q1 - second_start >= 1'000'000'000) {
      scan_p90_per_second.Add(second_scan.Percentile(90));
      second_scan = Samples{};
      second_start = q1;
    }
    sql.queries += 1;
    sql.rows_scanned += r->stats.rows_scanned;
    sql.rows_returned += r->stats.rows_returned;
    sql.batch_rows += r->stats.batch_rows;
    sql.vectorized += r->stats.used_vectorized ? 1 : 0;
    if (is_scan) {
      if (!SameResult(r->result, *expected_scan)) {
        report->Mismatch("cluster scan differs from the single process");
      }
    } else if (!SameResult(r->result, reference->Lookup(key))) {
      report->Mismatch("cluster lookup differs from the single process: " +
                       text);
    }
  }
  const double elapsed = static_cast<double>(NowNanos() - t0) / 1e9;
  const MetricsSnapshot after = MetricsSnapshot::Take(cluster->metrics());
  const sq::Histogram::State serve = HistDelta(
      cluster->NodeHistogram(mn::kNetServerHandleNanos), serve_before);

  report->SetLatency("scan_query", scan, 99, "ms");
  // A window shorter than a second has no complete second: pool it.
  const double scan_p90 = scan_p90_per_second.count() > 0
                              ? scan_p90_per_second.Percentile(50)
                              : scan.Percentile(90);
  report->Set("scan_query_p90_ms", scan_p90 / 1e6, "ms", scan.count());
  report->SetLatency("lookup", lookup, 99, "us");
  report->Set("query_qps", static_cast<double>(attempted - failed) / elapsed,
              "queries/s", attempted - failed);
  report->attempted += attempted;
  report->failed += failed;
  FoldSqlCounts(sql, report);

  auto& l = report->layers;
  const double queries = static_cast<double>(std::max<int64_t>(1, attempted));
  l["net.rpcs_per_query"] =
      static_cast<double>(after.PrefixDelta(before, mn::kNetClientRpcsPrefix)) /
      queries;
  l["net.bytes_per_query"] =
      static_cast<double>(after.Delta(before, mn::kNetClientBytesIn) +
                          after.Delta(before, mn::kNetClientBytesOut)) /
      queries;
  const sq::Histogram::State call =
      after.PrefixHist(before, mn::kNetClientRpcNanosPrefix);
  l["net.rpc_call_us_p50"] = HistPercentile(call, 50) / 1e3;
  l["net.rpc_call_us_p99"] = HistPercentile(call, 99) / 1e3;
  l["net.server_handle_us_p50"] = HistPercentile(serve, 50) / 1e3;
  l["net.server_handle_us_p99"] = HistPercentile(serve, 99) / 1e3;
  l["net.wire_us"] = (HistMean(call) - HistMean(serve)) / 1e3;
  l["net.retries"] =
      static_cast<double>(after.Delta(before, mn::kNetClientRetries));
  l["net.errors"] = static_cast<double>(
      after.Delta(before, mn::kNetClientErrors) +
      after.Delta(before, mn::kNetClientDeadlineExceeded));
}

}  // namespace

Report RunCluster(const Args& args) {
  Report report;
  const std::vector<sq::net::DeltaEntry> entries = MakeEntries(args.seed);
  std::unique_ptr<Cluster> cluster;
  MedianSetupSeconds(
      kSetups,
      [&]() -> std::string {
        cluster.reset();  // kills and reaps the previous set-up's nodes
        cluster = std::make_unique<Cluster>();
        std::string error = cluster->Start();
        return error.empty() ? cluster->Load(entries) : error;
      },
      &report);
  if (!report.correct) return report;

  Reference reference(entries);
  if (!reference.error.empty()) {
    report.Mismatch(reference.error);
    return report;
  }
  uint64_t window_index = 0;
  RunWindows(args, "query_qps", /*higher_is_better=*/true,
             /*query_every=*/1,
             [&](Report* r) {
               Window(cluster.get(), &reference, args, window_index++, r);
             },
             &report);
  cluster.reset();
  return report;
}

}  // namespace sqb
