// Micro-benchmarks (google-benchmark): per-operation costs of the
// substrates, used to calibrate the cluster simulator and as ablations for
// the design decisions listed in DESIGN.md §6 (colocation, key-level
// locking, incremental snapshots, SQL operator costs). A custom main adds
// three sections with their own output files:
//   * trace overhead (off / sampled / full), writing BENCH_trace.json and a
//     Perfetto-loadable sq_query.trace.json; SQ_BENCH_TRACE_ONLY=1 runs
//     just this section (the CI smoke run);
//   * scan throughput (row vs columnar engine, filtered vs unfiltered,
//     parallelism 1/8) in rows/sec, merged into BENCH_query.json;
//     SQ_BENCH_SCAN_ONLY=1 runs just this section;
//   * federated-scan overhead (system-table scan with vs without a cluster
//     attached), writing BENCH_federation.json; SQ_BENCH_FED_ONLY=1 runs
//     just this section (CI gates the overhead at < 5%).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/queue.h"
#include "common/rng.h"
#include "kv/grid.h"
#include "kv/map_store.h"
#include "kv/snapshot_table.h"
#include "net/cluster_client.h"
#include "query/query_service.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/scan_source.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"
#include "trace/trace.h"

namespace sq {
namespace {

kv::Object SmallObject(int64_t v) {
  kv::Object o;
  o.Set("lat", kv::Value(52.1));
  o.Set("lon", kv::Value(4.3));
  o.Set("updatedAt", kv::Value(v));
  return o;
}

void BM_LiveMapPut(benchmark::State& state) {
  kv::Partitioner partitioner(271);
  kv::LiveMap map("m", &partitioner);
  int64_t i = 0;
  for (auto _ : state) {
    map.Put(kv::Value(i % 100000), SmallObject(i));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LiveMapPut);

void BM_LiveMapGet(benchmark::State& state) {
  kv::Partitioner partitioner(271);
  kv::LiveMap map("m", &partitioner);
  for (int64_t i = 0; i < 100000; ++i) {
    map.Put(kv::Value(i), SmallObject(i));
  }
  Rng rng(1);
  for (auto _ : state) {
    auto v = map.Get(kv::Value(static_cast<int64_t>(rng.NextBounded(100000))));
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LiveMapGet);

// Ablation: replicated write (backup_count=1) vs plain — the cost of the
// synchronous backup copy.
void BM_LiveMapPutReplicated(benchmark::State& state) {
  kv::Partitioner partitioner(271);
  kv::LiveMap map("m", &partitioner, /*backup_count=*/1);
  int64_t i = 0;
  for (auto _ : state) {
    map.Put(kv::Value(i % 100000), SmallObject(i));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LiveMapPutReplicated);

void BM_SnapshotTableWrite(benchmark::State& state) {
  kv::Partitioner partitioner(271);
  kv::SnapshotTable table("t", &partitioner);
  int64_t i = 0;
  for (auto _ : state) {
    table.Write(i / 100000 + 1, kv::Value(i % 100000), SmallObject(i));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotTableWrite);

// The backward differential read of incremental snapshots, as a function of
// version-chain depth.
void BM_SnapshotTableGetAt(benchmark::State& state) {
  const int64_t versions = state.range(0);
  kv::Partitioner partitioner(64);
  kv::SnapshotTable table("t", &partitioner);
  for (int64_t v = 1; v <= versions; ++v) {
    for (int64_t k = 0; k < 10000; ++k) {
      table.Write(v, kv::Value(k), SmallObject(v));
    }
  }
  Rng rng(2);
  for (auto _ : state) {
    auto v = table.GetAt(
        kv::Value(static_cast<int64_t>(rng.NextBounded(10000))), versions);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotTableGetAt)->Arg(1)->Arg(4)->Arg(16);

// Full state-store update path: local map + live mirror + dirty tracking —
// the per-event cost the live configuration adds in Fig. 8.
void BM_SQueryStateStorePut(benchmark::State& state) {
  const bool live = state.range(0) != 0;
  kv::Grid grid(kv::GridConfig{.node_count = 3, .partition_count = 24,
                               .backup_count = 0});
  state::SQueryConfig config;
  config.live_enabled = live;
  state::SQueryStateStore store(&grid, "op", 0, config);
  int64_t i = 0;
  for (auto _ : state) {
    store.Put(kv::Value(i % 100000), SmallObject(i));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(live ? "live mirroring on" : "live mirroring off");
}
BENCHMARK(BM_SQueryStateStorePut)->Arg(0)->Arg(1);

void BM_SqlParseQuery1(benchmark::State& state) {
  const std::string q =
      "SELECT COUNT(*), deliveryZone FROM \"snapshot_orderinfo\" JOIN "
      "\"snapshot_orderstate\" USING(partitionKey) WHERE "
      "(orderState='VENDOR_ACCEPTED' AND lateTimestamp<LOCALTIMESTAMP) "
      "GROUP BY deliveryZone;";
  for (auto _ : state) {
    auto stmt = sql::ParseSelect(q);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_SqlParseQuery1);

void BM_SqlJoinGroupBy(benchmark::State& state) {
  sql::MemoryResolver resolver;
  std::vector<kv::Object>& rows = resolver.tables["a"];
  for (int64_t i = 0; i < state.range(0); ++i) {
    kv::Object o;
    o.Set("key", kv::Value(i));
    o.Set("zone", kv::Value("zone-" + std::to_string(i % 12)));
    o.Set("v", kv::Value(i));
    rows.push_back(std::move(o));
  }
  resolver.tables["b"] = rows;
  for (auto _ : state) {
    auto result = sql::ExecuteSql(
        "SELECT COUNT(*), zone FROM a JOIN b USING(partitionKey) WHERE "
        "v>=0 GROUP BY zone",
        &resolver, sql::ExecOptions{});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlJoinGroupBy)->Arg(1000)->Arg(10000);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  int64_t i = 0;
  for (auto _ : state) {
    h.Record(i++ % 1000000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_BlockingQueuePushPop(benchmark::State& state) {
  BlockingQueue<int64_t> q(1024);
  int64_t i = 0;
  for (auto _ : state) {
    q.Push(i++);
    benchmark::DoNotOptimize(q.Pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockingQueuePushPop);

void BM_PartitionerHash(benchmark::State& state) {
  kv::Partitioner partitioner(271);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner.PartitionOf(kv::Value(i++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionerHash);

// --- Partition-parallel query execution. One shared 100k-key grid so the
// per-benchmark setup cost is paid once.
struct ParallelQueryFixture {
  kv::Grid grid{kv::GridConfig{.node_count = 3, .partition_count = 271,
                               .backup_count = 0}};
  state::SnapshotRegistry registry{
      &grid, {.retained_versions = 2, .async_prune = false}};
  query::QueryService service{&grid, &registry};

  ParallelQueryFixture() {
    state::SQueryStateStore store(&grid, "orders", 0,
                                  state::SQueryConfig{.parallelism = 1});
    for (int64_t key = 0; key < 100000; ++key) {
      kv::Object o;
      o.Set("v", kv::Value(key * 2654435761 % 1000));
      o.Set("g", kv::Value(key % 16));
      store.Put(kv::Value(key), std::move(o));
    }
    (void)store.SnapshotTo(1);
    registry.OnCheckpointCommitted(1);
  }

  static ParallelQueryFixture& Get() {
    static ParallelQueryFixture fixture;
    return fixture;
  }
};

// Arg = parallelism. Full-scan partial aggregate (the core-scaling case).
void BM_QueryParallelScanAggregate(benchmark::State& state) {
  auto& fixture = ParallelQueryFixture::Get();
  query::QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  options.parallelism = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    auto result = fixture.service.Execute(
        "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM orders GROUP BY g",
        options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_QueryParallelScanAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Arg = pushdown (0/1). Selective filter: pushdown evaluates the predicate
// inside the scan, off materializes all 100k rows first.
void BM_QueryPredicatePushdown(benchmark::State& state) {
  auto& fixture = ParallelQueryFixture::Get();
  query::QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  options.parallelism = 4;
  options.pushdown = state.range(0) != 0;
  for (auto _ : state) {
    auto result = fixture.service.Execute(
        "SELECT key, v FROM orders WHERE v > 990 AND g = 3", options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_QueryPredicatePushdown)->Arg(0)->Arg(1);

// Key pushdown routes `key = <literal>` to a single point lookup instead of
// a 271-partition sweep.
void BM_QueryKeyEqualityPointLookup(benchmark::State& state) {
  auto& fixture = ParallelQueryFixture::Get();
  query::QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  int64_t i = 0;
  for (auto _ : state) {
    auto result = fixture.service.Execute(
        "SELECT v FROM orders WHERE key = " + std::to_string(i++ % 100000),
        options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryKeyEqualityPointLookup);

// --- Tracing overhead. The spans are default-on, so this section is the
// guardrail: the full-tracing cost on the partition-parallel aggregate query
// must stay marginal (CI asserts < 5%). Modes are interleaved round-robin so
// thermal / scheduler drift hits all three equally; best-of-rounds absorbs
// outliers.
double MeasureTracedQueryNanos(query::QueryService* service,
                               const std::string& sql, int iters) {
  query::QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  options.parallelism = 4;
  const int64_t t0 = SystemClock::Default()->NowNanos();
  for (int i = 0; i < iters; ++i) {
    auto result = service->Execute(sql, options);
    benchmark::DoNotOptimize(result);
  }
  return static_cast<double>(SystemClock::Default()->NowNanos() - t0) /
         iters;
}

void RunTraceOverheadSection() {
  auto& fixture = ParallelQueryFixture::Get();
  const std::string sql =
      "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM orders GROUP BY g";
  const char* scale_env = std::getenv("SQ_BENCH_SCALE");
  const double scale = scale_env != nullptr ? std::atof(scale_env) : 1.0;
  const int iters = std::max(10, static_cast<int>(200 * scale));
  const int rounds = 3;

  trace::TraceConfig off;
  off.enabled = false;
  trace::TraceConfig sampled;  // 1-in-64 roots
  sampled.sample_every.fill(64);
  const trace::TraceConfig full;  // default: everything

  // Warmup (also populates caches identically for all modes).
  trace::SetConfig(off);
  MeasureTracedQueryNanos(&fixture.service, sql, iters / 2 + 1);

  double best[3] = {1e300, 1e300, 1e300};
  const trace::TraceConfig* configs[3] = {&off, &sampled, &full};
  for (int round = 0; round < rounds; ++round) {
    for (int mode = 0; mode < 3; ++mode) {
      trace::SetConfig(*configs[mode]);
      const double nanos =
          MeasureTracedQueryNanos(&fixture.service, sql, iters);
      if (nanos < best[mode]) best[mode] = nanos;
    }
  }
  trace::SetConfig(trace::TraceConfig{});

  const double overhead_sampled = (best[1] - best[0]) / best[0] * 100.0;
  const double overhead_full = (best[2] - best[0]) / best[0] * 100.0;
  std::printf(
      "\ntrace overhead on '%s' (%d queries x %d rounds):\n"
      "  off:     %10.0f ns/query\n"
      "  sampled: %10.0f ns/query (1 in 64 roots, %+.2f%%)\n"
      "  full:    %10.0f ns/query (every span, %+.2f%%)\n",
      sql.c_str(), iters, rounds, best[0], best[1], overhead_sampled,
      best[2], overhead_full);

  const Status exported = trace::ExportChromeJson("sq_query.trace.json");
  if (exported.ok()) {
    std::printf("wrote sq_query.trace.json (load in ui.perfetto.dev)\n");
  } else {
    std::printf("trace export failed: %s\n", exported.ToString().c_str());
  }

  std::FILE* f = std::fopen("BENCH_trace.json", "w");
  if (f == nullptr) return;
  std::fprintf(
      f,
      "{\n  \"trace_overhead\": {\n"
      "    \"query\": \"%s\",\n"
      "    \"iters\": %d,\n"
      "    \"off_nanos\": %.0f,\n"
      "    \"sampled_nanos\": %.0f,\n"
      "    \"full_nanos\": %.0f,\n"
      "    \"overhead_sampled_pct\": %.3f,\n"
      "    \"overhead_full_pct\": %.3f\n  }\n}\n",
      sql.c_str(), iters, best[0], best[1], best[2], overhead_sampled,
      overhead_full);
  std::fclose(f);
  std::printf("wrote BENCH_trace.json\n");
}

// --- Scan throughput: the vectorized (columnar-batch) engine against the
// row engine on the same snapshot table, fused filter+COUNT so the measured
// cost is the scan itself, not result materialization. rows/sec over the
// 100k-key fixture; the force-row knob selects the engine.

struct ScanThroughputRow {
  const char* scan;    // "unfiltered" | "filtered"
  const char* engine;  // "columnar" | "row"
  int32_t parallelism;
  double mean_ms;
  double rows_per_sec;
};

ScanThroughputRow MeasureScanThroughput(query::QueryService* service,
                                        const char* scan, const char* engine,
                                        const std::string& sql,
                                        int32_t parallelism, int iters) {
  query::QueryOptions options;
  options.parallelism = parallelism;
  options.force_row_scan = std::strcmp(engine, "row") == 0;
  // Warm up: builds (and caches) the columnar partition views so both
  // engines are measured over resident state.
  for (int i = 0; i < 2; ++i) {
    auto r = service->Execute(sql, options);
    if (!r.ok()) {
      std::fprintf(stderr, "scan bench failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
  }
  const int64_t t0 = SystemClock::Default()->NowNanos();
  for (int i = 0; i < iters; ++i) {
    auto r = service->Execute(sql, options);
    benchmark::DoNotOptimize(r);
  }
  const double nanos =
      static_cast<double>(SystemClock::Default()->NowNanos() - t0) / iters;
  ScanThroughputRow row{scan, engine, parallelism, nanos / 1e6,
                        100000.0 / (nanos / 1e9)};
  std::printf(
      "scan=%-10s engine=%-8s parallelism=%d  mean=%8.3f ms  %12.0f rows/s\n",
      row.scan, row.engine, row.parallelism, row.mean_ms, row.rows_per_sec);
  return row;
}

// Merges `payload` into BENCH_query.json under the "scan_throughput" key:
// the file's closing brace is replaced by `, "scan_throughput": {...}}` so
// the section composes with the series bench_fig13_query_latency wrote. A
// missing file gets a fresh object.
void MergeScanSection(const std::string& payload) {
  std::string existing;
  {
    std::ifstream in("BENCH_query.json");
    std::stringstream ss;
    ss << in.rdbuf();
    existing = ss.str();
  }
  const size_t brace = existing.find_last_of('}');
  std::ofstream out("BENCH_query.json", std::ios::trunc);
  if (brace == std::string::npos) {
    out << "{\n" << payload << "\n}\n";
  } else {
    out << existing.substr(0, brace) << ",\n" << payload << "\n}\n";
  }
}

void RunScanThroughputSection() {
  const char* scale_env = std::getenv("SQ_BENCH_SCALE");
  const double scale = scale_env != nullptr ? std::atof(scale_env) : 1.0;
  const int iters = std::max(3, static_cast<int>(30 * scale));
  auto& fixture = ParallelQueryFixture::Get();

  const std::string unfiltered =
      "SELECT COUNT(*) AS n FROM snapshot_orders";
  const std::string filtered =
      "SELECT COUNT(*) AS n FROM snapshot_orders WHERE v > 500";
  std::printf("\nscan throughput (100000 keys, %d queries per cell):\n",
              iters);
  std::vector<ScanThroughputRow> rows;
  for (int32_t parallelism : {1, 8}) {
    for (const char* engine : {"row", "columnar"}) {
      rows.push_back(MeasureScanThroughput(&fixture.service, "unfiltered",
                                           engine, unfiltered, parallelism,
                                           iters));
      rows.push_back(MeasureScanThroughput(&fixture.service, "filtered",
                                           engine, filtered, parallelism,
                                           iters));
    }
  }

  auto find = [&rows](const char* scan, const char* engine,
                      int32_t parallelism) -> const ScanThroughputRow& {
    for (const auto& r : rows) {
      if (std::strcmp(r.scan, scan) == 0 &&
          std::strcmp(r.engine, engine) == 0 &&
          r.parallelism == parallelism) {
        return r;
      }
    }
    std::abort();
  };
  const double ratio_p1 = find("unfiltered", "columnar", 1).rows_per_sec /
                          find("unfiltered", "row", 1).rows_per_sec;
  const double ratio_p8 = find("unfiltered", "columnar", 8).rows_per_sec /
                          find("unfiltered", "row", 8).rows_per_sec;
  std::printf("columnar vs row, unfiltered scan: %.2fx @1, %.2fx @8\n",
              ratio_p1, ratio_p8);

  std::string payload = "  \"scan_throughput\": {\n    \"keys\": 100000,\n"
                        "    \"series\": [\n";
  char line[256];
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::snprintf(line, sizeof(line),
                  "      {\"scan\": \"%s\", \"engine\": \"%s\", "
                  "\"parallelism\": %d, \"mean_ms\": %.4f, "
                  "\"rows_per_sec\": %.0f}%s\n",
                  r.scan, r.engine, r.parallelism, r.mean_ms, r.rows_per_sec,
                  i + 1 < rows.size() ? "," : "");
    payload += line;
  }
  std::snprintf(line, sizeof(line),
                "    ],\n    \"columnar_vs_row_unfiltered_p1\": %.3f,\n"
                "    \"columnar_vs_row_unfiltered_p8\": %.3f\n  }",
                ratio_p1, ratio_p8);
  payload += line;
  MergeScanSection(payload);
  std::printf("merged scan_throughput into BENCH_query.json\n");
}

// --- Federation overhead. Attaching a ClusterRouter sends every
// system-table scan through the federated path (local scan, then remote
// fan-out over RemoteNodeIds). With no remote nodes that fan-out must be
// free: CI gates the delta on a local `__spans` scan at < 5% so the cluster
// observability plumbing never taxes single-node deployments.
// SQ_BENCH_FED_ONLY=1 runs just this section.
double TimeSystemScanNanos(query::QueryService* service,
                           const std::string& sql) {
  const int64_t t0 = SystemClock::Default()->NowNanos();
  auto result = service->Execute(sql);
  benchmark::DoNotOptimize(result);
  return static_cast<double>(SystemClock::Default()->NowNanos() - t0);
}

double Median(std::vector<double> values) {
  const auto mid = values.begin() + static_cast<ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

void RunFederatedOverheadSection() {
  auto& fixture = ParallelQueryFixture::Get();
  const char* scale_env = std::getenv("SQ_BENCH_SCALE");
  const double scale = scale_env != nullptr ? std::atof(scale_env) : 1.0;
  const int iters = std::max(10, static_cast<int>(150 * scale));
  const int rounds = 5;

  // A deterministically full journal, so the scan measures real row volume
  // rather than the fixed per-query cost on an empty snapshot.
  for (int64_t i = 0; i < 2000; ++i) {
    trace::RecordSpan(trace::Category::kQuery, "bench.fed_fixture",
                      trace::RootContext(trace::NewTraceId(), /*forced=*/true),
                      i * 1000, i * 1000 + 500);
  }

  query::QueryService federated(&fixture.grid, &fixture.registry);
  net::ClusterClient client(
      net::ClusterTopology{.partition_count = 271, .nodes = {}},
      net::RpcOptions{});
  federated.AttachCluster(&client);

  const std::string sql = "SELECT COUNT(*) AS n FROM __spans";
  // Every query adds spans to the journal it scans, so the two services run
  // in back-to-back pairs, alternating which one goes first: both queries
  // of a pair scan the same journal. The overhead is the median over pairs
  // of the attached query's time relative to the local one, which host
  // noise on single queries does not move. The first pairs warm up both
  // paths identically.
  const int warmup = iters / 2 + 1;
  const int pairs = iters * rounds;
  std::vector<double> local_nanos;
  std::vector<double> fed_nanos;
  std::vector<double> fed_over_local;
  for (int i = 0; i < warmup + pairs; ++i) {
    double local = 0;
    double fed = 0;
    if (i % 2 == 0) {
      local = TimeSystemScanNanos(&fixture.service, sql);
      fed = TimeSystemScanNanos(&federated, sql);
    } else {
      fed = TimeSystemScanNanos(&federated, sql);
      local = TimeSystemScanNanos(&fixture.service, sql);
    }
    if (i < warmup) continue;
    local_nanos.push_back(local);
    fed_nanos.push_back(fed);
    fed_over_local.push_back(fed / local);
  }
  const double median_local = Median(local_nanos);
  const double median_fed = Median(fed_nanos);
  const double overhead_pct = (Median(fed_over_local) - 1.0) * 100.0;
  std::printf(
      "\nfederated-scan overhead on '%s' (%d query pairs, medians):\n"
      "  local-only:       %10.0f ns/query\n"
      "  cluster attached: %10.0f ns/query (pairwise %+.2f%%)\n",
      sql.c_str(), pairs, median_local, median_fed, overhead_pct);

  std::FILE* f = std::fopen("BENCH_federation.json", "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\n  \"federated_scan_overhead\": {\n"
               "    \"query\": \"%s\",\n"
               "    \"iters\": %d,\n"
               "    \"local_nanos\": %.0f,\n"
               "    \"federated_nanos\": %.0f,\n"
               "    \"overhead_pct\": %.3f\n  }\n}\n",
               sql.c_str(), pairs, median_local, median_fed, overhead_pct);
  std::fclose(f);
  std::printf("wrote BENCH_federation.json\n");
}

}  // namespace
}  // namespace sq

int main(int argc, char** argv) {
  const bool trace_only = std::getenv("SQ_BENCH_TRACE_ONLY") != nullptr;
  const bool scan_only = std::getenv("SQ_BENCH_SCAN_ONLY") != nullptr;
  const bool fed_only = std::getenv("SQ_BENCH_FED_ONLY") != nullptr;
  if (!trace_only && !scan_only && !fed_only) {
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
  }
  if (!scan_only && !fed_only) sq::RunTraceOverheadSection();
  if (!trace_only && !fed_only) sq::RunScanThroughputSection();
  if (!trace_only && !scan_only) sq::RunFederatedOverheadSection();
  return 0;
}
