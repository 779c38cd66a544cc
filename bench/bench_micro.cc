// Micro-benchmarks (google-benchmark): per-operation costs of the
// substrates, used to calibrate the cluster simulator and as ablations for
// the design decisions listed in DESIGN.md §6 (colocation, key-level
// locking, incremental snapshots, SQL operator costs), and the
// partition-parallel query fixture (core scaling, pushdown, point lookup vs
// full scan). After the google-benchmark cases (which
// `--benchmark_filter` selects or skips) a custom main always runs three
// sections, each with its own report (all written after the last one):
//   * trace overhead (off / sampled / full) → BENCH_trace.json, plus a
//     Perfetto-loadable sq_query.trace.json;
//   * scan throughput (row vs columnar engine, filtered vs unfiltered,
//     parallelism 1/8) in rows/sec → BENCH_query.json;
//   * federated-scan overhead (system-table scan with vs without a cluster
//     attached) → BENCH_federation.json.
// CI gates full tracing and the federated path at < 5% and columnar ≥ row.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
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
constexpr int64_t kFixtureKeys = 100000;

struct ParallelQueryFixture {
  kv::Grid grid{kv::GridConfig{.node_count = 3, .partition_count = 271,
                               .backup_count = 0}};
  state::SnapshotRegistry registry{
      &grid, {.retained_versions = 2, .async_prune = false}};
  query::QueryService service{&grid, &registry};

  ParallelQueryFixture() {
    state::SQueryStateStore store(&grid, "orders", 0,
                                  state::SQueryConfig{.parallelism = 1});
    for (int64_t key = 0; key < kFixtureKeys; ++key) {
      kv::Object o;
      o.Set("v", kv::Value(key * 2654435761 % 1000));
      o.Set("g", kv::Value(key % 16));
      store.Put(kv::Value(key), std::move(o));
    }
    bench::Check(store.SnapshotTo(1), "fixture snapshot");
    registry.OnCheckpointCommitted(1);
  }

  static ParallelQueryFixture& Get() {
    static ParallelQueryFixture fixture;
    return fixture;
  }
};

query::QueryOptions FixtureOptions(int32_t parallelism) {
  query::QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  options.parallelism = parallelism;
  return options;
}

// Runs one fixture query; a failed query ends the run like any bench.
sql::ExecStats RunFixtureQuery(const std::string& sql,
                               const query::QueryOptions& options) {
  return bench::Check(
             ParallelQueryFixture::Get().service.ExecuteWithStats(sql, options),
             "query")
      .stats;
}

// Rows the last iteration scanned, and their share of the fixture: 1 for a
// full scan, 1/100000 for a key-equality point lookup.
void SetScanCounters(benchmark::State& state, const sql::ExecStats& stats) {
  state.counters["rows_scanned"] = static_cast<double>(stats.rows_scanned);
  state.counters["scanned_fraction"] =
      static_cast<double>(stats.rows_scanned) / kFixtureKeys;
}

// Args = {parallelism, snapshot table?}. Full-scan partial aggregate (the
// core-scaling case), over the live and the snapshot table.
void BM_QueryParallelScanAggregate(benchmark::State& state) {
  const bool snapshot = state.range(1) != 0;
  const std::string sql = std::string("SELECT g, COUNT(*) AS n, SUM(v) AS s "
                                      "FROM ") +
                          (snapshot ? "snapshot_orders" : "orders") +
                          " GROUP BY g";
  const query::QueryOptions options =
      FixtureOptions(static_cast<int32_t>(state.range(0)));
  ParallelQueryFixture::Get();  // built outside the timed loop
  sql::ExecStats stats;
  for (auto _ : state) {
    stats = RunFixtureQuery(sql, options);
    benchmark::DoNotOptimize(stats);
  }
  SetScanCounters(state, stats);
  state.SetItemsProcessed(state.iterations() * kFixtureKeys);
  state.SetLabel(snapshot ? "snapshot" : "live");
}
BENCHMARK(BM_QueryParallelScanAggregate)->ArgsProduct({{1, 2, 4, 8}, {0, 1}});

// Arg = pushdown (0/1). Selective filter: pushdown evaluates the predicate
// inside the scan, off materializes all 100k rows first.
void BM_QueryPredicatePushdown(benchmark::State& state) {
  query::QueryOptions options = FixtureOptions(4);
  options.pushdown = state.range(0) != 0;
  ParallelQueryFixture::Get();  // built outside the timed loop
  sql::ExecStats stats;
  for (auto _ : state) {
    stats = RunFixtureQuery(
        "SELECT key, v FROM orders WHERE v > 990 AND g = 3", options);
    benchmark::DoNotOptimize(stats);
  }
  SetScanCounters(state, stats);
  state.SetItemsProcessed(state.iterations() * kFixtureKeys);
}
BENCHMARK(BM_QueryPredicatePushdown)->Arg(0)->Arg(1);

// Key pushdown routes `key = <literal>` to a single point lookup instead of
// a 271-partition sweep.
void BM_QueryKeyEqualityPointLookup(benchmark::State& state) {
  const query::QueryOptions options = FixtureOptions(1);
  ParallelQueryFixture::Get();  // built outside the timed loop
  sql::ExecStats stats;
  int64_t i = 0;
  for (auto _ : state) {
    stats = RunFixtureQuery(
        "SELECT v FROM orders WHERE key = " +
            std::to_string(i++ % kFixtureKeys),
        options);
    benchmark::DoNotOptimize(stats);
  }
  SetScanCounters(state, stats);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryKeyEqualityPointLookup);

double NanosOf(const std::function<void()>& run) {
  const int64_t t0 = SystemClock::Default()->NowNanos();
  run();
  return static_cast<double>(SystemClock::Default()->NowNanos() - t0);
}

double Median(std::vector<double> values) {
  const auto mid = values.begin() + static_cast<ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

struct PairedTiming {
  double base_nanos = 0;     // median time of `base`
  double variant_nanos = 0;  // median time of `variant`
  double overhead_pct = 0;   // median over pairs of variant / base, minus 1
};

// Times `base` and `variant` in back-to-back pairs, alternating which runs
// first, so drift in host speed and in shared state (a journal both scan,
// warm caches) hits both sides alike. The overhead is the median over pairs
// of the variant's time relative to the base's, which noise on single runs
// does not move; a best-of or mean over whole rounds swings by tens of
// percent on a shared host. The first `warmup` pairs are discarded.
PairedTiming TimePaired(const std::function<void()>& base,
                        const std::function<void()>& variant, int warmup,
                        int pairs) {
  std::vector<double> base_nanos;
  std::vector<double> variant_nanos;
  std::vector<double> ratios;
  for (int i = 0; i < warmup + pairs; ++i) {
    double b = 0;
    double v = 0;
    if (i % 2 == 0) {
      b = NanosOf(base);
      v = NanosOf(variant);
    } else {
      v = NanosOf(variant);
      b = NanosOf(base);
    }
    if (i < warmup) continue;
    base_nanos.push_back(b);
    variant_nanos.push_back(v);
    ratios.push_back(v / b);
  }
  return PairedTiming{Median(base_nanos), Median(variant_nanos),
                      (Median(ratios) - 1.0) * 100.0};
}

// --- Tracing overhead. The spans are default-on, so this section is the
// guardrail: the full-tracing cost on the partition-parallel aggregate query
// must stay marginal (CI asserts < 5%). Off is paired once with sampled and
// once with full tracing.
bench::Json RunTraceOverheadSection() {
  const std::string sql =
      "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM orders GROUP BY g";
  const int pairs = std::max(20, static_cast<int>(300 * bench::BenchScale()));
  const int warmup = pairs / 4 + 1;
  const query::QueryOptions options = FixtureOptions(4);

  trace::TraceConfig off;
  off.enabled = false;
  trace::TraceConfig sampled;  // 1-in-64 roots
  sampled.sample_every.fill(64);
  const trace::TraceConfig full;  // default: everything
  auto query_with = [&](const trace::TraceConfig& config) {
    return [&sql, &options, config] {
      trace::SetConfig(config);
      RunFixtureQuery(sql, options);
    };
  };
  const PairedTiming vs_sampled =
      TimePaired(query_with(off), query_with(sampled), warmup, pairs);
  const PairedTiming vs_full =
      TimePaired(query_with(off), query_with(full), warmup, pairs);
  trace::SetConfig(trace::TraceConfig{});

  std::printf(
      "\ntrace overhead on '%s' (%d query pairs per mode, medians):\n"
      "  off:     %10.0f ns/query\n"
      "  sampled: %10.0f ns/query (1 in 64 roots, pairwise %+.2f%%)\n"
      "  full:    %10.0f ns/query (every span, pairwise %+.2f%%)\n",
      sql.c_str(), pairs, vs_full.base_nanos, vs_sampled.variant_nanos,
      vs_sampled.overhead_pct, vs_full.variant_nanos, vs_full.overhead_pct);

  bench::Check(trace::ExportChromeJson("sq_query.trace.json"), "trace export");
  std::printf("wrote sq_query.trace.json (load in ui.perfetto.dev)\n");
  return bench::Json::Object(
      {{"query", sql},
       {"pairs", pairs},
       {"off_nanos", vs_full.base_nanos},
       {"sampled_nanos", vs_sampled.variant_nanos},
       {"full_nanos", vs_full.variant_nanos},
       {"overhead_sampled_pct", vs_sampled.overhead_pct},
       {"overhead_full_pct", vs_full.overhead_pct}});
}

// --- Scan throughput: the vectorized (columnar-batch) engine against the
// row engine on the same snapshot table, fused filter+COUNT so the measured
// cost is the scan itself, not result materialization. rows/sec over the
// 100k-key fixture; the force-row knob selects the engine.
// Appends one series row and returns its rows/sec.
double MeasureScanThroughput(const char* scan, bool row_engine,
                             const std::string& sql, int32_t parallelism,
                             int iters, std::vector<bench::Json>* series) {
  query::QueryOptions options;
  options.parallelism = parallelism;
  options.force_row_scan = row_engine;
  // Warm up: builds (and caches) the columnar partition views so both
  // engines are measured over resident state.
  for (int i = 0; i < 2; ++i) RunFixtureQuery(sql, options);
  const double nanos = NanosOf([&] {
                         for (int i = 0; i < iters; ++i) {
                           RunFixtureQuery(sql, options);
                         }
                       }) /
                       iters;
  const double rows_per_sec = kFixtureKeys / (nanos / 1e9);
  const char* engine = row_engine ? "row" : "columnar";
  std::printf(
      "scan=%-10s engine=%-8s parallelism=%d  mean=%8.3f ms  %12.0f rows/s\n",
      scan, engine, parallelism, nanos / 1e6, rows_per_sec);
  series->push_back(bench::Json::Object({{"scan", scan},
                                         {"engine", engine},
                                         {"parallelism", parallelism},
                                         {"mean_ms", nanos / 1e6},
                                         {"rows_per_sec", rows_per_sec}}));
  return rows_per_sec;
}

bench::Json RunScanThroughputSection() {
  const int iters = std::max(3, static_cast<int>(30 * bench::BenchScale()));
  const std::string unfiltered = "SELECT COUNT(*) AS n FROM snapshot_orders";
  const std::string filtered =
      "SELECT COUNT(*) AS n FROM snapshot_orders WHERE v > 500";
  std::printf("\nscan throughput (%lld keys, %d queries per cell):\n",
              static_cast<long long>(kFixtureKeys), iters);
  std::vector<bench::Json> series;
  double ratio[2] = {0, 0};  // columnar over row, unfiltered, @1 and @8
  for (const int32_t parallelism : {1, 8}) {
    double unfiltered_rate[2] = {0, 0};  // row, columnar
    for (const bool row_engine : {true, false}) {
      unfiltered_rate[!row_engine] = MeasureScanThroughput(
          "unfiltered", row_engine, unfiltered, parallelism, iters, &series);
      MeasureScanThroughput("filtered", row_engine, filtered, parallelism,
                            iters, &series);
    }
    ratio[parallelism == 8] = unfiltered_rate[1] / unfiltered_rate[0];
  }
  std::printf("columnar vs row, unfiltered scan: %.2fx @1, %.2fx @8\n",
              ratio[0], ratio[1]);
  return bench::Json::Object(
      {{"keys", kFixtureKeys},
       {"series", bench::Json::Array(series)},
       {"columnar_vs_row_unfiltered_p1", ratio[0]},
       {"columnar_vs_row_unfiltered_p8", ratio[1]}});
}

// --- Federation overhead. Attaching a ClusterRouter sends every
// system-table scan through the federated path (local scan, then remote
// fan-out over RemoteNodeIds). With no remote nodes that fan-out must be
// free: CI gates the delta on a local `__spans` scan at < 5% so the cluster
// observability plumbing never taxes single-node deployments.
bench::Json RunFederatedOverheadSection() {
  auto& fixture = ParallelQueryFixture::Get();
  const int pairs = std::max(50, static_cast<int>(750 * bench::BenchScale()));

  // A deterministically full journal, so the scan measures real row volume
  // rather than the fixed per-query cost on an empty snapshot. Clearing it
  // first keeps the spans of the sections that ran before out of the scan.
  trace::ClearForTest();
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

  // Every query adds spans to the journal it scans; the pairs keep both
  // queries of a pair on the same journal.
  const std::string sql = "SELECT COUNT(*) AS n FROM __spans";
  auto scan_on = [&](query::QueryService* service) {
    return [&sql, service] { bench::Check(service->Execute(sql), "query"); };
  };
  const PairedTiming fed = TimePaired(scan_on(&fixture.service),
                                      scan_on(&federated), pairs / 10 + 1, pairs);
  std::printf(
      "\nfederated-scan overhead on '%s' (%d query pairs, medians):\n"
      "  local-only:       %10.0f ns/query\n"
      "  cluster attached: %10.0f ns/query (pairwise %+.2f%%)\n",
      sql.c_str(), pairs, fed.base_nanos, fed.variant_nanos, fed.overhead_pct);
  return bench::Json::Object({{"query", sql},
                              {"pairs", pairs},
                              {"local_nanos", fed.base_nanos},
                              {"federated_nanos", fed.variant_nanos},
                              {"overhead_pct", fed.overhead_pct}});
}

}  // namespace
}  // namespace sq

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  // Reports are written after the last section, so a failure in any
  // section leaves none behind.
  const sq::bench::Json trace = sq::RunTraceOverheadSection();
  const sq::bench::Json scan = sq::RunScanThroughputSection();
  const sq::bench::Json federation = sq::RunFederatedOverheadSection();
  sq::bench::WriteReport("trace", {{"trace_overhead", trace}});
  sq::bench::WriteReport("query", {{"scan_throughput", scan}});
  sq::bench::WriteReport("federation",
                         {{"federated_scan_overhead", federation}});
  return 0;
}
