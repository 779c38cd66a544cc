// Fig. 13: SQL query (Query 1: JOIN + GROUP BY) end-to-end latency over
// snapshot state, incremental vs full snapshots, for 1K/10K/100K keys.
// Also reports the snapshot-id retrieval time the paper quotes (~1-2ms
// median in their setup).

#include <cstdio>

#include "bench/bench_common.h"
#include "query/query_service.h"

namespace sq::bench {
namespace {

void RunConfig(const char* label, int64_t keys, bool incremental,
               int queries) {
  // Continuous churn keeps per-checkpoint deltas non-empty and the
  // incremental version chains deep (retention 6), so the backward
  // differential read is actually exercised.
  auto harness = StartDeliveryHarness(keys, /*squery=*/true, incremental,
                                      /*checkpoint_interval_ms=*/1000,
                                      /*churn_rate=*/10000.0,
                                      /*retained_versions=*/6);
  query::QueryService service(harness->grid.get(), harness->registry.get());
  // Let a few checkpoints commit so incremental chains have depth (the
  // differential read has something to walk back through).
  WaitFor(*harness->job, "checkpoints",
          [&] { return harness->registry->latest_committed() >= 4; });
  Histogram latency;
  int64_t rows = 0;
  int64_t resolve_ns_total = 0;
  for (int i = 0; i < queries; ++i) {
    const int64_t start = SystemClock::Default()->NowNanos();
    const sql::ResultSet result =
        Check(service.Execute(dh::Query1()), "query");
    const int64_t end = SystemClock::Default()->NowNanos();
    rows = static_cast<int64_t>(result.RowCount());
    resolve_ns_total += service.last_ssid_resolve_nanos();
    latency.Record(end - start);
  }
  PrintLatencyRow(label, latency);
  std::printf(
      "  ... result rows=%lld, mean snapshot-id retrieval=%.3f ms\n",
      static_cast<long long>(rows),
      static_cast<double>(resolve_ns_total) / queries / 1e6);
}

}  // namespace
}  // namespace sq::bench

int main() {
  const double scale = sq::bench::BenchScale();
  const int queries = static_cast<int>(15 * scale) + 5;
  sq::bench::PrintHeader(
      "Figure 13",
      "Query 1 latency over snapshot state, incremental vs full snapshots, "
      "1K/10K/100K keys");
  std::printf("%d queries per configuration, checkpoints every 1s in "
              "the background\n\n", queries);
  for (const int64_t keys : {1000, 10000, 100000}) {
    char label[64];
    std::snprintf(label, sizeof(label), "Incremental %ldk",
                  static_cast<long>(keys / 1000));
    sq::bench::RunConfig(label, keys, /*incremental=*/true, queries);
    std::snprintf(label, sizeof(label), "Full %ldk",
                  static_cast<long>(keys / 1000));
    sq::bench::RunConfig(label, keys, /*incremental=*/false, queries);
  }
  std::printf(
      "\nExpected shape (paper Fig. 13): latency grows with state size;\n"
      "incremental ≈ full at 1K/10K, and clearly slower at 100K (the\n"
      "backward differential reads) — the paper reports ~5x there. Flat\n"
      "distributions (small tail spread) in all configurations.\n");
  return 0;
}
