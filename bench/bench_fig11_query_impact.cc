// Fig. 11: effect of concurrently executing snapshot queries on the 2PC
// commit latency. Two query threads run the paper's Query 1 (JOIN +
// GROUP BY) at full speed against the snapshot state while checkpoints are
// taken, for 1K/10K/100K unique keys.

#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "query/query_service.h"

namespace sq::bench {
namespace {

void RunConfig(const char* label, int64_t keys, bool with_queries,
               int checkpoints) {
  auto harness = StartDeliveryHarness(keys, /*squery=*/true,
                                      /*incremental=*/false,
                                      /*checkpoint_interval_ms=*/0);
  query::QueryService service(harness->grid.get(), harness->registry.get());
  Histogram* phase2 = harness->metrics.GetHistogram("checkpoint.phase2_nanos");
  // Make a snapshot queryable.
  Check(harness->job->TriggerCheckpoint(), "warm-up checkpoint");
  phase2->Reset();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> queries_run{0};
  std::vector<std::thread> query_threads;
  if (with_queries) {
    for (int t = 0; t < 2; ++t) {  // the paper: two concurrent threads
      query_threads.emplace_back([&] {
        while (!stop.load()) {
          Check(service.Execute(dh::Query1()), "query");
          queries_run.fetch_add(1);
        }
      });
    }
  }
  for (int i = 0; i < checkpoints; ++i) {
    Check(harness->job->TriggerCheckpoint(), "checkpoint");
  }
  stop.store(true);
  for (auto& t : query_threads) t.join();
  char full_label[96];
  std::snprintf(full_label, sizeof(full_label), "%s (%lld q)", label,
                static_cast<long long>(queries_run.load()));
  PrintLatencyRow(with_queries ? full_label : label, *phase2);
}

}  // namespace
}  // namespace sq::bench

int main() {
  const double scale = sq::bench::BenchScale();
  const int checkpoints = static_cast<int>(10 * scale) + 4;
  sq::bench::PrintHeader(
      "Figure 11",
      "snapshot 2PC latency with vs without concurrent Query 1 execution "
      "(2 query threads), 1K/10K/100K keys");
  std::printf("%d checkpoints per configuration\n\n", checkpoints);
  for (const int64_t keys : {1000, 10000, 100000}) {
    char label[64];
    std::snprintf(label, sizeof(label), "No Query %ldk",
                  static_cast<long>(keys / 1000));
    sq::bench::RunConfig(label, keys, /*with_queries=*/false, checkpoints);
    std::snprintf(label, sizeof(label), "Query %ldk",
                  static_cast<long>(keys / 1000));
    sq::bench::RunConfig(label, keys, /*with_queries=*/true, checkpoints);
  }
  std::printf(
      "\nExpected shape (paper Fig. 11): negligible impact at small states;\n"
      "a bounded extra tail (paper: up to ~14-20ms) with concurrent queries\n"
      "at 10K-100K keys.\n");
  return 0;
}
