// Fig. 10: snapshot 2PC commit-latency distribution, S-QUERY vs plain
// engine, for 1K/10K/100K unique keys (Delivery Hero workload, measured at
// the coordinator exactly as in the paper: initiation → phase 1 → phase 2).

#include <cstdio>

#include "bench/bench_common.h"

namespace sq::bench {
namespace {

void RunConfig(const char* label, int64_t keys, bool squery, int checkpoints,
               dataflow::CheckpointMode mode =
                   dataflow::CheckpointMode::kAligned) {
  auto harness = StartDeliveryHarness(keys, squery, /*incremental=*/false,
                                      /*checkpoint_interval_ms=*/0,
                                      /*churn_rate=*/0.0,
                                      /*retained_versions=*/2,
                                      /*durable_dir=*/"", mode);
  // Phase timings come from the engine's metrics registry, the same source
  // the `__checkpoints` system table reads.
  Histogram* phase1 = harness->metrics.GetHistogram("checkpoint.phase1_nanos");
  Histogram* phase2 = harness->metrics.GetHistogram("checkpoint.phase2_nanos");
  // Warm one checkpoint (first-touch allocations), then measure.
  Check(harness->job->TriggerCheckpoint(), "warm-up checkpoint");
  phase1->Reset();
  phase2->Reset();
  for (int i = 0; i < checkpoints; ++i) {
    Check(harness->job->TriggerCheckpoint(), "checkpoint");
  }
  PrintLatencyRow(label, *phase2);
}

}  // namespace
}  // namespace sq::bench

int main() {
  const double scale = sq::bench::BenchScale();
  const int checkpoints = static_cast<int>(15 * scale) + 5;
  sq::bench::PrintHeader(
      "Figure 10",
      "snapshot 2PC latency, S-QUERY vs plain engine, 1K/10K/100K keys "
      "(Delivery Hero workload)");
  std::printf("%d checkpoints per configuration\n\n", checkpoints);
  for (const int64_t keys : {1000, 10000, 100000}) {
    char label[64];
    std::snprintf(label, sizeof(label), "S-Query %ldk",
                  static_cast<long>(keys / 1000));
    sq::bench::RunConfig(label, keys, /*squery=*/true, checkpoints);
    std::snprintf(label, sizeof(label), "Jet %ldk",
                  static_cast<long>(keys / 1000));
    sq::bench::RunConfig(label, keys, /*squery=*/false, checkpoints);
  }
  std::printf(
      "\nExpected shape (paper Fig. 10): latency grows with key count;\n"
      "S-QUERY ≈ plain at 1K, a few ms slower at 10K, tens of ms at 100K\n"
      "(the queryable snapshot-table writes).\n");

  sq::bench::PrintHeader(
      "Figure 10 (checkpoint mode)",
      "2PC commit latency under aligned vs unaligned checkpoints, 10K keys");
  std::printf(
      "Unaligned trades data-path latency (Fig. 8 tail) for checkpoint\n"
      "duration: the write-out runs in bounded chunks interleaved with\n"
      "processing, so the commit as seen by the coordinator may stretch.\n\n");
  sq::bench::RunConfig("S-Query 10k [aligned]", 10000, /*squery=*/true,
                       checkpoints, sq::dataflow::CheckpointMode::kAligned);
  sq::bench::RunConfig("S-Query 10k [unaligned]", 10000, /*squery=*/true,
                       checkpoints, sq::dataflow::CheckpointMode::kUnaligned);
  return 0;
}
