// Fig. 12: 2PC latency of incremental snapshots at 1%/10%/100% delta ratios
// vs full snapshots, at 100K unique keys. The delta ratio is controlled by
// restricting the update stream to a key subset between checkpoints.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/metric_names.h"
#include "dataflow/operators.h"

namespace sq::bench {
namespace {

using dataflow::OperatorContext;
using dataflow::Record;
using kv::Object;
using kv::Value;

void RunConfig(const char* label, int64_t keys, double delta_ratio,
               bool incremental, int checkpoints) {
  kv::Grid grid(kv::GridConfig{.node_count = 3, .partition_count = 24,
                               .backup_count = 0});
  state::SnapshotRegistry registry(&grid, {.retained_versions = 2,
                                           .async_prune = true});
  const int64_t delta_keys =
      std::max<int64_t>(1, static_cast<int64_t>(keys * delta_ratio));

  dataflow::JobGraph graph;
  dataflow::GeneratorSource::Options options;
  options.total_records = -1;  // unbounded: first a full load, then churn
  const int32_t src = graph.AddSource(
      "src", 1,
      dataflow::MakeGeneratorSourceFactory(
          options, [keys, delta_keys](int64_t offset, OperatorContext* ctx) {
            // Initial pass loads every key once; afterwards only the first
            // `delta_keys` keys are rewritten (the per-checkpoint delta).
            const int64_t key =
                offset < keys ? offset : (offset - keys) % delta_keys;
            Object payload;
            payload.Set("v", Value(offset));
            return Record::Data(Value(key), std::move(payload),
                                ctx->NowNanos());
          }));
  const int32_t op = graph.AddOperator(
      "state", 2,
      dataflow::MakeLambdaOperatorFactory(
          [](const Record& r, OperatorContext* ctx) {
            ctx->PutState(r.key, r.payload);
            return Status::OK();
          }));
  (void)graph.Connect(src, op, dataflow::EdgeKind::kKeyed);

  state::SQueryConfig state_config;
  state_config.incremental = incremental;
  state_config.parallelism = 2;
  dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = 0;
  job_config.partitioner = &grid.partitioner();
  job_config.listener = &registry;
  job_config.state_store_factory =
      state::MakeSQueryStateStoreFactory(&grid, state_config);
  MetricsRegistry metrics;
  job_config.metrics = &metrics;
  Histogram* commit_latency =
      metrics.GetHistogram(metric_names::kCheckpointPhase2Nanos);
  auto job = dataflow::Job::Create(graph, std::move(job_config));
  if (!job.ok()) {
    std::fprintf(stderr, "%s\n", job.status().ToString().c_str());
    return;
  }
  (void)(*job)->Start();
  // Wait for the initial full load.
  while ((*job)->ProcessedCount("state") < keys) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  (void)(*job)->TriggerCheckpoint();  // baseline version
  commit_latency->Reset();
  // Give the churn enough time to touch the whole delta subset between
  // checkpoints.
  const int64_t churn_ms =
      std::max<int64_t>(20, delta_keys / 200);  // ~200 updates/ms
  for (int i = 0; i < checkpoints; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(churn_ms));
    auto result = (*job)->TriggerCheckpoint();
    if (!result.ok()) break;
  }
  PrintLatencyRow(label, *commit_latency);
  (void)(*job)->Stop();
}

}  // namespace
}  // namespace sq::bench

int main() {
  const double scale = sq::bench::BenchScale();
  const int checkpoints = static_cast<int>(15 * scale) + 5;
  const int64_t keys = 100000;
  sq::bench::PrintHeader(
      "Figure 12",
      "2PC latency: incremental snapshots at 1%/10%/100% delta vs full "
      "snapshots, 100K keys");
  std::printf("%d checkpoints per configuration\n\n", checkpoints);
  sq::bench::RunConfig("1% delta", keys, 0.01, /*incremental=*/true,
                       checkpoints);
  sq::bench::RunConfig("10% delta", keys, 0.10, true, checkpoints);
  sq::bench::RunConfig("100% delta", keys, 1.00, true, checkpoints);
  sq::bench::RunConfig("Full snapshot", keys, 1.00, /*incremental=*/false,
                       checkpoints);
  std::printf(
      "\nExpected shape (paper Fig. 12): small deltas are much cheaper than\n"
      "full snapshots; at 100%% delta the incremental housekeeping makes it\n"
      "*more* expensive than a plain full snapshot.\n");
  return 0;
}
