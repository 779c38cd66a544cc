// Fig. 8: source→sink latency distribution of S-QUERY's configurations
// (live+snapshot / live only / snapshot only) vs the plain engine ("Jet"),
// on NEXMark query 6 with 10K sellers and periodic checkpoints.
//
// The paper drives 1M events/s through a 3-node cluster; this container has
// one vCPU, so the ingest rate is scaled down (the *relative* ordering of
// the four configurations is the result under reproduction: live-state
// mirroring costs the most, the snapshot configuration tracks the plain
// engine closely).
//
// The second section attacks Fig. 8's latency *tail*: the aligned barrier
// stalls every consumer until its slowest upstream's marker arrives — with
// the snapshot write-out on that path — so each checkpoint prints a p99/p999
// spike. Unaligned checkpointing (COW capture + channel log) lets markers
// overtake buffered data, moving the write-out off the stall path. Both
// modes run the same snapshot configuration; the per-mode percentiles land
// in BENCH_fig08.json for the CI smoke run.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "nexmark/nexmark.h"

namespace sq::bench {
namespace {

struct Row {
  std::string label;
  const char* mode = "aligned";
  Histogram::Summary latency;
  int64_t checkpoints = 0;
  int64_t overtaken_records = 0;
};

Row RunConfig(const char* label, bool live, bool snap, double rate,
              double seconds, dataflow::CheckpointMode mode,
              int32_t source_parallelism = 1,
              int64_t checkpoint_interval_ms = 1000) {
  kv::Grid grid(kv::GridConfig{.node_count = 3, .partition_count = 24,
                               .backup_count = 0});
  state::SnapshotRegistry registry(&grid, {.retained_versions = 2,
                                           .async_prune = true});
  nexmark::NexmarkConfig config;
  config.num_sellers = 10000;
  config.total_events = -1;
  config.target_rate = rate;

  Histogram latency;
  dataflow::JobGraph graph = nexmark::BuildQ6Graph(
      config, source_parallelism, /*operator_parallelism=*/2, &latency);
  dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = checkpoint_interval_ms;
  job_config.checkpoint_mode = mode;
  job_config.partitioner = &grid.partitioner();
  job_config.listener = &registry;
  if (live || snap) {
    state::SQueryConfig state_config;
    state_config.live_enabled = live;
    state_config.snapshot_enabled = snap;
    state_config.parallelism = 2;
    // Calibrated stand-in for the IMDG put (serialization + map update);
    // our raw in-process put would understate the live configuration's
    // overhead (see EXPERIMENTS.md, Fig. 8).
    state_config.live_write_penalty_ns = 2000;
    job_config.state_store_factory =
        state::MakeSQueryStateStoreFactory(&grid, state_config);
  }
  Row row;
  row.label = label;
  row.mode = mode == dataflow::CheckpointMode::kUnaligned ? "unaligned"
                                                          : "aligned";
  auto job = Check(dataflow::Job::Create(graph, std::move(job_config)),
                   "job create");
  Check(job->Start(), "job start");
  // Warmup, then measure.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  latency.Reset();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000)));
  row.latency = latency.Summarize();
  for (const dataflow::CheckpointRow& c : job->RecentCheckpoints()) {
    if (!c.committed) continue;
    ++row.checkpoints;
    row.overtaken_records += c.overtaken_records;
  }
  PrintLatencyRow(row.label + " [" + row.mode + "]", latency);
  (void)job->Stop();
  return row;
}

void WriteJson(const std::vector<Row>& rows) {
  std::vector<Json> configs;
  for (const Row& r : rows) {
    configs.push_back(Json::Object({{"label", r.label},
                                    {"mode", r.mode},
                                    {"events", r.latency.count},
                                    {"p50_nanos", r.latency.p50},
                                    {"p99_nanos", r.latency.p99},
                                    {"p999_nanos", r.latency.p999},
                                    {"max_nanos", r.latency.max},
                                    {"checkpoints", r.checkpoints},
                                    {"overtaken_records", r.overtaken_records}}));
  }
  WriteReport("fig08", {{"configs", Json::Array(configs)}});
}

}  // namespace
}  // namespace sq::bench

int main() {
  using sq::dataflow::CheckpointMode;
  const double scale = sq::bench::BenchScale();
  const double rate = 60000.0;  // events/s; paper: 1M over 36 workers
  const double seconds = 8.0 * scale;
  sq::bench::PrintHeader(
      "Figure 8",
      "NEXMark q6 source→sink latency, S-QUERY configurations vs plain "
      "engine (rate scaled to this host)");
  std::printf("ingest rate: %.0f events/s, checkpoint interval 1s, "
              "measurement window %.1fs per configuration\n\n",
              rate, seconds);
  std::vector<sq::bench::Row> rows;
  rows.push_back(sq::bench::RunConfig("S-Query live+snap", true, true, rate,
                                      seconds, CheckpointMode::kAligned));
  rows.push_back(sq::bench::RunConfig("S-Query live", true, false, rate,
                                      seconds, CheckpointMode::kAligned));
  rows.push_back(sq::bench::RunConfig("S-Query snap", false, true, rate,
                                      seconds, CheckpointMode::kAligned));
  rows.push_back(sq::bench::RunConfig("Jet (plain)", false, false, rate,
                                      seconds, CheckpointMode::kAligned));
  std::printf(
      "\nExpected shape (paper): live configs add visible latency at all\n"
      "percentiles; 'snap' is nearly indistinguishable from plain Jet.\n");

  sq::bench::PrintHeader(
      "Figure 8 (tail)",
      "aligned barrier vs unaligned (COW capture + channel log), snapshot "
      "configuration");
  // Two independent sources: their markers reach each operator instance at
  // genuinely different times (poll-batch skew), which is what the aligned
  // barrier stalls on and what the unaligned channel log absorbs.
  std::vector<sq::bench::Row> tail;
  // 500ms cadence doubles the checkpoint spikes per window, so the p99
  // comparison rests on more tail samples than the paper's 1s cadence gives.
  tail.push_back(sq::bench::RunConfig("S-Query snap", false, true, rate,
                                      seconds, CheckpointMode::kAligned,
                                      /*source_parallelism=*/2,
                                      /*checkpoint_interval_ms=*/500));
  tail.push_back(sq::bench::RunConfig("S-Query snap", false, true, rate,
                                      seconds, CheckpointMode::kUnaligned,
                                      /*source_parallelism=*/2,
                                      /*checkpoint_interval_ms=*/500));
  const sq::bench::Row& aligned = tail[0];
  const sq::bench::Row& unaligned = tail[1];
  std::printf(
      "\naligned p99 = %.3f ms vs unaligned p99 = %.3f ms "
      "(%lld records overtook the barrier)\n",
      static_cast<double>(aligned.latency.p99) / 1e6,
      static_cast<double>(unaligned.latency.p99) / 1e6,
      static_cast<long long>(unaligned.overtaken_records));
  std::printf(
      "Expected shape (paper): the aligned tail carries the marker-stall\n"
      "spike at every checkpoint; unaligned keeps processing through the\n"
      "barrier, flattening p99/p999 toward the plain engine's.\n");
  rows.insert(rows.end(), tail.begin(), tail.end());
  sq::bench::WriteJson(rows);
  return 0;
}
