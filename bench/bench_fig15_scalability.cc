// Fig. 15: maximum sustainable throughput vs degree of parallelism
// (36/60/84 = 3/5/7 nodes × 12 workers) for snapshot intervals of
// 0.5s/1s/2s, with 10 JOIN queries/s sharing the nodes — on the calibrated
// cluster model (DESIGN.md §3), labelled "modeled" in BENCH_fig15.json.
// Measured numbers from real node processes over TCP come from sqbench's
// `cluster` workload.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "sim/cluster_sim.h"

namespace sq::bench {
namespace {

struct ModeledRow {
  int dop = 0;
  double interval_s = 0.0;
  double max_events_per_sec = 0.0;
};

std::vector<ModeledRow> RunModeled(double scale) {
  PrintHeader(
      "Figure 15 (modeled)",
      "max sustainable throughput vs DOP (36/60/84) × snapshot interval "
      "(0.5/1/2s), NEXMark q6 + 10 queries/s (cluster simulation)");
  std::printf("%-6s %-10s %16s %24s\n", "DOP", "interval", "max (M ev/s)",
              "normalized (k ev/s/DOP)");

  std::vector<ModeledRow> rows;
  const double duration_s = std::max(1.0, 2.5 * scale);
  for (const int nodes : {3, 5, 7}) {
    for (const double interval : {0.5, 1.0, 2.0}) {
      sim::ClusterConfig config;
      config.nodes = nodes;
      config.workers_per_node = 12;
      config.snapshot_interval_s = interval;
      // Snapshot pause for the 10K-key q6 state, split across the cluster's
      // workers; plus the paper's 10 JOIN queries/s competing for the same
      // cores, modelled as an extra per-interval pause.
      config.snapshot_pause_ms = 6.0 * 36.0 / sim::Dop(config);
      config.query_pause_ms = 1.0 * interval;  // 10 q/s × ~0.1ms each
      config.squery_per_event_us = 0.05;
      const double max_rate =
          sim::MaxSustainableThroughput(config, 5e6, duration_s);
      std::printf("%-6d %6.1fs %15.2fM %22.1fk\n", sim::Dop(config), interval,
                  max_rate / 1e6, max_rate / sim::Dop(config) / 1e3);
      rows.push_back(ModeledRow{sim::Dop(config), interval, max_rate});
    }
  }
  std::printf(
      "\nExpected shape (paper Fig. 15): throughput linear in DOP (R² >\n"
      "0.96; paper: 8.6-9.3M at DOP 36 up to 19-20.5M at DOP 84), with\n"
      "slightly higher sustainable throughput at longer snapshot "
      "intervals.\n");
  return rows;
}

void WriteJson(const std::vector<ModeledRow>& modeled) {
  std::vector<Json> rows;
  for (const ModeledRow& r : modeled) {
    rows.push_back(Json::Object({{"dop", r.dop},
                                 {"snapshot_interval_s", r.interval_s},
                                 {"max_events_per_sec", r.max_events_per_sec}}));
  }
  WriteReport("fig15", {{"modeled", Json::Array(rows)}});
}

}  // namespace
}  // namespace sq::bench

int main() {
  sq::bench::WriteJson(sq::bench::RunModeled(sq::bench::BenchScale()));
  return 0;
}
