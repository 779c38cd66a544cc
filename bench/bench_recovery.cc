// Durable-snapshot recovery benchmark (no paper figure — the durability
// subsystem is this reproduction's extension beyond the in-memory window):
//
//  1. commit-path overhead — snapshot 2PC latency with the durable log off
//     vs on (fsync on commit), across state sizes;
//  2. cold recovery — time to rebuild the grid's snapshot tables from the
//     log (`ReplayInto`) vs state size, with the resulting durable floor;
//  3. modeled kill-and-restart downtime — the cluster simulator's view of
//     replay-from-source vs reload-from-local-log recovery.
//
// Emits BENCH_recovery.json next to the binary's working directory.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sim/cluster_sim.h"

namespace sq::bench {
namespace {

struct CommitRow {
  int64_t keys = 0;
  std::string mode;
  int64_t p50_nanos = 0;
  int64_t p99_nanos = 0;
  int64_t persisted_bytes = 0;
};

struct RecoveryRow {
  int64_t keys = 0;
  int64_t replay_ms = 0;
  int64_t records = 0;
  int64_t entries_rebuilt = 0;
};

std::string MakeTempDir() {
  std::string tmpl = "/tmp/sq_bench_recovery_XXXXXX";
  char* dir = ::mkdtemp(tmpl.data());
  if (dir == nullptr) Fail("mkdtemp", Status::Internal(std::strerror(errno)));
  return dir;
}

CommitRow RunCommitConfig(int64_t keys, const char* mode, int checkpoints) {
  const bool durable = std::string(mode) != "off";
  const std::string dir = durable ? MakeTempDir() : "";
  auto harness =
      StartDeliveryHarness(keys, /*squery=*/true, /*incremental=*/false,
                           /*checkpoint_interval_ms=*/0, /*churn_rate=*/0.0,
                           /*retained_versions=*/2, dir);
  Histogram* phase2 = harness->metrics.GetHistogram("checkpoint.phase2_nanos");
  Check(harness->job->TriggerCheckpoint(), "warm-up checkpoint");
  phase2->Reset();
  for (int i = 0; i < checkpoints; ++i) {
    Check(harness->job->TriggerCheckpoint(), "checkpoint");
  }
  const Histogram::Summary s = phase2->Summarize();
  CommitRow row;
  row.keys = keys;
  row.mode = mode;
  row.p50_nanos = s.p50;
  row.p99_nanos = s.p99;
  if (harness->log != nullptr) {
    row.persisted_bytes = harness->log->Stats().persisted_bytes;
  }
  char label[64];
  std::snprintf(label, sizeof(label), "%ldk keys, durability %s",
                static_cast<long>(keys / 1000), mode);
  PrintLatencyRow(label, *phase2);
  harness = nullptr;
  if (!dir.empty()) std::filesystem::remove_all(dir);
  return row;
}

RecoveryRow RunColdRecovery(int64_t keys, int checkpoints) {
  const std::string dir = MakeTempDir();
  {
    auto harness =
        StartDeliveryHarness(keys, /*squery=*/true, /*incremental=*/false,
                             /*checkpoint_interval_ms=*/0, /*churn_rate=*/0.0,
                             /*retained_versions=*/2, dir);
    for (int i = 0; i < checkpoints; ++i) {
      Check(harness->job->TriggerCheckpoint(), "checkpoint");
    }
  }  // harness destroyed: "the node died"

  RecoveryRow row;
  row.keys = keys;
  const auto start = std::chrono::steady_clock::now();
  auto log = Check(storage::SnapshotLog::Open(storage::StorageOptions{.dir = dir}),
                   "reopen");
  kv::Grid grid(kv::GridConfig{.node_count = 3, .partition_count = 24,
                               .backup_count = 0});
  const auto info =
      Check(log->ReplayInto(&grid, /*retained_versions=*/2), "replay");
  row.replay_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  row.records = info.records_scanned;
  row.entries_rebuilt = static_cast<int64_t>(grid.TotalSnapshotEntries());
  std::printf(
      "%-28s open+replay=%6lld ms  records=%-9lld entries=%-9lld "
      "latest_committed=%lld\n",
      (std::to_string(keys / 1000) + "k keys").c_str(),
      static_cast<long long>(row.replay_ms),
      static_cast<long long>(row.records),
      static_cast<long long>(row.entries_rebuilt),
      static_cast<long long>(info.latest_committed));
  std::filesystem::remove_all(dir);
  return row;
}

void WriteJson(const std::vector<CommitRow>& commits,
               const std::vector<RecoveryRow>& recoveries,
               double downtime_replay_s, double downtime_durable_s) {
  std::vector<Json> commit_rows;
  for (const CommitRow& r : commits) {
    commit_rows.push_back(Json::Object({{"keys", r.keys},
                                        {"mode", r.mode},
                                        {"p50_nanos", r.p50_nanos},
                                        {"p99_nanos", r.p99_nanos},
                                        {"persisted_bytes", r.persisted_bytes}}));
  }
  std::vector<Json> recovery_rows;
  for (const RecoveryRow& r : recoveries) {
    recovery_rows.push_back(Json::Object({{"keys", r.keys},
                                          {"replay_ms", r.replay_ms},
                                          {"records", r.records},
                                          {"entries_rebuilt", r.entries_rebuilt}}));
  }
  WriteReport("recovery",
              {{"commit_overhead", Json::Array(commit_rows)},
               {"cold_recovery", Json::Array(recovery_rows)},
               {"modeled_downtime_s",
                Json::Object({{"replay_from_source", downtime_replay_s},
                              {"durable_log", downtime_durable_s}})}});
}

}  // namespace
}  // namespace sq::bench

int main() {
  const double scale = sq::bench::BenchScale();
  const int checkpoints = static_cast<int>(10 * scale) + 3;

  sq::bench::PrintHeader(
      "Recovery 1/3",
      "snapshot 2PC latency: durable log off vs on (fsync on commit)");
  std::vector<sq::bench::CommitRow> commits;
  for (const int64_t keys : {int64_t{1000}, int64_t{10000},
                             static_cast<int64_t>(50000 * scale) + 1000}) {
    commits.push_back(sq::bench::RunCommitConfig(keys, "off", checkpoints));
    commits.push_back(sq::bench::RunCommitConfig(keys, "on", checkpoints));
  }

  sq::bench::PrintHeader(
      "Recovery 2/3",
      "cold recovery: reopen the log and rebuild snapshot tables");
  std::vector<sq::bench::RecoveryRow> recoveries;
  for (const int64_t keys : {int64_t{1000}, int64_t{10000},
                             static_cast<int64_t>(50000 * scale) + 1000}) {
    recoveries.push_back(sq::bench::RunColdRecovery(keys, checkpoints));
  }

  sq::bench::PrintHeader(
      "Recovery 3/3",
      "modeled kill-and-restart downtime (cluster simulator)");
  sq::sim::ClusterConfig cluster;
  sq::sim::FailureScenario scenario;
  scenario.state_gb = 1.0;
  scenario.durable = false;
  sq::sim::KillRestartOutcome replay_outcome;
  sq::sim::SimulateKillRestart(cluster, scenario, 1e6, 60.0, &replay_outcome);
  scenario.durable = true;
  sq::sim::KillRestartOutcome durable_outcome;
  sq::sim::SimulateKillRestart(cluster, scenario, 1e6, 60.0,
                               &durable_outcome);
  std::printf(
      "replay-from-source: downtime=%.2fs drain=%.2fs  |  durable log: "
      "downtime=%.2fs drain=%.2fs\n",
      replay_outcome.downtime_s, replay_outcome.drain_s,
      durable_outcome.downtime_s, durable_outcome.drain_s);

  sq::bench::WriteJson(commits, recoveries, replay_outcome.downtime_s,
                       durable_outcome.downtime_s);
  return 0;
}
