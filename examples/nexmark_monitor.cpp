// NEXMark query 6 with ad-hoc state queries: the auction pipeline computes
// the average selling price of the last 10 auctions per seller; S-QUERY
// lets us *additionally* ask questions the topology never computes — top
// sellers, global statistics, in-flight auction counts — straight from the
// operators' snapshot state (paper Sections III and IX-E).
//
// Build & run:  ./build/examples/nexmark_monitor

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "dataflow/execution.h"
#include "kv/grid.h"
#include "nexmark/nexmark.h"
#include "query/query_service.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"

int main() {
  sq::kv::Grid grid(sq::kv::GridConfig{.node_count = 3,
                                       .partition_count = 24,
                                       .backup_count = 0});
  sq::state::SnapshotRegistry registry(
      &grid, {.retained_versions = 2, .async_prune = true});
  sq::query::QueryService query(&grid, &registry);

  sq::nexmark::NexmarkConfig config;
  config.num_sellers = 500;
  config.bids_per_auction = 5;
  config.total_events = -1;
  config.target_rate = 40000.0;

  sq::Histogram latency;
  sq::dataflow::JobGraph graph = sq::nexmark::BuildQ6Graph(
      config, /*source_parallelism=*/1, /*operator_parallelism=*/2,
      &latency);
  sq::state::SQueryConfig state_config;
  state_config.parallelism = 2;
  sq::dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = 400;
  job_config.partitioner = &grid.partitioner();
  job_config.listener = &registry;
  job_config.state_store_factory =
      sq::state::MakeSQueryStateStoreFactory(&grid, state_config);
  auto job = sq::dataflow::Job::Create(graph, std::move(job_config));
  if (!job.ok()) {
    std::fprintf(stderr, "%s\n", job.status().ToString().c_str());
    return 1;
  }
  (void)(*job)->Start();
  std::printf("NEXMark q6 pipeline running...\n");
  registry.WaitForCommit(2, 5000);

  // Runs one query and prints its result under `title`; a failed query is
  // reported and fails the run.
  bool failed = false;
  const auto show = [&](const char* title, const std::string& sql) {
    auto result = query.Execute(sql);
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", title,
                   result.status().ToString().c_str());
      failed = true;
      return;
    }
    std::printf("\n%s:\n%s", title, result->ToString().c_str());
  };

  // Top sellers by average selling price — the "10 latest auction prices"
  // state of the scalability experiment (Section IX-E).
  show("top sellers by q6 average selling price",
       "SELECT key AS seller, average, count FROM snapshot_q6avg "
       "ORDER BY average DESC LIMIT 5");

  // Global statistics over all sellers (never computed by the job itself).
  show("global selling-price statistics",
       "SELECT COUNT(*) AS sellers, AVG(average) AS global_avg, "
       "MIN(average) AS lo, MAX(average) AS hi FROM snapshot_q6avg");

  // Auctions still in flight inside the winning-bids operator: debugging
  // internal state that is normally a black box (Section III, Debugging).
  show("in-flight auctions (internal operator state!)",
       "SELECT COUNT(*) AS open_auctions, AVG(maxPrice) AS avg_leading_bid "
       "FROM snapshot_winningbids");

  // Join the two operators' states: sellers whose *leading* in-flight bid
  // exceeds their historical average.
  show("in-flight auctions leading above the seller's average",
       "SELECT COUNT(*) AS hot FROM snapshot_winningbids w JOIN "
       "snapshot_q6avg a USING(seller) WHERE maxPrice > average");

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const sq::Histogram::Summary s = latency.Summarize();
  std::printf("\nsource→sink latency while querying: p50=%.2fms p99=%.2fms "
              "(n=%lld)\n",
              static_cast<double>(s.p50) / 1e6,
              static_cast<double>(s.p99) / 1e6,
              static_cast<long long>(s.count));
  (void)(*job)->Stop();
  return failed ? 1 : 0;
}
