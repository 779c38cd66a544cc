// Delivery Hero Q-commerce monitoring (paper Section VIII): ingest order
// info / order status / rider location streams and answer the paper's four
// real-time business queries from the stream processor's own state — no
// cache layer, no extra database (Fig. 7 vs Fig. 1).
//
// Build & run:  ./build/examples/delivery_monitor

#include <chrono>
#include <cstdio>
#include <thread>

#include "dataflow/execution.h"
#include "dh/delivery.h"
#include "kv/grid.h"
#include "query/query_service.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"

int main() {
  sq::kv::Grid grid(sq::kv::GridConfig{.node_count = 3,
                                       .partition_count = 24,
                                       .backup_count = 1});
  sq::state::SnapshotRegistry registry(
      &grid, {.retained_versions = 2, .async_prune = true});
  sq::query::QueryService query(&grid, &registry);

  sq::dh::DeliveryConfig config;
  config.num_orders = 4000;
  config.num_riders = 300;
  config.total_events = -1;  // continuous operation
  config.target_rate = 30000.0;

  sq::dataflow::JobGraph graph =
      sq::dh::BuildDeliveryGraph(config, /*operator_parallelism=*/2, nullptr);
  sq::state::SQueryConfig state_config;
  state_config.parallelism = 2;
  sq::dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = 300;
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
  std::printf("order/rider streams running; monitoring via S-QUERY...\n");
  registry.WaitForCommit(1, 5000);

  struct NamedQuery {
    const char* title;
    std::string sql;
  };
  const NamedQuery queries[] = {
      {"Query 1 — late orders (in preparation too long) per area",
       sq::dh::Query1()},
      {"Query 2 — deliveries ready for pickup per shop category",
       sq::dh::Query2()},
      {"Query 3 — deliveries being prepared per area", sq::dh::Query3()},
      {"Query 4 — deliveries in transit per area", sq::dh::Query4()},
  };

  bool failed = false;
  for (int round = 0; round < 2; ++round) {
    std::printf("\n===== monitoring round %d (snapshot %lld) =====\n",
                round + 1,
                static_cast<long long>(registry.latest_committed()));
    for (const NamedQuery& nq : queries) {
      auto result = query.Execute(nq.sql);
      if (!result.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", nq.title,
                     result.status().ToString().c_str());
        failed = true;
        continue;
      }
      std::printf("\n%s\n%s", nq.title, result->ToString(8).c_str());
    }
    // Rider positions via the direct object interface (Fig. 14's path).
    auto riders = query.GetSnapshotObjects(
        "riderlocation",
        {sq::kv::Value(int64_t{1}), sq::kv::Value(int64_t{2})});
    if (!riders.ok()) {
      std::fprintf(stderr, "rider lookup failed: %s\n",
                   riders.status().ToString().c_str());
      failed = true;
    } else {
      std::printf("\nrider positions (direct object interface):\n");
      for (const auto& [key, obj] : *riders) {
        std::printf("  rider %s -> lat=%.4f lon=%.4f\n",
                    key.ToString().c_str(), obj.Get("lat").AsDouble(),
                    obj.Get("lon").AsDouble());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
  }

  (void)(*job)->Stop();
  std::printf("\nstopped.\n");
  return failed ? 1 : 0;
}
