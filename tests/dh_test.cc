#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/clock.h"
#include "dataflow/execution.h"
#include "dh/delivery.h"
#include "sql/parser.h"
#include "kv/grid.h"
#include "query/query_service.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"

namespace sq::dh {
namespace {

TEST(DeliveryGeneratorTest, OrderStateMachineAdvancesPerLap) {
  DeliveryConfig config;
  config.num_orders = 10;
  const auto first = OrderStatusAt(config, 3, 0, 0);
  EXPECT_EQ(first.payload.Get("orderState").ToString(), "ORDER_RECEIVED");
  const auto second = OrderStatusAt(config, 13, 0, 0);
  EXPECT_EQ(second.payload.Get("orderState").ToString(), "VENDOR_ACCEPTED");
  // Beyond the terminal state the order stays DELIVERED.
  const auto last = OrderStatusAt(config, 3 + 10 * 50, 0, 0);
  EXPECT_EQ(last.payload.Get("orderState").ToString(), "DELIVERED");
}

TEST(DeliveryGeneratorTest, InfoIsStablePerOrder) {
  DeliveryConfig config;
  config.num_orders = 100;
  const auto a = OrderInfoAt(config, 5, 0, 0);
  const auto b = OrderInfoAt(config, 105, 0, 0);  // same order, later lap
  EXPECT_EQ(a.payload.Get("deliveryZone"), b.payload.Get("deliveryZone"));
  EXPECT_EQ(a.payload.Get("vendorCategory"),
            b.payload.Get("vendorCategory"));
}

TEST(DeliveryGeneratorTest, LateFractionIsRespected) {
  DeliveryConfig config;
  config.num_orders = 20000;
  config.late_fraction = 0.3;
  int64_t late = 0;
  const int64_t now = 1000LL * 1000 * 1000;
  for (int64_t order = 0; order < config.num_orders; ++order) {
    const auto r = OrderStatusAt(config, order, 0, now);
    if (r.payload.Get("lateTimestamp").AsInt64() < now) ++late;
  }
  EXPECT_NEAR(static_cast<double>(late) / config.num_orders, 0.3, 0.02);
}

TEST(DeliveryGeneratorTest, RiderLocationsLookSane) {
  DeliveryConfig config;
  const auto r = RiderLocationAt(config, 123, 0, 777);
  EXPECT_GE(r.payload.Get("lat").AsDouble(), 52.0);
  EXPECT_LT(r.payload.Get("lat").AsDouble(), 54.1);
  EXPECT_EQ(r.payload.Get("updatedAt").AsInt64(), 777);
  EXPECT_EQ(r.key.AsInt64(), 123 % config.num_riders);
}

TEST(DeliveryQueriesTest, AllFourParse) {
  for (const std::string& q : {Query1(), Query2(), Query3(), Query4()}) {
    auto stmt = sql::ParseSelect(q);
    EXPECT_TRUE(stmt.ok()) << stmt.status() << "\n" << q;
  }
}

// End-to-end: run the monitoring job to completion, checkpoint, and compare
// Queries 1-4 against the oracle.
TEST(DeliveryPipelineTest, Queries1To4MatchReference) {
  DeliveryConfig config;
  config.num_orders = 600;
  config.num_riders = 50;
  // 3.5 laps: orders settle in different states across the machine.
  config.total_events = 2100;
  config.linger = true;  // keep the job alive so the final state can be
                         // checkpointed and queried

  kv::Grid grid(kv::GridConfig{.node_count = 3, .partition_count = 24,
                               .backup_count = 0});
  state::SnapshotRegistry registry(&grid, {.retained_versions = 2,
                                           .async_prune = false});
  query::QueryService service(&grid, &registry);

  dataflow::JobGraph graph =
      BuildDeliveryGraph(config, /*operator_parallelism=*/2, nullptr);
  state::SQueryConfig state_config;
  state_config.parallelism = 2;
  dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = 0;  // manual checkpoint below
  job_config.partitioner = &grid.partitioner();
  job_config.listener = &registry;
  job_config.state_store_factory =
      state::MakeSQueryStateStoreFactory(&grid, state_config);

  auto job = dataflow::Job::Create(graph, std::move(job_config));
  ASSERT_TRUE(job.ok()) << job.status();
  ASSERT_TRUE((*job)->Start().ok());
  // Wait until all events are ingested (sources linger afterwards), then
  // checkpoint the settled state. The stateful operators see every event
  // (the sink only sees deduplicated updates).
  while ((*job)->ProcessedCount(kOrderInfoVertex) < config.total_events ||
         (*job)->ProcessedCount(kOrderStateVertex) < config.total_events ||
         (*job)->ProcessedCount(kRiderLocationVertex) < config.total_events) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE((*job)->IsRunning());
  }
  auto ckpt = (*job)->TriggerCheckpoint();
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();

  const DeliveryReference ref =
      ComputeReference(config, config.total_events, UnixMicros());

  struct Case {
    std::string sql;
    const std::map<std::string, int64_t>* expected;
    std::string group_column;
  };
  const Case cases[] = {
      {Query1(), &ref.q1_late_per_zone, "deliveryZone"},
      {Query2(), &ref.q2_ready_per_category, "vendorCategory"},
      {Query3(), &ref.q3_preparing_per_zone, "deliveryZone"},
      {Query4(), &ref.q4_transit_per_zone, "deliveryZone"},
  };
  // Every variant of the execution matrix must equal the model, and the
  // row engine must match the vectorized one row for row.
  for (const Case& c : cases) {
    for (const int32_t parallelism : {1, 2, 8}) {
      for (const bool pushdown : {true, false}) {
        query::QueryOptions options;
        options.parallelism = parallelism;
        options.pushdown = pushdown;
        const std::string label = c.sql + " [parallelism=" +
                                  std::to_string(parallelism) +
                                  " pushdown=" + std::to_string(pushdown) +
                                  "]";
        auto result = service.Execute(c.sql, options);
        ASSERT_TRUE(result.ok()) << result.status() << "\n" << label;
        std::map<std::string, int64_t> actual;
        for (size_t i = 0; i < result->RowCount(); ++i) {
          actual[result->At(i, c.group_column).ToString()] =
              result->At(i, "COUNT(*)").AsInt64();
        }
        EXPECT_EQ(actual, *c.expected) << label;

        options.force_row_scan = true;
        auto row_engine = service.Execute(c.sql, options);
        ASSERT_TRUE(row_engine.ok()) << row_engine.status() << "\n" << label;
        EXPECT_EQ(row_engine->columns, result->columns) << label;
        EXPECT_EQ(row_engine->rows, result->rows) << label << " row-engine";
      }
    }
  }

  // Rider state is queryable too (used by the Fig. 14 experiment).
  auto riders = service.Execute(
      "SELECT COUNT(*) AS n FROM snapshot_riderlocation");
  ASSERT_TRUE(riders.ok()) << riders.status();
  EXPECT_EQ(riders->At(0, "n").AsInt64(), config.num_riders);

  ASSERT_TRUE((*job)->Stop().ok());
}

}  // namespace
}  // namespace sq::dh
