// Engine self-introspection: the `__metrics` / `__operators` /
// `__checkpoints` system tables must return live statistics — through SQL
// and through the direct object interface — while a NEXMark Q6 job runs,
// and Job::Create must reject state-store factories whose partitioner
// breaks colocation with the job.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "dataflow/execution.h"
#include "kv/grid.h"
#include "nexmark/nexmark.h"
#include "query/query_service.h"
#include "sql/result_set.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"

namespace sq {
namespace {

/// A running NEXMark Q6 pipeline with full instrumentation and the system
/// tables registered.
struct Q6Harness {
  MetricsRegistry metrics;
  std::unique_ptr<kv::Grid> grid;
  std::unique_ptr<state::SnapshotRegistry> registry;
  std::unique_ptr<query::QueryService> query;
  std::unique_ptr<dataflow::Job> job;

  ~Q6Harness() {
    if (job != nullptr) (void)job->Stop();
  }
};

std::unique_ptr<Q6Harness> StartQ6Harness() {
  auto h = std::make_unique<Q6Harness>();
  h->grid = std::make_unique<kv::Grid>(kv::GridConfig{
      .node_count = 3, .partition_count = 16, .backup_count = 0});
  h->registry = std::make_unique<state::SnapshotRegistry>(
      h->grid.get(),
      state::SnapshotRegistry::Options{.retained_versions = 2,
                                       .async_prune = false,
                                       .metrics = &h->metrics});
  h->query = std::make_unique<query::QueryService>(
      h->grid.get(), h->registry.get(), nullptr, &h->metrics);

  nexmark::NexmarkConfig config;
  config.num_sellers = 50;
  config.bids_per_auction = 3;
  config.total_events = -1;  // unbounded: the job stays live while we query
  config.target_rate = 20000.0;
  dataflow::JobGraph graph = nexmark::BuildQ6Graph(
      config, /*source_parallelism=*/1, /*operator_parallelism=*/2,
      /*latency=*/nullptr);

  state::SQueryConfig state_config;
  state_config.parallelism = 2;
  state_config.metrics = &h->metrics;
  dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = 0;  // checkpoints triggered manually
  job_config.partitioner = &h->grid->partitioner();
  job_config.listener = h->registry.get();
  job_config.metrics = &h->metrics;
  job_config.state_store_factory =
      state::MakeSQueryStateStoreFactory(h->grid.get(), state_config);

  auto job = dataflow::Job::Create(graph, std::move(job_config));
  EXPECT_TRUE(job.ok()) << job.status().ToString();
  if (!job.ok()) return nullptr;
  h->job = std::move(*job);
  h->query->RegisterEngineIntrospection(h->job.get());
  EXPECT_TRUE(h->job->Start().ok());
  // Let some records flow before introspecting.
  while (h->job->ProcessedCount(nexmark::kAverageVertex) < 200) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return h;
}

int64_t FindInt(const sql::ResultSet& rs, size_t row,
                const std::string& column) {
  for (size_t c = 0; c < rs.columns.size(); ++c) {
    if (rs.columns[c] == column) return rs.rows[row][c].AsInt64();
  }
  ADD_FAILURE() << "no column " << column;
  return -1;
}

TEST(IntrospectionTest, OperatorsTableReturnsLiveStatsThroughSql) {
  auto h = StartQ6Harness();
  ASSERT_NE(h, nullptr);

  auto result = h->query->Execute(
      "SELECT vertex, instance, records_in, records_out, queue_capacity "
      "FROM __operators ORDER BY vertex, instance");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // bids(1) + winningbids(2) + q6avg(2) + sink(1) workers.
  ASSERT_EQ(result->rows.size(), 6u);

  int64_t total_in = 0;
  int64_t total_out = 0;
  for (size_t r = 0; r < result->rows.size(); ++r) {
    total_in += FindInt(*result, r, "records_in");
    total_out += FindInt(*result, r, "records_out");
    EXPECT_GT(FindInt(*result, r, "queue_capacity"), 0);
  }
  EXPECT_GT(total_in, 0);
  EXPECT_GT(total_out, 0);

  // The acceptance query of the issue: rank workers by tail latency.
  auto ranked = h->query->Execute(
      "SELECT vertex, p99_nanos FROM __operators ORDER BY p99_nanos DESC");
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_EQ(ranked->rows.size(), 6u);
  for (size_t r = 1; r < ranked->rows.size(); ++r) {
    EXPECT_GE(FindInt(*ranked, r - 1, "p99_nanos"),
              FindInt(*ranked, r, "p99_nanos"));
  }
}

TEST(IntrospectionTest, CheckpointsAndMetricsTablesReflectCommits) {
  auto h = StartQ6Harness();
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->job->TriggerCheckpoint().ok());
  ASSERT_TRUE(h->job->TriggerCheckpoint().ok());

  auto ckpts = h->query->Execute(
      "SELECT id, state, phase1_nanos FROM __checkpoints "
      "WHERE state = 'committed' ORDER BY id");
  ASSERT_TRUE(ckpts.ok()) << ckpts.status().ToString();
  ASSERT_GE(ckpts->rows.size(), 2u);
  EXPECT_GT(FindInt(*ckpts, 0, "phase1_nanos"), 0);

  // The registry-backed metrics are visible through SQL, with live values.
  auto committed = h->query->Execute(
      "SELECT value FROM __metrics WHERE name = 'checkpoint.committed'");
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  ASSERT_EQ(committed->rows.size(), 1u);
  EXPECT_GE(FindInt(*committed, 0, "value"), 2);

  auto entries = h->query->Execute(
      "SELECT value FROM __metrics WHERE name = 'state.snapshot_entries'");
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->rows.size(), 1u);
  EXPECT_GT(FindInt(*entries, 0, "value"), 0);

  // Aggregation over the engine's own histograms works like any table.
  auto agg = h->query->Execute(
      "SELECT COUNT(*) AS n FROM __metrics WHERE kind = 'histogram' "
      "AND count > 0");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_GT(FindInt(*agg, 0, "n"), 0);
}

TEST(IntrospectionTest, DirectObjectInterfaceMatchesSql) {
  auto h = StartQ6Harness();
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->job->TriggerCheckpoint().ok());

  auto rows = h->query->ScanSystemObjects("__operators");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 6u);
  for (const kv::Object& row : *rows) {
    EXPECT_TRUE(row.Has("vertex"));
    EXPECT_TRUE(row.Has("records_in"));
    EXPECT_TRUE(row.Has("p99_nanos"));
  }

  auto ckpt_rows = h->query->ScanSystemObjects("__checkpoints");
  ASSERT_TRUE(ckpt_rows.ok()) << ckpt_rows.status().ToString();
  ASSERT_GE(ckpt_rows->size(), 1u);
  EXPECT_TRUE(ckpt_rows->front().Get("committed").bool_value());

  auto metric_rows = h->query->ScanSystemObjects("__metrics");
  ASSERT_TRUE(metric_rows.ok()) << metric_rows.status().ToString();
  EXPECT_GT(metric_rows->size(), 0u);

  EXPECT_TRUE(
      h->query->ScanSystemObjects("__no_such_table").status().IsNotFound());

  // Queries over system tables are themselves metered.
  (void)h->query->Execute("SELECT COUNT(*) FROM __operators");
  EXPECT_GT(h->metrics.GetCounter("query.count")->Value(), 0);
}

TEST(IntrospectionTest, SystemTablesReadableAtEveryIsolationLevel) {
  auto h = StartQ6Harness();
  ASSERT_NE(h, nullptr);
  for (state::IsolationLevel level :
       {state::IsolationLevel::kReadUncommitted,
        state::IsolationLevel::kReadCommittedNoFailures,
        state::IsolationLevel::kSnapshotIsolation,
        state::IsolationLevel::kSerializable}) {
    query::QueryOptions options;
    options.isolation = level;
    auto result =
        h->query->Execute("SELECT COUNT(*) AS n FROM __operators", options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(FindInt(*result, 0, "n"), 6);
  }
}

/// System tables go through the same scan machinery as state tables
/// (pushed-down filters, point lookups, fused aggregation). With the engine
/// stopped they hold still, so every query must return exactly the rows of
/// filtering ScanSystemObjects by hand, in the same order.
TEST(IntrospectionTest, SystemTableQueriesMatchHandFilteredRows) {
  auto h = StartQ6Harness();
  ASSERT_NE(h, nullptr);
  auto first = h->job->TriggerCheckpoint();
  auto second = h->job->TriggerCheckpoint();
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(h->job->Stop().ok());
  // Unmetered, so its own queries do not change the `__metrics` they read.
  query::QueryService service(h->grid.get(), h->registry.get());
  service.RegisterEngineIntrospection(h->job.get(), &h->metrics);

  // `query` must return `columns` of the `table` rows `keep` accepts, in
  // table order. Returns the query's stats.
  auto check = [&](const std::string& query, const std::string& table,
                   const std::vector<std::string>& columns,
                   const std::function<bool(const kv::Object&)>& keep) {
    auto result = service.ExecuteWithStats(query);
    auto all = service.ScanSystemObjects(table);
    EXPECT_TRUE(result.ok() && all.ok()) << query;
    if (!result.ok() || !all.ok()) return sql::ExecStats{};
    std::vector<sql::Row> expected;
    for (const kv::Object& row : *all) {
      if (!keep(row)) continue;
      expected.emplace_back();
      for (const std::string& c : columns) expected.back().push_back(row.Get(c));
    }
    EXPECT_FALSE(expected.empty()) << query;
    EXPECT_EQ(result->result.columns, columns) << query;
    EXPECT_EQ(result->result.rows, expected) << query;
    return result->stats;
  };
  auto key_in = [](std::vector<kv::Value> keys) {
    return [keys](const kv::Object& row) {
      return std::find(keys.begin(), keys.end(), row.Get("key")) != keys.end();
    };
  };
  // GROUP BY keeps groups in first-seen order, each represented by its
  // first row.
  auto first_of_group = [](const std::string& column) {
    return [column, seen = std::make_shared<std::set<kv::Value>>()](
               const kv::Object& row) {
      return seen->insert(row.Get(column)).second;
    };
  };

  check("SELECT name, value, p99 FROM __metrics "
        "WHERE kind = 'histogram' AND count > 0",
        "__metrics", {"name", "value", "p99"}, [](const kv::Object& row) {
          return row.Get("kind") == kv::Value("histogram") &&
                 row.Get("count").AsInt64() > 0;
        });
  check("SELECT kind, name FROM __metrics GROUP BY kind", "__metrics",
        {"kind", "name"}, first_of_group("kind"));
  EXPECT_TRUE(check("SELECT key, value FROM __metrics "
                    "WHERE key = 'checkpoint.committed'",
                    "__metrics", {"key", "value"},
                    key_in({kv::Value("checkpoint.committed")}))
                  .used_point_lookup);
  sql::ExecStats stats = check(
      "SELECT key, value FROM __metrics WHERE key IN "
      "('state.snapshot_entries', 'no.such.metric', 'checkpoint.committed')",
      "__metrics", {"key", "value"},
      key_in({kv::Value("checkpoint.committed"),
              kv::Value("state.snapshot_entries")}));
  EXPECT_TRUE(stats.used_point_lookup);
  EXPECT_EQ(stats.rows_scanned, 2);

  check("SELECT id, state, phase1_nanos FROM __checkpoints "
        "WHERE state = 'committed'",
        "__checkpoints", {"id", "state", "phase1_nanos"},
        [](const kv::Object& row) {
          return row.Get("state") == kv::Value("committed");
        });
  check("SELECT state, id FROM __checkpoints GROUP BY state", "__checkpoints",
        {"state", "id"}, first_of_group("state"));
  EXPECT_TRUE(check("SELECT id, mode FROM __checkpoints WHERE key = " +
                        std::to_string(*second),
                    "__checkpoints", {"id", "mode"},
                    key_in({kv::Value(*second)}))
                  .used_point_lookup);
  EXPECT_TRUE(check("SELECT id FROM __checkpoints WHERE key IN (" +
                        std::to_string(*second) + ", " +
                        std::to_string(*first) + ")",
                    "__checkpoints", {"id"},
                    key_in({kv::Value(*first), kv::Value(*second)}))
                  .used_point_lookup);
}

TEST(ColocationTest, MismatchedFactoryPartitionerIsRejected) {
  kv::Grid grid(kv::GridConfig{
      .node_count = 3, .partition_count = 16, .backup_count = 0});
  nexmark::NexmarkConfig config;
  config.total_events = 100;
  dataflow::JobGraph graph =
      nexmark::BuildQ6Graph(config, 1, 2, /*latency=*/nullptr);

  state::SQueryConfig state_config;
  state_config.parallelism = 2;

  // The factory declares the grid's 16-way partitioner, but the job is given
  // a different one: silent colocation break, must be rejected.
  const kv::Partitioner other(64);
  dataflow::JobConfig mismatched;
  mismatched.partitioner = &other;
  mismatched.state_store_factory =
      state::MakeSQueryStateStoreFactory(&grid, state_config);
  auto job = dataflow::Job::Create(graph, std::move(mismatched));
  ASSERT_FALSE(job.ok());
  EXPECT_TRUE(job.status().IsInvalidArgument());

  // Leaving JobConfig::partitioner unset pits the job's owned default
  // (kDefaultPartitionCount) against the grid's 16: also a mismatch.
  dataflow::JobConfig defaulted;
  defaulted.state_store_factory =
      state::MakeSQueryStateStoreFactory(&grid, state_config);
  ASSERT_NE(grid.partitioner().partition_count(),
            kv::kDefaultPartitionCount);
  auto job2 = dataflow::Job::Create(graph, std::move(defaulted));
  ASSERT_FALSE(job2.ok());
  EXPECT_TRUE(job2.status().IsInvalidArgument());

  // Sharing the grid's partitioner (the documented contract) works.
  dataflow::JobConfig shared;
  shared.partitioner = &grid.partitioner();
  shared.state_store_factory =
      state::MakeSQueryStateStoreFactory(&grid, state_config);
  auto job3 = dataflow::Job::Create(graph, std::move(shared));
  EXPECT_TRUE(job3.ok()) << job3.status().ToString();
}

TEST(ColocationTest, GridDefaultsToTheSharedPartitionCount) {
  // The silent break fixed here: Grid used to default to 32 partitions while
  // jobs fell back to 271 — the same constant must back both defaults.
  kv::Grid grid(kv::GridConfig{});
  EXPECT_EQ(grid.partitioner().partition_count(), kv::kDefaultPartitionCount);
  EXPECT_EQ(kv::kDefaultPartitionCount, 271);
}

}  // namespace
}  // namespace sq
