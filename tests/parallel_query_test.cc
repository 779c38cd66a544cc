// Differential tests for partition-parallel query execution: every query in
// the matrix must produce identical results at parallelism 1 / 2 / 8, with
// pushdown on and off, and with the row and columnar engines, and its
// EXPLAIN must agree with what running it reports. Also covers
// the pushdown instrumentation (rows_scanned / point lookups) and a concurrent
// writer+query hammer for the sanitizer jobs.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "kv/grid.h"
#include "query/query_service.h"
#include "sql/executor.h"
#include "state/isolation.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"
#include "storage/snapshot_log.h"

namespace sq::query {
namespace {

using kv::Object;
using kv::Value;

constexpr int32_t kPartitions = 32;
constexpr int64_t kKeys = 3000;

/// Rows ordered for multiset comparison. SQL row order without ORDER BY is
/// unspecified (and the point-lookup, full-scan and hash-grouping paths
/// genuinely order differently), so unordered queries compare sorted.
std::vector<sql::Row> SortedRows(const sql::ResultSet& result) {
  std::vector<sql::Row> rows = result.rows;
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool HasOrderBy(const std::string& sql) {
  return sql.find("ORDER BY") != std::string::npos;
}

class ParallelQueryTest : public ::testing::Test {
 protected:
  ParallelQueryTest()
      : grid_(kv::GridConfig{.node_count = 2,
                             .partition_count = kPartitions,
                             .backup_count = 0}),
        registry_(&grid_, {.retained_versions = 3, .async_prune = false}),
        service_(&grid_, &registry_),
        store_(&grid_, "metrics", 0, state::SQueryConfig{.parallelism = 1}),
        dims_(&grid_, "dims", 0, state::SQueryConfig{.parallelism = 1}),
        empty_(&grid_, "empty", 0, state::SQueryConfig{.parallelism = 1}) {
    // Deterministic pseudo-random table: integer columns only, so SUM/AVG
    // are exact under every accumulation order.
    std::mt19937_64 rng(20260806);
    for (int64_t ckpt = 1; ckpt <= 2; ++ckpt) {
      for (int64_t key = 0; key < kKeys; ++key) {
        Object o;
        o.Set("v", Value(static_cast<int64_t>(rng() % 1000)));
        o.Set("g", Value(key % 8));
        o.Set("zone", Value("zone-" + std::to_string(key % 5)));
        store_.Put(Value(key), std::move(o));
      }
      EXPECT_TRUE(store_.SnapshotTo(ckpt).ok());
      EXPECT_TRUE(empty_.SnapshotTo(ckpt).ok());
      registry_.OnCheckpointCommitted(ckpt);
    }
    for (int64_t g = 0; g < 8; ++g) {
      Object o;
      o.Set("g", Value(g));
      o.Set("name", Value("group-" + std::to_string(g)));
      dims_.Put(Value(g), std::move(o));
    }
  }

  QueryResult MustExecute(const std::string& sql,
                          const QueryOptions& options) {
    auto result = service_.ExecuteWithStats(sql, options);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? *result : QueryResult{};
  }

  /// EXPLAIN and execution share one analysis, so the plan must agree with
  /// the stats of running the query: the engine line with used_vectorized,
  /// the point-lookup line with used_point_lookup, the pushed-filter line
  /// with used_pushdown.
  void CheckExplainAgrees(const std::string& sql, const QueryOptions& options,
                          const sql::ExecStats& stats,
                          const std::string& variant) {
    auto plan = service_.Execute("EXPLAIN " + sql, options);
    ASSERT_TRUE(plan.ok()) << sql << variant << ": " << plan.status();
    bool engine = false;
    bool point = false;
    bool pushed = false;
    for (const sql::Row& row : plan->rows) {
      const std::string& line = row[0].string_value();
      engine = engine || line.find("engine: vectorized") != std::string::npos;
      point = point || line.rfind("Scan: point lookup", 0) == 0;
      pushed = pushed || line.find("pushed filter:") != std::string::npos;
    }
    EXPECT_EQ(engine, stats.used_vectorized) << sql << variant;
    EXPECT_EQ(point, stats.used_point_lookup) << sql << variant;
    EXPECT_EQ(pushed, stats.used_pushdown) << sql << variant;
  }

  /// Runs `sql` across the whole execution matrix and checks every variant
  /// against the (parallelism=1, pushdown=on) baseline, and its EXPLAIN
  /// against its stats.
  void CheckDifferential(const std::string& sql,
                         state::IsolationLevel isolation) {
    QueryOptions base;
    base.isolation = isolation;
    base.parallelism = 1;
    const sql::ResultSet expected = MustExecute(sql, base).result;
    const bool ordered = HasOrderBy(sql);
    const auto expected_rows = SortedRows(expected);
    for (int32_t parallelism : {1, 2, 8}) {
      for (bool pushdown : {true, false}) {
        QueryOptions options = base;
        options.parallelism = parallelism;
        options.pushdown = pushdown;
        const QueryResult run = MustExecute(sql, options);
        const sql::ResultSet& got = run.result;
        ASSERT_EQ(got.columns, expected.columns)
            << sql << " [parallelism=" << parallelism
            << " pushdown=" << pushdown << "]";
        if (ordered) {
          ASSERT_EQ(got.rows, expected.rows)
              << sql << " [parallelism=" << parallelism
              << " pushdown=" << pushdown << "]";
        } else {
          ASSERT_EQ(SortedRows(got), expected_rows)
              << sql << " [parallelism=" << parallelism
              << " pushdown=" << pushdown << "]";
        }
        // Columnar/row differential: the same variant with the vectorized
        // engine forced off must be *bit-identical*, row for row, unsorted —
        // both engines read the same batches in the same order, so
        // representatives, group first-seen order and ORDER BY tie-breaks
        // must all agree exactly.
        QueryOptions row_options = options;
        row_options.force_row_scan = true;
        const QueryResult row_run = MustExecute(sql, row_options);
        const sql::ResultSet& row_engine = row_run.result;
        ASSERT_EQ(row_engine.columns, got.columns)
            << sql << " [parallelism=" << parallelism
            << " pushdown=" << pushdown << " row-engine]";
        ASSERT_EQ(row_engine.rows, got.rows)
            << sql << " [parallelism=" << parallelism
            << " pushdown=" << pushdown << " row-engine]";
        const std::string variant =
            " [parallelism=" + std::to_string(parallelism) +
            " pushdown=" + std::to_string(pushdown) + "]";
        CheckExplainAgrees(sql, options, run.stats, variant);
        CheckExplainAgrees(sql, row_options, row_run.stats,
                           variant + " row-engine");
      }
    }
  }

  kv::Grid grid_;
  state::SnapshotRegistry registry_;
  QueryService service_;
  state::SQueryStateStore store_;
  state::SQueryStateStore dims_;
  /// Checkpointed with no rows: its scans read no batches.
  state::SQueryStateStore empty_;
};

TEST_F(ParallelQueryTest, LiveQueriesMatchAcrossMatrix) {
  const std::vector<std::string> queries = {
      "SELECT key, v FROM metrics",
      "SELECT key, v, zone FROM metrics WHERE v > 500 AND g = 3",
      "SELECT v FROM metrics WHERE key = 42",
      "SELECT v FROM metrics WHERE key IN (1, 5, 9, 2999, 7777)",
      "SELECT key FROM metrics WHERE key IN (1, 2, 3) AND key IN (2, 3, 4)",
      "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS mn, MAX(v) AS mx, "
      "AVG(v) AS a FROM metrics",
      "SELECT COUNT(*) AS n, SUM(v) AS s FROM metrics WHERE v > 250",
      "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM metrics GROUP BY g",
      "SELECT zone, COUNT(DISTINCT v) AS d FROM metrics GROUP BY zone",
      "SELECT DISTINCT g FROM metrics",
      "SELECT key, v FROM metrics ORDER BY v DESC, key LIMIT 10",
      "SELECT g, SUM(v) AS s FROM metrics GROUP BY g "
      "HAVING COUNT(*) > 10 ORDER BY s LIMIT 3",
      "SELECT m.key, m.v, d.name FROM metrics AS m JOIN dims AS d USING(g) "
      "WHERE m.v < 100",
  };
  for (const auto& level : {state::IsolationLevel::kReadUncommitted,
                            state::IsolationLevel::kReadCommittedNoFailures}) {
    for (const std::string& sql : queries) {
      CheckDifferential(sql, level);
    }
  }
}

TEST_F(ParallelQueryTest, SnapshotQueriesMatchAcrossMatrix) {
  const std::vector<std::string> queries = {
      "SELECT key, v, ssid FROM snapshot_metrics",
      "SELECT SUM(v) AS s FROM snapshot_metrics WHERE ssid = 1",
      "SELECT v FROM snapshot_metrics WHERE key = 7",
      "SELECT g, COUNT(*) AS n FROM snapshot_metrics WHERE v > 300 "
      "GROUP BY g ORDER BY g",
      "SELECT ssid, COUNT(*) AS n FROM snapshot_metrics__versions "
      "GROUP BY ssid ORDER BY ssid",
      "SELECT v, ssid FROM snapshot_metrics__versions WHERE key = 11",
      "SELECT key, v, ssid FROM snapshot_metrics__versions "
      "WHERE key IN (3, 6)",
      "SELECT COUNT(*) AS n FROM snapshot_empty",
      "SELECT key, ssid FROM snapshot_empty__versions",
      "SELECT ssid, COUNT(*) AS n FROM snapshot_empty__versions "
      "GROUP BY ssid",
  };
  for (const auto& level : {state::IsolationLevel::kSnapshotIsolation,
                            state::IsolationLevel::kSerializable}) {
    for (const std::string& sql : queries) {
      CheckDifferential(sql, level);
    }
  }
}

/// The vectorized engine must report itself, and the force-row knob must
/// genuinely disable it.
TEST_F(ParallelQueryTest, VectorizedEngineIsReportedAndCanBeForcedOff) {
  QueryOptions options;
  auto result = service_.ExecuteWithStats(
      "SELECT COUNT(*) AS n FROM snapshot_metrics", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats.used_vectorized);
  EXPECT_GT(result->stats.batches_scanned, 0);
  EXPECT_EQ(result->stats.batch_rows, kKeys);

  options.force_row_scan = true;
  result = service_.ExecuteWithStats(
      "SELECT COUNT(*) AS n FROM snapshot_metrics", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->stats.used_vectorized);
  EXPECT_EQ(result->stats.batches_scanned, 0);
  EXPECT_EQ(result->stats.batch_rows, 0);

  // Live tables batch too.
  options.force_row_scan = false;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  result = service_.ExecuteWithStats("SELECT COUNT(*) AS n FROM metrics",
                                     options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats.used_vectorized);
}

/// A snapshot table recovered from a durable log whose history spans several
/// segments, written by two log instances across a reopen, must serve both
/// engines with identical results.
TEST(ReplayedLogQueryTest, MultiSegmentHistoryServesBothEngines) {
  std::string tmpl = "/tmp/sq_mixed_segments_XXXXXX";
  const std::string dir = ::mkdtemp(tmpl.data());
  const auto entry = [](int64_t key, int64_t v, const std::string& zone) {
    Object o;
    o.Set("v", Value(v));
    o.Set("zone", Value(zone));
    return storage::SnapshotLog::DeltaEntry{Value(key), false, std::move(o)};
  };
  {
    // First writer: one segment per commit.
    auto log = storage::SnapshotLog::Open({.dir = dir, .segment_bytes = 1});
    ASSERT_TRUE(log.ok());
    std::vector<storage::SnapshotLog::DeltaEntry> delta;
    for (int64_t k = 0; k < 100; ++k) {
      delta.push_back(entry(k, k, "zone-" + std::to_string(k % 3)));
    }
    ASSERT_TRUE((*log)->AppendDelta("snapshot_mixed", 1, 0, delta).ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
  }
  kv::Grid grid(kv::GridConfig{});
  state::SnapshotRegistry registry(
      &grid, {.retained_versions = 3, .async_prune = false});
  {
    // Second writer appends segments to the same log after a reopen.
    auto log = storage::SnapshotLog::Open({.dir = dir, .segment_bytes = 1});
    ASSERT_TRUE(log.ok());
    std::vector<storage::SnapshotLog::DeltaEntry> delta;
    for (int64_t k = 0; k < 100; k += 7) delta.push_back(entry(k, k + 1000, "hot"));
    delta.push_back(entry(200, 42, "new"));
    delta.push_back(storage::SnapshotLog::DeltaEntry{Value(int64_t{3}), true,
                                                     Object()});
    ASSERT_TRUE((*log)->AppendDelta("snapshot_mixed", 2, 0, delta).ok());
    ASSERT_TRUE((*log)->Commit(2).ok());

    ASSERT_TRUE((*log)->ReplayInto(&grid, /*retained_versions=*/3).ok());
    registry.RestoreCommitted((*log)->CommittedIds());
  }
  ASSERT_EQ(registry.latest_committed(), 2);

  QueryService service(&grid, &registry);
  for (const std::string& sql : {
           std::string("SELECT key, v, zone, ssid FROM snapshot_mixed"),
           std::string("SELECT SUM(v) AS s, COUNT(*) AS n FROM "
                       "snapshot_mixed"),
           std::string("SELECT zone, COUNT(*) AS n FROM snapshot_mixed "
                       "GROUP BY zone ORDER BY zone"),
           std::string("SELECT key, v FROM snapshot_mixed WHERE v >= 1000"),
           std::string("SELECT key, v, ssid FROM snapshot_mixed__versions"),
           std::string("SELECT SUM(v) AS s FROM snapshot_mixed "
                       "WHERE ssid = 1"),
       }) {
    for (int32_t parallelism : {1, 8}) {
      QueryOptions columnar;
      columnar.parallelism = parallelism;
      auto vectorized = service.Execute(sql, columnar);
      ASSERT_TRUE(vectorized.ok()) << sql << ": " << vectorized.status();
      QueryOptions row = columnar;
      row.force_row_scan = true;
      auto rows = service.Execute(sql, row);
      ASSERT_TRUE(rows.ok()) << sql << ": " << rows.status();
      EXPECT_EQ(vectorized->columns, rows->columns) << sql;
      EXPECT_EQ(vectorized->rows, rows->rows)
          << sql << " [parallelism=" << parallelism << "]";
    }
  }
  // Spot checks across the segment boundary: count reflects the second
  // writer's insert and tombstone over the first writer's base.
  auto count = service.Execute("SELECT COUNT(*) AS n FROM snapshot_mixed", {});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0], Value(int64_t{100}));  // 100 base +1 -1
  auto hot = service.Execute(
      "SELECT COUNT(*) AS n FROM snapshot_mixed WHERE zone = 'hot'", {});
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->rows[0][0], Value(int64_t{15}));  // ceil(100/7), key 3 gone

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST_F(ParallelQueryTest, KeyPushdownScansOnlyMatchingPartitions) {
  QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  auto result = service_.ExecuteWithStats(
      "SELECT v FROM metrics WHERE key = 42", options);
  ASSERT_TRUE(result.ok()) << result.status();
  const sql::ExecStats stats = result->stats;
  EXPECT_TRUE(stats.used_point_lookup);
  EXPECT_TRUE(stats.used_pushdown);
  EXPECT_EQ(stats.rows_scanned, 1);
  EXPECT_EQ(stats.partitions_scanned, 1);

  // Full scan for contrast: every partition, every row.
  result = service_.ExecuteWithStats("SELECT COUNT(*) AS n FROM metrics",
                                     options);
  ASSERT_TRUE(result.ok()) << result.status();
  const sql::ExecStats full = result->stats;
  EXPECT_FALSE(full.used_point_lookup);
  EXPECT_EQ(full.rows_scanned, kKeys);
  EXPECT_EQ(full.partitions_scanned, kPartitions);
}

TEST_F(ParallelQueryTest, PredicatePushdownSkipsMaterialization) {
  QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  auto result = service_.ExecuteWithStats(
      "SELECT key FROM metrics WHERE v > 900 AND g = 1", options);
  ASSERT_TRUE(result.ok()) << result.status();
  const sql::ExecStats stats = result->stats;
  EXPECT_TRUE(stats.used_pushdown);
  EXPECT_EQ(stats.rows_scanned, kKeys);
  EXPECT_EQ(stats.rows_returned,
            static_cast<int64_t>(result->result.RowCount()));
  EXPECT_LT(stats.rows_returned, stats.rows_scanned);

  options.pushdown = false;
  result = service_.ExecuteWithStats(
      "SELECT key FROM metrics WHERE v > 900 AND g = 1", options);
  ASSERT_TRUE(result.ok()) << result.status();
  const sql::ExecStats off = result->stats;
  EXPECT_FALSE(off.used_pushdown);
  EXPECT_EQ(off.rows_returned, off.rows_scanned);  // everything materialized
}

TEST_F(ParallelQueryTest, ParallelismIsReportedAndCapped) {
  QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  options.parallelism = 4;
  auto result =
      service_.ExecuteWithStats("SELECT COUNT(*) AS n FROM metrics", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.parallelism, 4);
  options.parallelism = 1;
  result =
      service_.ExecuteWithStats("SELECT COUNT(*) AS n FROM metrics", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.parallelism, 1);
}

/// Aggregate errors must propagate deterministically out of parallel workers.
TEST_F(ParallelQueryTest, ErrorsPropagateFromParallelScan) {
  QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  options.parallelism = 8;
  auto result = service_.Execute("SELECT SUM(zone) AS s FROM metrics",
                                 options);
  EXPECT_FALSE(result.ok());
}

/// Sanitizer target: queries race against live writes. Results are not
/// asserted (live scans are intentionally not point-in-time); the invariant
/// under test is the absence of data races.
TEST_F(ParallelQueryTest, ConcurrentWritesAndParallelQueries) {
  std::atomic<bool> stop{false};
  std::thread writer([this, &stop] {
    std::mt19937_64 rng(7);
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Object o;
      o.Set("v", Value(static_cast<int64_t>(rng() % 1000)));
      o.Set("g", Value(i % 8));
      o.Set("zone", Value("zone-" + std::to_string(i % 5)));
      store_.Put(Value(i % kKeys), std::move(o));
      ++i;
    }
  });
  QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  options.parallelism = 8;
  for (int iter = 0; iter < 25; ++iter) {
    auto result = service_.Execute(
        "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM metrics "
        "WHERE v >= 0 GROUP BY g",
        options);
    ASSERT_TRUE(result.ok()) << result.status();
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace sq::query
