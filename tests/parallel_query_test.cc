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
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kv/grid.h"
#include "kv/partitioner.h"
#include "sql/scan_source.h"
#include "query/query_service.h"
#include "sql/executor.h"
#include "state/isolation.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"
#include "storage/snapshot_log.h"
#include "trace/trace.h"

namespace sq::query {
namespace {

using kv::Object;
using kv::Value;

constexpr int32_t kPartitions = 32;
constexpr int64_t kKeys = 3000;
constexpr int64_t kKindsKeys = 900;

/// One cell with its type and exact contents, so that rows compare
/// bit-identically: 2 and 2.0 differ, as do 0.0 and -0.0, while a NaN equals
/// a NaN of the same bits (Value equality would say otherwise for all
/// three).
std::string ExactCell(const Value& v) {
  if (v.is_double()) {
    const double d = v.double_value();
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "double:%016" PRIx64, bits);
    return buf;
  }
  const std::string text = v.ToString();
  return std::string(kv::ValueTypeToString(v.type())) + ":" +
         std::to_string(text.size()) + ":" + text;
}

/// Each row as one string of its exact cells.
std::vector<std::string> ExactRows(const std::vector<sql::Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const sql::Row& row : rows) {
    std::string line;
    for (const Value& v : row) line += ExactCell(v) + " ";
    out.push_back(std::move(line));
  }
  return out;
}

/// Rows ordered for multiset comparison. SQL row order without ORDER BY is
/// unspecified (and the point-lookup, full-scan and hash-grouping paths
/// genuinely order differently), so unordered queries compare sorted.
std::vector<std::string> SortedRows(const sql::ResultSet& result) {
  std::vector<std::string> rows = ExactRows(result.rows);
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
        extras_(&grid_, "extras", 0, state::SQueryConfig{.parallelism = 1}),
        dims_(&grid_, "dims", 0, state::SQueryConfig{.parallelism = 1}),
        empty_(&grid_, "empty", 0, state::SQueryConfig{.parallelism = 1}),
        kinds_(&grid_, "kinds", 0, state::SQueryConfig{.parallelism = 1}) {
    // Deterministic pseudo-random table: integer columns only, so SUM/AVG
    // are exact under every accumulation order.
    std::mt19937_64 rng(20260806);
    std::mt19937_64 kinds_rng(20261018);
    for (int64_t ckpt = 1; ckpt <= 2; ++ckpt) {
      for (int64_t key = 0; key < kKeys; ++key) {
        Object o;
        o.Set("v", Value(static_cast<int64_t>(rng() % 1000)));
        o.Set("g", Value(key % 8));
        o.Set("zone", Value("zone-" + std::to_string(key % 5)));
        store_.Put(Value(key), std::move(o));
      }
      // `extras` shares most of `metrics`' keys (every seventh is missing,
      // and it has keys `metrics` lacks), conflicts on `v`, and has a field
      // of its own, `w`, that every fourth row lacks.
      for (int64_t key = 0; key < kKeys + 100; ++key) {
        if (key % 7 == 3) continue;
        Object o;
        o.Set("v", Value(static_cast<int64_t>(rng() % 1000)));
        if (key % 4 != 0) o.Set("w", Value((key * ckpt) % 97));
        extras_.Put(Value(key), std::move(o));
      }
      for (int64_t key = 0; key < kKindsKeys; ++key) {
        kinds_.Put(Value(key), KindsRow(key, ckpt, &kinds_rng));
      }
      EXPECT_TRUE(store_.SnapshotTo(ckpt).ok());
      EXPECT_TRUE(extras_.SnapshotTo(ckpt).ok());
      EXPECT_TRUE(empty_.SnapshotTo(ckpt).ok());
      EXPECT_TRUE(kinds_.SnapshotTo(ckpt).ok());
      registry_.OnCheckpointCommitted(ckpt);
    }
    for (int64_t g = 0; g < 8; ++g) {
      Object o;
      o.Set("g", Value(g));
      o.Set("name", Value("group-" + std::to_string(g)));
      dims_.Put(Value(g), std::move(o));
    }
    // Dimension rows whose join column is NULL join nothing.
    for (int64_t k = 8; k < 10; ++k) {
      Object o;
      o.Set("g", Value::Null());
      o.Set("name", Value("orphan-" + std::to_string(k)));
      dims_.Put(Value(k), std::move(o));
    }
  }

  /// One row of `kinds`. Its group column `k` changes type with the
  /// partition: int64 (some cells absent), doubles equal to those ints (with
  /// -0.0 and a few NaN), strings, bools, and partitions where every kind
  /// shares the column (explicit NULL and absent cells included). `f` is a
  /// double whose sums depend on the order they are added in; `z` is a
  /// string that some rows lack.
  static Object KindsRow(int64_t key, int64_t ckpt, std::mt19937_64* rng) {
    Object o;
    const int64_t i = key % 5;
    switch (kv::Partitioner(kPartitions).PartitionOf(Value(key)) % 5) {
      case 0:
        if (key % 7 != 0) o.Set("k", Value(i));
        break;
      case 1:
        if (key % 13 == 0) {
          o.Set("k", Value(std::nan("")));
        } else if (i == 0 && key % 2 == 1) {
          o.Set("k", Value(-0.0));
        } else {
          o.Set("k", Value(static_cast<double>(i)));
        }
        break;
      case 2:
        o.Set("k", Value("s" + std::to_string(key % 3)));
        break;
      case 3:
        o.Set("k", Value(key % 3 == 0));
        break;
      default:
        switch (key % 6) {
          case 0:
            o.Set("k", Value(i));
            break;
          case 1:
            o.Set("k", Value(static_cast<double>(i)));
            break;
          case 2:
            o.Set("k", Value("s" + std::to_string(key % 3)));
            break;
          case 3:
            o.Set("k", Value(key % 3 == 0));
            break;
          case 4:
            o.Set("k", Value::Null());
            break;
          default:
            break;  // absent
        }
    }
    o.Set("f", Value(static_cast<double>((*rng)() % 100000) / 7.0));
    if (key % 11 != 0) {
      o.Set("z", Value("z" + std::to_string((key + ckpt) % 4)));
    }
    return o;
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
          ASSERT_EQ(ExactRows(got.rows), ExactRows(expected.rows))
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
        ASSERT_EQ(ExactRows(row_engine.rows), ExactRows(got.rows))
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

  /// Runs `sql` in every variant of the matrix and requires each to fail
  /// with the same status code and message.
  void CheckSameError(const std::string& sql,
                      state::IsolationLevel isolation) {
    QueryOptions base;
    base.isolation = isolation;
    const Result<sql::ResultSet> expected = service_.Execute(sql, base);
    ASSERT_FALSE(expected.ok()) << sql;
    for (int32_t parallelism : {1, 2, 8}) {
      for (bool pushdown : {true, false}) {
        for (bool force_row_scan : {false, true}) {
          QueryOptions options = base;
          options.parallelism = parallelism;
          options.pushdown = pushdown;
          options.force_row_scan = force_row_scan;
          const Result<sql::ResultSet> got = service_.Execute(sql, options);
          ASSERT_FALSE(got.ok()) << sql;
          EXPECT_EQ(got.status().code(), expected.status().code())
              << sql << " [parallelism=" << parallelism
              << " pushdown=" << pushdown << " row=" << force_row_scan << "]";
          EXPECT_EQ(got.status().message(), expected.status().message())
              << sql << " [parallelism=" << parallelism
              << " pushdown=" << pushdown << " row=" << force_row_scan << "]";
        }
      }
    }
  }

  kv::Grid grid_;
  state::SnapshotRegistry registry_;
  QueryService service_;
  state::SQueryStateStore store_;
  state::SQueryStateStore extras_;
  state::SQueryStateStore dims_;
  /// Checkpointed with no rows: its scans read no batches.
  state::SQueryStateStore empty_;
  /// Group keys of every type (see KindsRow).
  state::SQueryStateStore kinds_;
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
      // Colocated key joins: a WHERE on the right-only field, GROUP BY and
      // aggregates over both sides.
      "SELECT g, COUNT(*) AS n, SUM(w) AS sw, MIN(x.v) AS mn, MAX(v) AS mx "
      "FROM metrics JOIN extras AS x USING(key) WHERE w > 10 GROUP BY g",
      "SELECT COUNT(*) AS n, SUM(w) AS sw FROM metrics "
      "JOIN extras USING(partitionKey)",
      // The conflicting field: unqualified is the left's, qualified by the
      // right alias the right's, qualified by the FROM name the left's.
      "SELECT key, v, x.v AS xv, metrics.v AS mv, w FROM metrics "
      "JOIN extras AS x USING(key) WHERE x.v < 200 AND v > 100",
      "SELECT * FROM metrics JOIN extras AS x USING(key) WHERE w < 5",
      "SELECT key, w, x.v FROM metrics JOIN extras x USING(partitionKey) "
      "ORDER BY w DESC, x.v, key LIMIT 7",
      // Key restrictions route the FROM table to point lookups; a
      // restriction on the right's key does not.
      "SELECT key, v, x.v, w FROM metrics JOIN extras x USING(key) "
      "WHERE key IN (1, 3, 10, 2999, 3050)",
      "SELECT key, v, d.name FROM metrics JOIN dims d USING(g) "
      "WHERE key = 5",
      "SELECT m.key, d.name FROM metrics m JOIN dims d USING(g) "
      "WHERE d.key = 5 AND m.v < 500",
      // A self-join without aliases: the right's conflicting fields answer
      // to the shared name.
      "SELECT COUNT(*) AS n, SUM(metrics.v) AS s FROM metrics "
      "JOIN metrics USING(key)",
      // Two joins in turn, the second on a field of the first's left input.
      "SELECT m.key, d.name, x.w FROM metrics m JOIN extras x USING(key) "
      "JOIN dims d USING(g) WHERE x.w IS NOT NULL AND m.v < 300",
      // Live against snapshot state.
      "SELECT g, COUNT(*) AS n, SUM(s.v) AS sv FROM metrics "
      "JOIN snapshot_extras AS s USING(key) WHERE s.w > 50 GROUP BY g",
      // Group keys of every type: `z` comes from the representative.
      "SELECT k, z, COUNT(*) AS n, SUM(f) AS sf, MIN(z) AS mz, MAX(f) AS xf "
      "FROM kinds GROUP BY k",
      "SELECT k, z, COUNT(*) AS n, SUM(f) AS sf FROM kinds GROUP BY k, z",
      "SELECT k, COUNT(*) AS n, SUM(f) AS sf FROM kinds GROUP BY k "
      "HAVING COUNT(*) > 5 ORDER BY n DESC, sf LIMIT 4",
      // A WHERE that keeps no row in some partitions.
      "SELECT k, z, COUNT(*) AS n, MIN(f) AS mf FROM kinds WHERE f > 13000 "
      "GROUP BY k, z",
      "SELECT COUNT(*) AS n, SUM(f) AS sf, MIN(k) AS mk, MAX(z) AS xz, "
      "key, z FROM kinds WHERE f > 13000",
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
      "SELECT g, COUNT(*) AS n, SUM(w) AS sw, MAX(x.v) AS xv "
      "FROM snapshot_metrics JOIN snapshot_extras AS x USING(partitionKey) "
      "WHERE w >= 5 GROUP BY g",
      // Multi-match: each key joins every retained version.
      "SELECT key, ssid, s.ssid AS version, s.v FROM snapshot_extras "
      "JOIN snapshot_metrics__versions AS s USING(key) WHERE key < 40",
      "SELECT s.ssid, COUNT(*) AS n, SUM(s.v) AS sv FROM snapshot_metrics "
      "JOIN snapshot_metrics__versions AS s USING(key) GROUP BY s.ssid "
      "ORDER BY s.ssid",
      "SELECT COUNT(*) AS n FROM snapshot_metrics JOIN snapshot_empty "
      "USING(key)",
      // Group keys of every type (see KindsRow).
      "SELECT k, z, COUNT(*) AS n, SUM(f) AS sf, MIN(z) AS mz, MAX(f) AS xf "
      "FROM snapshot_kinds GROUP BY k",
      "SELECT k, z, COUNT(*) AS n, SUM(f) AS sf FROM snapshot_kinds "
      "GROUP BY k, z",
      "SELECT ssid, COUNT(*) AS n, SUM(f) AS sf, MIN(k) AS mk, z "
      "FROM snapshot_kinds__versions GROUP BY ssid",
      "SELECT key, k, COUNT(*) AS n, MAX(f) AS xf, MIN(z) AS mz "
      "FROM snapshot_kinds__versions GROUP BY key",
      "SELECT k, ssid, COUNT(*) AS n FROM snapshot_kinds__versions "
      "GROUP BY k, ssid HAVING COUNT(*) > 3 ORDER BY n DESC, ssid LIMIT 5",
      "SELECT k, COUNT(*) AS n, MIN(f) AS mf FROM snapshot_kinds "
      "WHERE f > 13000 GROUP BY k",
  };
  for (const auto& level : {state::IsolationLevel::kSnapshotIsolation,
                            state::IsolationLevel::kSerializable}) {
    for (const std::string& sql : queries) {
      CheckDifferential(sql, level);
    }
  }
}

/// A join whose WHERE errors fails with the same first error in every
/// variant: errors surface in partition order, each partition's in joined-
/// row order, whichever engine, parallelism or pushdown setting runs it.
TEST_F(ParallelQueryTest, JoinErrorsMatchAcrossMatrix) {
  CheckSameError(
      "SELECT key FROM metrics JOIN extras AS x USING(key) "
      "WHERE (x.v > 500 AND zone + 1 > 0) OR (x.v <= 500 AND -zone > 0)",
      state::IsolationLevel::kReadCommittedNoFailures);
  CheckSameError(
      "SELECT g, COUNT(*) AS n FROM snapshot_metrics "
      "JOIN snapshot_extras AS x USING(key) WHERE w + zone > 1 GROUP BY g",
      state::IsolationLevel::kSerializable);
}

/// A group expression that errors fails with the same first error in every
/// variant.
TEST_F(ParallelQueryTest, GroupKeyErrorsMatchAcrossMatrix) {
  CheckSameError("SELECT COUNT(*) AS n FROM kinds GROUP BY z + 1",
                 state::IsolationLevel::kReadCommittedNoFailures);
  CheckSameError("SELECT COUNT(*) AS n FROM snapshot_kinds GROUP BY z + 1",
                 state::IsolationLevel::kSerializable);
}

/// Every source places key k in partition
/// kv::Partitioner(partition_count()).PartitionOf(k) and reports it through
/// PartitionOfKey: colocated joins read partition p of both inputs only.
void ExpectPartitionedByKey(const sql::TableSource& source,
                            const std::string& label) {
  const kv::Partitioner partitioner(source.partition_count());
  int64_t rows = 0;
  for (int32_t p = 0; p < source.partition_count(); ++p) {
    std::unique_ptr<sql::BatchReader> reader = source.OpenBatchReader(p);
    sql::ScanBatch batch;
    while (true) {
      Result<bool> more = reader->NextBatch(&batch);
      ASSERT_TRUE(more.ok()) << label << ": " << more.status();
      if (!*more) break;
      for (const Value& key : batch.rows->keys()) {
        ASSERT_EQ(source.PartitionOfKey(key), p) << label << " key " << key.ToString();
        ASSERT_EQ(partitioner.PartitionOf(key), p) << label << " key " << key.ToString();
        ++rows;
      }
    }
  }
  EXPECT_GE(rows, 300) << label;
}

/// One row of a batch as text: its key, the version it is served at and
/// its exact fields.
std::string RowText(const sql::ScanBatch& batch, size_t r) {
  std::string text = ExactCell(batch.rows->keys()[r]) + " @" +
                     (batch.ssid.has_value() ? ExactCell(*batch.ssid) : "-");
  const Object row = batch.rows->MaterializeRow(r);
  for (const auto& [name, value] : row.fields()) {
    text += " " + name + "=" + ExactCell(value);
  }
  return text;
}

/// ScanKeys(keys) on `source` files every row it finds under
/// PartitionOfKey(key), lists partitions in ascending order, and finds in
/// each partition exactly the rows the full scan of that partition holds
/// for those keys: missing keys are left out. With `keys_in_order`, each
/// partition's rows also keep the keys' order in `keys`.
void ExpectLookupsMatchTheScan(const sql::TableSource& source,
                               const std::vector<Value>& keys,
                               bool keys_in_order, const std::string& label) {
  auto found = source.ScanKeys(keys);
  ASSERT_TRUE(found.ok()) << label << ": " << found.status();
  auto next = found->begin();
  int64_t rows = 0;
  for (int32_t p = 0; p < source.partition_count(); ++p) {
    std::vector<std::string> scanned;
    std::unique_ptr<sql::BatchReader> reader = source.OpenBatchReader(p);
    sql::ScanBatch batch;
    while (true) {
      Result<bool> more = reader->NextBatch(&batch);
      ASSERT_TRUE(more.ok()) << label << ": " << more.status();
      if (!*more) break;
      for (size_t r = 0; r < batch.rows->row_count(); ++r) {
        const Value& key = batch.rows->keys()[r];
        if (std::find(keys.begin(), keys.end(), key) != keys.end()) {
          scanned.push_back(RowText(batch, r));
        }
      }
    }
    std::vector<std::string> looked_up;
    size_t last_index = 0;
    ASSERT_TRUE(next == found->end() || next->partition >= p) << label;
    static const std::vector<sql::ScanBatch> kNone;
    const bool hit_here = next != found->end() && next->partition == p;
    if (hit_here) ASSERT_FALSE(next->batches.empty()) << label;
    for (const sql::ScanBatch& hit : hit_here ? next->batches : kNone) {
      ASSERT_GT(hit.rows->row_count(), 0u) << label;
      for (size_t r = 0; r < hit.rows->row_count(); ++r) {
        const Value& key = hit.rows->keys()[r];
        ASSERT_EQ(source.PartitionOfKey(key), p)
            << label << " key " << key.ToString();
        const auto index = static_cast<size_t>(
            std::find(keys.begin(), keys.end(), key) - keys.begin());
        ASSERT_LT(index, keys.size()) << label << " key " << key.ToString();
        if (keys_in_order) {
          ASSERT_GE(index, last_index) << label << " key " << key.ToString();
        }
        last_index = index;
        looked_up.push_back(RowText(hit, r));
      }
    }
    if (hit_here) ++next;
    std::sort(scanned.begin(), scanned.end());
    std::sort(looked_up.begin(), looked_up.end());
    EXPECT_EQ(looked_up, scanned) << label << " partition " << p;
    rows += static_cast<int64_t>(looked_up.size());
  }
  EXPECT_TRUE(next == found->end()) << label << ": partitions out of order";
  EXPECT_GT(rows, 0) << label;
}

TEST_F(ParallelQueryTest, EverySourcePlacesKeysByThePartitioner) {
  // Out of order, with keys no table holds.
  const std::vector<Value> keys = {Value(int64_t{2999}), Value(int64_t{3}),
                                   Value(int64_t{5000}), Value(int64_t{42}),
                                   Value("absent"),      Value(int64_t{777}),
                                   Value(int64_t{11}),   Value(int64_t{390})};
  QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  for (const std::string table :
       {"metrics", "snapshot_metrics", "snapshot_metrics__versions"}) {
    auto source = service_.OpenTableSource(table, std::nullopt, options);
    ASSERT_TRUE(source.ok()) << table << ": " << source.status();
    ExpectPartitionedByKey(**source, table);
    ExpectLookupsMatchTheScan(**source, keys, /*keys_in_order=*/true, table);
  }
  sql::MemoryResolver resolver;
  for (int64_t k = 0; k < 400; ++k) {
    Object o;
    o.Set("key", Value(k));
    resolver.tables["mem"].push_back(std::move(o));
  }
  auto source = resolver.OpenTableSource("mem", std::nullopt);
  ASSERT_TRUE(source.ok()) << source.status();
  ExpectPartitionedByKey(**source, "ScanFnSource");
  // A ScanFnSource keeps table order.
  ExpectLookupsMatchTheScan(**source, keys, /*keys_in_order=*/false,
                            "ScanFnSource");

  // A snapshot only the durable log holds.
  std::string tmpl = "/tmp/sq_durable_lookups_XXXXXX";
  const std::string dir = ::mkdtemp(tmpl.data());
  {
    auto log = storage::SnapshotLog::Open({.dir = dir});
    ASSERT_TRUE(log.ok()) << log.status();
    kv::ColumnBatch delta;
    for (int64_t k = 0; k < 400; ++k) {
      Object o;
      o.Set("v", Value(k * 3));
      delta.AppendRow(Value(k), 1, o);
    }
    ASSERT_TRUE((*log)->AppendDelta("snapshot_logged", 1, 0, delta).ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
    service_.AttachDurableStorage(log->get());
    auto durable = service_.OpenTableSource("snapshot_logged", 1, {});
    ASSERT_TRUE(durable.ok()) << durable.status();
    // The log's read comes in the grid's partitions.
    EXPECT_EQ((*durable)->partition_count(), kPartitions);
    ExpectPartitionedByKey(**durable, "durable log");
    ExpectLookupsMatchTheScan(**durable, keys, /*keys_in_order=*/false,
                              "durable log");
    service_.AttachDurableStorage(nullptr);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
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

  // So do point lookups: the batches ScanKeys returns, one row per key
  // found (7777 is not).
  const std::string lookup =
      "SELECT v FROM metrics WHERE key IN (1, 5, 9, 2999, 7777)";
  result = service_.ExecuteWithStats(lookup, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats.used_point_lookup);
  EXPECT_TRUE(result->stats.used_vectorized);
  EXPECT_GT(result->stats.batches_scanned, 0);
  EXPECT_EQ(result->stats.batch_rows, 4);
  EXPECT_EQ(result->stats.rows_scanned, 4);

  options.force_row_scan = true;
  result = service_.ExecuteWithStats(lookup, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats.used_point_lookup);
  EXPECT_FALSE(result->stats.used_vectorized);
  EXPECT_EQ(result->stats.batches_scanned, 0);
  EXPECT_EQ(result->stats.batch_rows, 0);
  EXPECT_EQ(result->stats.rows_scanned, 4);
}

/// A snapshot table recovered from a durable log whose history spans several
/// segments, written by two log instances across a reopen, must serve both
/// engines with identical results.
TEST(ReplayedLogQueryTest, MultiSegmentHistoryServesBothEngines) {
  std::string tmpl = "/tmp/sq_mixed_segments_XXXXXX";
  const std::string dir = ::mkdtemp(tmpl.data());
  const auto append = [](kv::ColumnBatch* delta, int64_t ssid, int64_t key,
                          int64_t v, const std::string& zone) {
    Object o;
    o.Set("v", Value(v));
    o.Set("zone", Value(zone));
    delta->AppendRow(Value(key), ssid, o);
  };
  {
    // First writer: one segment per commit.
    auto log = storage::SnapshotLog::Open({.dir = dir, .segment_bytes = 1});
    ASSERT_TRUE(log.ok());
    kv::ColumnBatch delta;
    for (int64_t k = 0; k < 100; ++k) {
      append(&delta, 1, k, k, "zone-" + std::to_string(k % 3));
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
    kv::ColumnBatch delta;
    for (int64_t k = 0; k < 100; k += 7) append(&delta, 2, k, k + 1000, "hot");
    append(&delta, 2, 200, 42, "new");
    delta.AppendTombstone(Value(int64_t{3}), 2);
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

/// The integer attribute `key` of span `name` in trace `trace_id`, or -1.
int64_t SpanAttr(uint64_t trace_id, const std::string& name,
                 const std::string& key) {
  for (const trace::TraceSpan& span : trace::SnapshotSpans()) {
    if (span.trace_id != trace_id || name != span.name) continue;
    for (const trace::Attr& attr : span.attrs) {
      if (key == attr.key) return std::stoll(attr.value);
    }
  }
  return -1;
}

/// A grouped scan over 271 partitions that each hold all 8 groups: the
/// merge takes 271 x 8 partial groups, and the vectorized engine builds a
/// representative tuple only for the 8 groups that reach the output (or
/// fewer). The row engine, the reference, builds one per partial group.
TEST(GroupedFoldTest, OnlyOutputGroupsMaterializeRepresentatives) {
  constexpr int32_t kManyPartitions = 271;
  constexpr int64_t kGroups = 8;
  kv::Grid grid(kv::GridConfig{.node_count = 1,
                               .partition_count = kManyPartitions,
                               .backup_count = 0});
  state::SnapshotRegistry registry(
      &grid, {.retained_versions = 2, .async_prune = false});
  QueryService service(&grid, &registry);
  state::SQueryStateStore store(&grid, "orders", 0,
                                state::SQueryConfig{.parallelism = 1});
  // Each partition's rows cycle through the regions.
  const kv::Partitioner partitioner(kManyPartitions);
  std::vector<int64_t> rows(kManyPartitions, 0);
  for (int64_t key = 0; key < 10000; ++key) {
    int64_t& row = rows[static_cast<size_t>(partitioner.PartitionOf(Value(key)))];
    Object o;
    o.Set("region", Value("region-" + std::to_string(row++ % kGroups)));
    o.Set("total", Value(key % 100));
    store.Put(Value(key), std::move(o));
  }
  ASSERT_GE(*std::min_element(rows.begin(), rows.end()), kGroups);
  ASSERT_TRUE(store.SnapshotTo(1).ok());
  registry.OnCheckpointCommitted(1);
  trace::SetConfig(trace::TraceConfig{});

  struct Fold {
    size_t rows = 0;
    int64_t partials = -1;
    int64_t materialized = -1;
  };
  const auto run = [&](const std::string& sql, bool row_engine) {
    QueryOptions options;
    options.force_row_scan = row_engine;
    auto result = service.ExecuteWithStats(sql, options);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    Fold fold;
    if (!result.ok()) return fold;
    EXPECT_NE(result->trace_id, 0u);
    fold.rows = result->result.rows.size();
    fold.partials = SpanAttr(result->trace_id, "merge", "partials");
    fold.materialized =
        SpanAttr(result->trace_id, "aggregate", "materialized");
    return fold;
  };

  const std::string grouped =
      "SELECT region, COUNT(*) AS n, SUM(total) AS s FROM snapshot_orders "
      "GROUP BY region";
  Fold fold = run(grouped, /*row_engine=*/false);
  EXPECT_EQ(fold.rows, static_cast<size_t>(kGroups));
  EXPECT_EQ(fold.partials, kManyPartitions * kGroups);
  EXPECT_EQ(fold.materialized, kGroups);

  fold = run(grouped, /*row_engine=*/true);
  EXPECT_EQ(fold.partials, kManyPartitions * kGroups);
  EXPECT_EQ(fold.materialized, kManyPartitions * kGroups);

  // HAVING drops the regions with fewer rows than average.
  fold = run(grouped + " HAVING COUNT(*) > 1250", /*row_engine=*/false);
  EXPECT_GT(fold.rows, 0u);
  EXPECT_LT(fold.rows, static_cast<size_t>(kGroups));
  EXPECT_EQ(fold.partials, kManyPartitions * kGroups);
  EXPECT_GE(fold.materialized, 0);
  EXPECT_LE(fold.materialized, kGroups);

  // Without GROUP BY: one representative, not one per partition.
  fold = run("SELECT COUNT(*) AS n, region FROM snapshot_orders",
             /*row_engine=*/false);
  EXPECT_EQ(fold.partials, kManyPartitions);
  EXPECT_EQ(fold.materialized, 1);
}

}  // namespace
}  // namespace sq::query
