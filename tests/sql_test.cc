#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "sql/executor.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/scan_source.h"

namespace sq::sql {
namespace {

using kv::Object;
using kv::Value;

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, 12 FROM t WHERE b >= 1.5 AND c != 'x''y'");
  ASSERT_TRUE(tokens.ok());
  const auto& t = *tokens;
  EXPECT_TRUE(t[0].IsKeyword("SELECT"));
  EXPECT_EQ(t[1].type, TokenType::kIdentifier);
  EXPECT_TRUE(t[2].IsSymbol(","));
  EXPECT_EQ(t[3].int_value, 12);
  EXPECT_TRUE(t[4].IsKeyword("FROM"));
  EXPECT_TRUE(t[6].IsKeyword("WHERE"));
  EXPECT_TRUE(t[8].IsSymbol(">="));
  EXPECT_EQ(t[9].double_value, 1.5);
  EXPECT_TRUE(t[10].IsKeyword("AND"));
  EXPECT_TRUE(t[12].IsSymbol("!="));
  EXPECT_EQ(t[13].text, "x'y");
}

TEST(LexerTest, QuotedIdentifiersAndComments) {
  auto tokens = Tokenize("SELECT x -- trailing comment\nFROM \"snapshot_t\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[3].text, "snapshot_t");
  EXPECT_EQ((*tokens)[3].type, TokenType::kIdentifier);
}

TEST(LexerTest, ErrorsOnUnterminatedLiteral) {
  EXPECT_FALSE(Tokenize("SELECT 'oops").ok());
  EXPECT_FALSE(Tokenize("SELECT \"oops").ok());
  EXPECT_FALSE(Tokenize("SELECT #").ok());
}

TEST(ParserTest, SimpleProjection) {
  auto stmt = ParseSelect("SELECT count, total FROM average WHERE key=1");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ((*stmt)->items.size(), 2u);
  EXPECT_EQ((*stmt)->from.name, "average");
  ASSERT_NE((*stmt)->where, nullptr);
}

TEST(ParserTest, PaperFigure4SnapshotQuery) {
  auto stmt = ParseSelect(
      "SELECT count, total FROM snapshot_average WHERE ssid=9 AND key=2");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ((*stmt)->from.name, "snapshot_average");
}

TEST(ParserTest, PaperQuery1Parses) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*), deliveryZone FROM \"snapshot_orderinfo\" JOIN "
      "\"snapshot_orderstate\" USING(partitionKey) WHERE "
      "(orderState='VENDOR_ACCEPTED' AND lateTimestamp<LOCALTIMESTAMP) "
      "GROUP BY deliveryZone;");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& s = **stmt;
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_TRUE(s.items[0].expr->ContainsAggregate());
  EXPECT_EQ(s.from.name, "snapshot_orderinfo");
  ASSERT_EQ(s.joins.size(), 1u);
  EXPECT_EQ(s.joins[0].table.name, "snapshot_orderstate");
  EXPECT_EQ(s.joins[0].using_column, "partitionKey");
  EXPECT_EQ(s.group_by.size(), 1u);
}

TEST(ParserTest, OrderByLimitDistinct) {
  auto stmt = ParseSelect(
      "SELECT DISTINCT zone FROM t ORDER BY zone DESC, n ASC LIMIT 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_TRUE((*stmt)->distinct);
  ASSERT_EQ((*stmt)->order_by.size(), 2u);
  EXPECT_TRUE((*stmt)->order_by[0].second);
  EXPECT_FALSE((*stmt)->order_by[1].second);
  EXPECT_EQ((*stmt)->limit, 10);
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP a").ok());
  EXPECT_FALSE(ParseSelect("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra garbage here").ok());
}

TEST(ParserTest, ExpressionPrecedence) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE a=1 OR b=2 AND c=3");
  ASSERT_TRUE(stmt.ok());
  // OR is the root: (a=1) OR ((b=2) AND (c=3)).
  EXPECT_EQ((*stmt)->where->binary_op, BinaryOp::kOr);
  auto arith = ParseSelect("SELECT 1 + 2 * 3 - 4 FROM t");
  ASSERT_TRUE(arith.ok());
  EXPECT_EQ((*arith)->items[0].expr->ToString(), "((1 + (2 * 3)) - 4)");
}

Object Tuple(std::initializer_list<Object::Field> fields) {
  return Object(fields);
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() {
    // Fig. 4's "average" operator state.
    resolver_.tables["average"] = {
        Tuple({{"key", Value(int64_t{1})},
               {"count", Value(int64_t{3})},
               {"total", Value(int64_t{30})}}),
        Tuple({{"key", Value(int64_t{2})},
               {"count", Value(int64_t{2})},
               {"total", Value(int64_t{20})}})};
    // Orders: info + state, keyed by order id (the source stamps it as
    // `partitionKey` too, the join column).
    for (int64_t k = 0; k < 6; ++k) {
      resolver_.tables["snapshot_orderinfo"].push_back(
          Tuple({{"key", Value(k)},
                 {"deliveryZone", Value(k % 2 == 0 ? "north" : "south")},
                 {"vendorCategory", Value(k % 3 == 0 ? "food" : "retail")}}));
      resolver_.tables["snapshot_orderstate"].push_back(
          Tuple({{"key", Value(k)},
                 {"orderState",
                  Value(k < 4 ? "VENDOR_ACCEPTED" : "DELIVERED")},
                 {"lateTimestamp", Value(int64_t{500})}}));
    }
    // Hand-built rows with absent fields, explicit NULLs and columns (and
    // keys) of mixed types: typed, mixed and sparse columns in one batch.
    resolver_.tables["mixed"] = {
        Tuple({{"key", Value(int64_t{1})},
               {"a", Value(int64_t{5})},
               {"b", Value("x")}}),
        Tuple({{"key", Value(int64_t{2})},
               {"a", Value(2.5)},
               {"c", Value(true)}}),
        Tuple({{"key", Value(int64_t{3})},
               {"a", Value("str")},
               {"b", Value()}}),
        Tuple({{"key", Value(int64_t{4})}}),
        Tuple({{"key", Value("k5")},
               {"a", Value(int64_t{7})},
               {"b", Value("y")},
               {"c", Value(false)}})};
  }

  /// Runs `sql` on the vectorized and the row engine and checks that they
  /// agree: identical result sets, or the same status code and message.
  /// Returns the vectorized run.
  Result<ResultSet> ExecuteBoth(const std::string& sql) {
    ExecOptions row_options = options_;
    row_options.enable_vectorized = false;
    auto vectorized = ExecuteSql(sql, &resolver_, options_);
    auto row = ExecuteSql(sql, &resolver_, row_options);
    EXPECT_EQ(vectorized.ok(), row.ok()) << sql;
    if (vectorized.ok() && row.ok()) {
      EXPECT_EQ(vectorized->columns, row->columns) << sql;
      EXPECT_EQ(vectorized->rows, row->rows) << sql;
    } else if (!vectorized.ok() && !row.ok()) {
      EXPECT_EQ(vectorized.status().code(), row.status().code()) << sql;
      EXPECT_EQ(vectorized.status().message(), row.status().message())
          << sql;
    }
    return vectorized;
  }

  ResultSet MustExecute(const std::string& sql) {
    auto result = ExecuteBoth(sql);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *result : ResultSet{};
  }

  MemoryResolver resolver_;
  ExecOptions options_{.local_timestamp_micros = 1000};
};

TEST_F(ExecutorTest, PointLookupProjection) {
  ResultSet r =
      MustExecute("SELECT count, total FROM average WHERE key=1");
  ASSERT_EQ(r.RowCount(), 1u);
  EXPECT_EQ(r.At(0, "count").AsInt64(), 3);
  EXPECT_EQ(r.At(0, "total").AsInt64(), 30);
}

TEST_F(ExecutorTest, SelectStarUnionsColumns) {
  ResultSet r = MustExecute("SELECT * FROM average");
  EXPECT_EQ(r.RowCount(), 2u);
  EXPECT_NE(r.ColumnIndex("count"), -1);
  EXPECT_NE(r.ColumnIndex("total"), -1);
  EXPECT_NE(r.ColumnIndex("key"), -1);
}

TEST_F(ExecutorTest, WhereWithAndOrNot) {
  EXPECT_EQ(MustExecute("SELECT key FROM average WHERE count=3 AND total=30")
                .RowCount(),
            1u);
  EXPECT_EQ(MustExecute("SELECT key FROM average WHERE count=3 OR count=2")
                .RowCount(),
            2u);
  EXPECT_EQ(MustExecute("SELECT key FROM average WHERE NOT count=3")
                .RowCount(),
            1u);
  EXPECT_EQ(MustExecute("SELECT key FROM average WHERE count>2").RowCount(),
            1u);
  EXPECT_EQ(MustExecute("SELECT key FROM average WHERE count<=3").RowCount(),
            2u);
}

TEST_F(ExecutorTest, ArithmeticInProjection) {
  ResultSet r =
      MustExecute("SELECT total / count AS avg FROM average WHERE key=1");
  ASSERT_EQ(r.RowCount(), 1u);
  EXPECT_DOUBLE_EQ(r.At(0, "avg").AsDouble(), 10.0);
}

TEST_F(ExecutorTest, JoinUsingMergesRows) {
  ResultSet r = MustExecute(
      "SELECT partitionKey, deliveryZone, orderState FROM "
      "snapshot_orderinfo JOIN snapshot_orderstate USING(partitionKey)");
  EXPECT_EQ(r.RowCount(), 6u);
  EXPECT_NE(r.ColumnIndex("orderState"), -1);
}

TEST_F(ExecutorTest, PaperQuery1ShapeRuns) {
  ResultSet r = MustExecute(
      "SELECT COUNT(*), deliveryZone FROM \"snapshot_orderinfo\" JOIN "
      "\"snapshot_orderstate\" USING(partitionKey) WHERE "
      "(orderState='VENDOR_ACCEPTED' AND lateTimestamp<LOCALTIMESTAMP) "
      "GROUP BY deliveryZone;");
  // Orders 0..3 accepted and late; zones: 0,2 north / 1,3 south.
  ASSERT_EQ(r.RowCount(), 2u);
  std::map<std::string, int64_t> by_zone;
  for (size_t i = 0; i < r.RowCount(); ++i) {
    by_zone[r.At(i, "deliveryZone").ToString()] =
        r.At(i, "COUNT(*)").AsInt64();
  }
  EXPECT_EQ(by_zone["north"], 2);
  EXPECT_EQ(by_zone["south"], 2);
}

TEST_F(ExecutorTest, GroupByWithMultipleAggregates) {
  ResultSet r = MustExecute(
      "SELECT deliveryZone, COUNT(*) AS n, MIN(partitionKey) AS lo, "
      "MAX(partitionKey) AS hi FROM snapshot_orderinfo GROUP BY "
      "deliveryZone ORDER BY deliveryZone");
  ASSERT_EQ(r.RowCount(), 2u);
  EXPECT_EQ(r.At(0, "deliveryZone").ToString(), "north");
  EXPECT_EQ(r.At(0, "n").AsInt64(), 3);
  EXPECT_EQ(r.At(0, "lo").AsInt64(), 0);
  EXPECT_EQ(r.At(0, "hi").AsInt64(), 4);
}

TEST_F(ExecutorTest, GlobalAggregatesWithoutGroupBy) {
  ResultSet r = MustExecute(
      "SELECT COUNT(*) AS n, SUM(total) AS s, AVG(count) AS a FROM average");
  ASSERT_EQ(r.RowCount(), 1u);
  EXPECT_EQ(r.At(0, "n").AsInt64(), 2);
  EXPECT_EQ(r.At(0, "s").AsInt64(), 50);
  EXPECT_DOUBLE_EQ(r.At(0, "a").AsDouble(), 2.5);
}

TEST_F(ExecutorTest, AggregateOverEmptyInput) {
  ResultSet r =
      MustExecute("SELECT COUNT(*) AS n FROM average WHERE key=99");
  ASSERT_EQ(r.RowCount(), 1u);
  EXPECT_EQ(r.At(0, "n").AsInt64(), 0);
}

TEST_F(ExecutorTest, OrderByAndLimit) {
  ResultSet r = MustExecute(
      "SELECT partitionKey FROM snapshot_orderinfo ORDER BY partitionKey "
      "DESC LIMIT 3");
  ASSERT_EQ(r.RowCount(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 5);
  EXPECT_EQ(r.rows[2][0].AsInt64(), 3);
}

TEST_F(ExecutorTest, DistinctDeduplicates) {
  ResultSet r =
      MustExecute("SELECT DISTINCT deliveryZone FROM snapshot_orderinfo");
  EXPECT_EQ(r.RowCount(), 2u);
}

TEST_F(ExecutorTest, SsidEqualityConjunctIsExtracted) {
  MustExecute("SELECT count FROM average WHERE key=1");
  EXPECT_FALSE(resolver_.last_requested_ssid.has_value());
  auto result = ExecuteBoth("SELECT count FROM average WHERE ssid=9 AND key=2");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(resolver_.last_requested_ssid.has_value());
  EXPECT_EQ(*resolver_.last_requested_ssid, 9);
}

TEST_F(ExecutorTest, SsidInsideOrIsNotAVersionPin) {
  auto result = ExecuteBoth("SELECT count FROM average WHERE ssid=9 OR key=2");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(resolver_.last_requested_ssid.has_value());
}

TEST_F(ExecutorTest, ErrorsSurfaceCleanly) {
  // ExecuteBoth also checks that both engines fail with the same code and
  // message.
  EXPECT_FALSE(ExecuteBoth("SELECT x FROM missing_table").ok());
  EXPECT_FALSE(ExecuteBoth("SELECT * FROM average GROUP BY key").ok());
  EXPECT_FALSE(ExecuteBoth("SELECT NOSUCHFUNC(x) FROM average").ok());
  // Errors raised inside the scan: a pushed predicate and an aggregate
  // argument that fail on a string cell.
  EXPECT_FALSE(ExecuteBoth("SELECT key FROM mixed WHERE a * 2 > 1").ok());
  EXPECT_FALSE(ExecuteBoth("SELECT SUM(a - 1) AS s FROM mixed").ok());
}

TEST_F(ExecutorTest, AbsentFieldsAndMixedTypesAgreeAcrossEngines) {
  ResultSet all = MustExecute("SELECT key, a, b, c FROM mixed");
  ASSERT_EQ(all.RowCount(), 5u);
  EXPECT_TRUE(all.At(3, "a").is_null());  // absent reads as NULL
  EXPECT_EQ(all.At(4, "key").ToString(), "k5");
  EXPECT_EQ(MustExecute("SELECT * FROM mixed").RowCount(), 5u);
  MustExecute("SELECT key FROM mixed WHERE a > 3");
  MustExecute("SELECT key, a FROM mixed WHERE b IS NULL");
  MustExecute("SELECT key FROM mixed WHERE c OR a = 'str'");
  MustExecute("SELECT key FROM mixed WHERE key IN (2, 'k5', 9)");
  MustExecute(
      "SELECT COUNT(*) AS n, COUNT(a) AS na, MIN(a) AS lo, MAX(a) AS hi, "
      "MIN(b) AS mb FROM mixed");
  MustExecute("SELECT b, COUNT(*) AS n FROM mixed GROUP BY b");
  MustExecute("SELECT c, MAX(key) AS k FROM mixed GROUP BY c ORDER BY k");
}

/// BatchOfKeyedRows appends all keys before any cell; its batch must equal
/// the row-at-a-time AppendRow build of the same rows: same keys, same
/// columns in the same representation, and every row materializes back to
/// its object.
TEST_F(ExecutorTest, BatchOfKeyedRowsMatchesAppendRow) {
  for (const auto& [table, rows] : resolver_.tables) {
    const std::shared_ptr<const kv::ColumnBatch> batch =
        BatchOfKeyedRows(rows);
    kv::ColumnBatch expected;
    for (const Object& row : rows) {
      expected.AppendRow(row.Get("key"), /*ssid=*/0, row);
    }
    ASSERT_EQ(batch->row_count(), rows.size()) << table;
    EXPECT_EQ(batch->keys(), expected.keys()) << table;
    ASSERT_EQ(batch->names(), expected.names()) << table;
    for (size_t c = 0; c < batch->column_count(); ++c) {
      EXPECT_EQ(batch->column(c).type(), expected.column(c).type())
          << table << "." << batch->names()[c];
      EXPECT_EQ(batch->column(c).mixed(), expected.column(c).mixed())
          << table << "." << batch->names()[c];
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(batch->MaterializeRow(r), rows[r]) << table << " row " << r;
    }
  }
}

TEST_F(ExecutorTest, LocalTimestampIsBound) {
  ResultSet r = MustExecute(
      "SELECT key FROM average WHERE LOCALTIMESTAMP > 999");
  EXPECT_EQ(r.RowCount(), 2u);
  ResultSet none = MustExecute(
      "SELECT key FROM average WHERE LOCALTIMESTAMP > 1001");
  EXPECT_EQ(none.RowCount(), 0u);
}

TEST(ResultSetTest, ToStringRendersTable) {
  ResultSet r;
  r.columns = {"zone", "n"};
  r.rows.push_back({Value("north"), Value(int64_t{2})});
  const std::string s = r.ToString();
  EXPECT_NE(s.find("zone"), std::string::npos);
  EXPECT_NE(s.find("north"), std::string::npos);
  EXPECT_NE(s.find("1 row(s)"), std::string::npos);
}

}  // namespace
}  // namespace sq::sql
