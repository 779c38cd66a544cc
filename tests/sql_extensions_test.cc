// Tests for the SQL dialect extensions beyond the paper's minimum:
// IN / NOT IN, BETWEEN, IS [NOT] NULL, HAVING, COUNT(DISTINCT ...).

#include <gtest/gtest.h>

#include <map>

#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/scan_source.h"

namespace sq::sql {
namespace {

using kv::Object;
using kv::Value;

class SqlExtensionsTest : public ::testing::Test {
 protected:
  SqlExtensionsTest() {
    for (int64_t i = 0; i < 10; ++i) {
      Object row;
      row.Set("key", Value(i));
      row.Set("zone", Value("zone-" + std::to_string(i % 3)));
      row.Set("v", Value(i * 10));
      if (i % 4 != 0) {
        row.Set("optional", Value(i));  // absent (NULL) for multiples of 4
      }
      resolver_.tables["t"].push_back(std::move(row));
    }
  }

  ResultSet MustExecute(const std::string& sql) {
    auto result = ExecuteSql(sql, &resolver_, ExecOptions{});
    EXPECT_TRUE(result.ok()) << result.status() << "\n" << sql;
    return result.ok() ? *result : ResultSet{};
  }

  MemoryResolver resolver_;
};

TEST_F(SqlExtensionsTest, InList) {
  ResultSet r = MustExecute("SELECT key FROM t WHERE key IN (1, 3, 5)");
  EXPECT_EQ(r.RowCount(), 3u);
  ResultSet s =
      MustExecute("SELECT key FROM t WHERE zone IN ('zone-0', 'zone-1')");
  EXPECT_EQ(s.RowCount(), 7u);
}

TEST_F(SqlExtensionsTest, NotInList) {
  ResultSet r = MustExecute("SELECT key FROM t WHERE key NOT IN (1, 3, 5)");
  EXPECT_EQ(r.RowCount(), 7u);
}

TEST_F(SqlExtensionsTest, Between) {
  ResultSet r = MustExecute("SELECT key FROM t WHERE key BETWEEN 2 AND 5");
  EXPECT_EQ(r.RowCount(), 4u);
  ResultSet s =
      MustExecute("SELECT key FROM t WHERE key NOT BETWEEN 2 AND 5");
  EXPECT_EQ(s.RowCount(), 6u);
  // BETWEEN binds tighter than a surrounding AND.
  ResultSet both = MustExecute(
      "SELECT key FROM t WHERE key BETWEEN 2 AND 5 AND v > 20");
  EXPECT_EQ(both.RowCount(), 3u);
}

TEST_F(SqlExtensionsTest, IsNull) {
  ResultSet r = MustExecute("SELECT key FROM t WHERE optional IS NULL");
  EXPECT_EQ(r.RowCount(), 3u);  // keys 0, 4, 8
  ResultSet s = MustExecute("SELECT key FROM t WHERE optional IS NOT NULL");
  EXPECT_EQ(s.RowCount(), 7u);
}

TEST_F(SqlExtensionsTest, Having) {
  // zone-0 has 4 rows (0,3,6,9); zone-1 and zone-2 have 3 each.
  ResultSet r = MustExecute(
      "SELECT zone, COUNT(*) AS n FROM t GROUP BY zone HAVING COUNT(*) > 3");
  ASSERT_EQ(r.RowCount(), 1u);
  EXPECT_EQ(r.At(0, "zone").ToString(), "zone-0");
  EXPECT_EQ(r.At(0, "n").AsInt64(), 4);
  // HAVING over an aggregate not in the SELECT list.
  ResultSet s = MustExecute(
      "SELECT zone FROM t GROUP BY zone HAVING SUM(v) >= 150");
  EXPECT_EQ(s.RowCount(), 2u);
}

TEST_F(SqlExtensionsTest, HavingWithoutGroupingIsRejected) {
  auto result =
      ExecuteSql("SELECT key FROM t HAVING key > 1", &resolver_, {});
  EXPECT_FALSE(result.ok());
}

TEST_F(SqlExtensionsTest, CountDistinct) {
  ResultSet r = MustExecute(
      "SELECT COUNT(DISTINCT zone) AS zones, COUNT(zone) AS all_rows FROM t");
  ASSERT_EQ(r.RowCount(), 1u);
  EXPECT_EQ(r.At(0, "zones").AsInt64(), 3);
  EXPECT_EQ(r.At(0, "all_rows").AsInt64(), 10);
}

TEST_F(SqlExtensionsTest, SumDistinct) {
  // v values 0..90; distinct sum equals plain sum here, so craft repeats.
  resolver_.tables["d"].clear();
  for (int64_t v : {5, 5, 7, 7, 9}) {
    Object row;
    row.Set("v", Value(v));
    resolver_.tables["d"].push_back(std::move(row));
  }
  ResultSet r = MustExecute(
      "SELECT SUM(DISTINCT v) AS ds, SUM(v) AS s FROM d");
  EXPECT_EQ(r.At(0, "ds").AsInt64(), 21);
  EXPECT_EQ(r.At(0, "s").AsInt64(), 33);
}

TEST_F(SqlExtensionsTest, ParserRendersNewFormsRoundTrip) {
  auto stmt = ParseSelect(
      "SELECT COUNT(DISTINCT zone) FROM t WHERE optional IS NOT NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ((*stmt)->items[0].expr->ToString(), "COUNT(DISTINCT zone)");
  EXPECT_EQ((*stmt)->where->ToString(), "optional IS NOT NULL");
}

TEST_F(SqlExtensionsTest, MalformedExtensionsAreRejected) {
  EXPECT_FALSE(ParseSelect("SELECT key FROM t WHERE key IN").ok());
  EXPECT_FALSE(ParseSelect("SELECT key FROM t WHERE key IN ()").ok());
  EXPECT_FALSE(ParseSelect("SELECT key FROM t WHERE key BETWEEN 1").ok());
  EXPECT_FALSE(ParseSelect("SELECT key FROM t WHERE key IS").ok());
  EXPECT_FALSE(ParseSelect("SELECT key FROM t WHERE key NOT 5").ok());
}

}  // namespace
}  // namespace sq::sql
