// Cross-cutting invariants: the Value total order is a strict weak ordering
// consistent with equality and hashing (required by ORDER BY, group-by and
// hash-join correctness), and SQL ORDER BY/LIMIT agree with a reference
// sort for random inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "sql/executor.h"
#include "sql/scan_source.h"
#include "kv/value.h"

namespace sq {
namespace {

using kv::Object;
using kv::Value;

Value RandomValue(Rng* rng) {
  switch (rng->NextBounded(5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(rng->NextBool(0.5));
    case 2:
      return Value(static_cast<int64_t>(rng->NextInRange(-50, 50)));
    case 3:
      return Value(rng->NextDouble() * 100.0 - 50.0);
    default:
      return Value("s" + std::to_string(rng->NextBounded(40)));
  }
}

class ValueOrderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueOrderProperty, StrictWeakOrderingAxioms) {
  Rng rng(GetParam());
  std::vector<Value> values;
  for (int i = 0; i < 60; ++i) values.push_back(RandomValue(&rng));

  for (const Value& a : values) {
    EXPECT_FALSE(a < a) << a.ToString();  // irreflexive
    for (const Value& b : values) {
      // Antisymmetry: at most one of a<b, b<a.
      EXPECT_FALSE(a < b && b < a) << a.ToString() << " " << b.ToString();
      // Equality consistency: a==b implies neither a<b nor b<a, and equal
      // hashes (hash-join/group-by requirement).
      if (a == b) {
        EXPECT_FALSE(a < b);
        EXPECT_FALSE(b < a);
        EXPECT_EQ(a.Hash(), b.Hash());
      }
      for (const Value& c : values) {
        if (a < b && b < c) {
          EXPECT_TRUE(a < c) << a.ToString() << " " << b.ToString() << " "
                             << c.ToString();  // transitive
        }
      }
    }
  }
  // std::sort must terminate and produce a sorted sequence.
  std::vector<Value> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_FALSE(sorted[i] < sorted[i - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ValueOrderProperty,
                         ::testing::Values(101, 202, 303));

class OrderLimitProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrderLimitProperty, MatchesReferenceSort) {
  Rng rng(GetParam());
  sql::MemoryResolver resolver;
  std::vector<Object>& rows = resolver.tables["t"];
  std::vector<std::pair<int64_t, int64_t>> reference;  // (sort key, id)
  for (int64_t i = 0; i < 300; ++i) {
    const int64_t v = rng.NextInRange(-1000, 1000);
    Object row;
    row.Set("id", Value(i));
    row.Set("v", Value(v));
    rows.push_back(std::move(row));
    reference.emplace_back(v, i);
  }
  auto result = sql::ExecuteSql(
      "SELECT id, v FROM t ORDER BY v, id LIMIT 25", &resolver,
      sql::ExecOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  std::sort(reference.begin(), reference.end());
  ASSERT_EQ(result->RowCount(), 25u);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(result->At(i, "v").AsInt64(), reference[i].first) << i;
    EXPECT_EQ(result->At(i, "id").AsInt64(), reference[i].second) << i;
  }
  // DESC is the exact reverse prefix.
  auto desc = sql::ExecuteSql("SELECT id FROM t ORDER BY v DESC, id DESC "
                              "LIMIT 10",
                              &resolver, sql::ExecOptions{});
  ASSERT_TRUE(desc.ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(desc->At(i, "id").AsInt64(),
              reference[reference.size() - 1 - i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OrderLimitProperty,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace sq
