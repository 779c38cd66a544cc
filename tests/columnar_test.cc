// Columnar batch layout, serde and SnapshotTable view-cache tests: the
// invariants both query engines lean on (MaterializeRow rebuilds the exact
// source object, incremental view patching equals a full rebuild, writes
// invalidate only the views they can change, and under random histories
// every view equals the version map's row scan) plus the encoding round-trip
// the durable log's columnar delta records use.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kv/columnar.h"
#include "kv/object.h"
#include "kv/partitioner.h"
#include "kv/snapshot_table.h"
#include "kv/value.h"
#include "storage/serde.h"

namespace sq {
namespace {

using kv::Column;
using kv::ColumnBatch;
using kv::Object;
using kv::Partitioner;
using kv::SnapshotTable;
using kv::Value;
using kv::ValueType;

// ---------------------------------------------------------------------------
// ColumnBatch layout

TEST(ColumnBatchTest, MaterializeRowRebuildsExactObjects) {
  ColumnBatch batch;
  const Object a{{"n", Value(int64_t{1})}, {"zone", Value("east")}};
  const Object b{{"n", Value(int64_t{2})}, {"ratio", Value(0.5)}};
  const Object c{{"flag", Value(true)}, {"note", Value::Null()}};
  batch.AppendRow(Value(int64_t{10}), 1, a);
  batch.AppendRow(Value(int64_t{11}), 1, b);
  batch.AppendRow(Value(int64_t{12}), 2, c);

  ASSERT_EQ(batch.row_count(), 3u);
  // Dictionary is the union of field names, sorted ascending.
  EXPECT_EQ(batch.names(),
            (std::vector<std::string>{"flag", "n", "note", "ratio", "zone"}));
  // Round trip is exact, including field order and absent fields.
  EXPECT_EQ(batch.MaterializeRow(0), a);
  EXPECT_EQ(batch.MaterializeRow(1), b);
  EXPECT_EQ(batch.MaterializeRow(2), c);

  EXPECT_EQ(batch.keys()[1], Value(int64_t{11}));
  EXPECT_EQ(batch.ssids()[2], 2);
  EXPECT_FALSE(batch.has_tombstones());
}

TEST(ColumnBatchTest, TypedColumnsStayContiguousAndAbsenceReadsNull) {
  ColumnBatch batch;
  batch.AppendRow(Value(int64_t{1}), 1, Object{{"n", Value(int64_t{7})}});
  batch.AppendRow(Value(int64_t{2}), 1, Object{{"zone", Value("west")}});
  batch.AppendRow(Value(int64_t{3}), 1, Object{{"n", Value(int64_t{9})}});

  const int n_idx = batch.FindColumn("n");
  ASSERT_GE(n_idx, 0);
  const Column& n = batch.column(static_cast<size_t>(n_idx));
  EXPECT_EQ(n.type(), ValueType::kInt64);
  EXPECT_FALSE(n.mixed());
  ASSERT_EQ(n.ints().size(), 3u);
  EXPECT_EQ(n.ints()[0], 7);
  EXPECT_EQ(n.ints()[2], 9);
  EXPECT_TRUE(n.present(0));
  EXPECT_FALSE(n.present(1));  // row 2 has no "n"
  EXPECT_EQ(n.At(1), Value::Null());
  EXPECT_EQ(batch.FindColumn("missing"), -1);
}

TEST(ColumnBatchTest, TypeConflictAndExplicitNullDemoteToMixed) {
  ColumnBatch batch;
  batch.AppendRow(Value(int64_t{1}), 1, Object{{"v", Value(int64_t{1})}});
  batch.AppendRow(Value(int64_t{2}), 1, Object{{"v", Value("two")}});
  const Column& v = batch.column(static_cast<size_t>(batch.FindColumn("v")));
  EXPECT_TRUE(v.mixed());
  EXPECT_EQ(v.At(0), Value(int64_t{1}));
  EXPECT_EQ(v.At(1), Value("two"));

  // An explicit NULL field cannot live next to the presence bitmap in a
  // typed array, so it also demotes.
  ColumnBatch nulls;
  nulls.AppendRow(Value(int64_t{1}), 1, Object{{"v", Value(int64_t{1})}});
  nulls.AppendRow(Value(int64_t{2}), 1, Object{{"v", Value::Null()}});
  const Column& nv = nulls.column(static_cast<size_t>(nulls.FindColumn("v")));
  EXPECT_TRUE(nv.mixed());
  EXPECT_TRUE(nv.present(1));
  EXPECT_EQ(nv.At(1), Value::Null());
  EXPECT_EQ(nulls.MaterializeRow(1), (Object{{"v", Value::Null()}}));
}

TEST(ColumnBatchTest, TombstoneRowsCarryNoFields) {
  ColumnBatch batch;
  batch.AppendRow(Value(int64_t{1}), 1, Object{{"n", Value(int64_t{5})}});
  batch.AppendTombstone(Value(int64_t{2}), 2);
  EXPECT_TRUE(batch.has_tombstones());
  EXPECT_FALSE(batch.tombstone(0));
  EXPECT_TRUE(batch.tombstone(1));
  EXPECT_EQ(batch.MaterializeRow(1), Object());
}

TEST(ColumnBatchTest, AppendRowFromCopiesCellsColumnToColumn) {
  ColumnBatch src;
  src.AppendRow(Value(int64_t{1}), 4,
                Object{{"n", Value(int64_t{3})}, {"zone", Value("east")}});
  src.AppendTombstone(Value(int64_t{2}), 5);

  ColumnBatch dst;
  dst.AppendRowFrom(src, 0);
  dst.AppendRowFrom(src, 1);
  ASSERT_EQ(dst.row_count(), 2u);
  EXPECT_EQ(dst.MaterializeRow(0), src.MaterializeRow(0));
  EXPECT_EQ(dst.ssids()[0], 4);
  EXPECT_TRUE(dst.tombstone(1));
}

// ---------------------------------------------------------------------------
// Columnar record encoding (what the snapshot log persists)

ColumnBatch RoundTrip(const ColumnBatch& batch) {
  std::string buf;
  storage::PutColumnBatch(&buf, batch);
  storage::Reader reader(buf);
  ColumnBatch out;
  EXPECT_TRUE(storage::ReadColumnBatch(&reader, &out));
  return out;
}

TEST(ColumnarSerdeTest, RoundTripPreservesRowsOrderAndTombstones) {
  ColumnBatch batch;
  batch.AppendRow(Value(int64_t{1}), 7,
                  Object{{"d", Value(2.25)},
                         {"n", Value(int64_t{-4})},
                         {"s", Value("zone-3")},
                         {"t", Value(true)}});
  batch.AppendRow(Value("str-key"), 7, Object{{"n", Value(int64_t{8})}});
  batch.AppendTombstone(Value(int64_t{9}), 8);
  batch.AppendRow(Value(int64_t{2}), 8, Object{{"x", Value::Null()}});

  const ColumnBatch out = RoundTrip(batch);
  ASSERT_EQ(out.row_count(), batch.row_count());
  EXPECT_EQ(out.names(), batch.names());
  for (size_t r = 0; r < batch.row_count(); ++r) {
    EXPECT_EQ(out.keys()[r], batch.keys()[r]) << "row " << r;
    EXPECT_EQ(out.ssids()[r], batch.ssids()[r]) << "row " << r;
    EXPECT_EQ(out.tombstone(r), batch.tombstone(r)) << "row " << r;
    EXPECT_EQ(out.MaterializeRow(r), batch.MaterializeRow(r)) << "row " << r;
  }
}

TEST(ColumnarSerdeTest, RoundTripKeepsTypedRepresentation) {
  ColumnBatch batch;
  for (int64_t i = 0; i < 10; ++i) {
    batch.AppendRow(Value(i), 1, Object{{"n", Value(i * 11)}});
  }
  const ColumnBatch out = RoundTrip(batch);
  const Column& n = out.column(static_cast<size_t>(out.FindColumn("n")));
  EXPECT_EQ(n.type(), ValueType::kInt64);
  EXPECT_FALSE(n.mixed());
  EXPECT_EQ(n.ints()[9], 99);
}

TEST(ColumnarSerdeTest, EmptyBatchRoundTrips) {
  const ColumnBatch out = RoundTrip(ColumnBatch());
  EXPECT_EQ(out.row_count(), 0u);
  EXPECT_EQ(out.column_count(), 0u);
}

TEST(ColumnarSerdeTest, TruncatedOrCorruptInputIsRejected) {
  ColumnBatch batch;
  batch.AppendRow(Value(int64_t{1}), 1,
                  Object{{"n", Value(int64_t{5})}, {"zone", Value("east")}});
  std::string buf;
  storage::PutColumnBatch(&buf, batch);

  // Every strict prefix must fail cleanly, never read out of bounds.
  for (size_t len = 0; len < buf.size(); ++len) {
    storage::Reader reader(std::string_view(buf.data(), len));
    ColumnBatch out;
    EXPECT_FALSE(storage::ReadColumnBatch(&reader, &out)) << "prefix " << len;
  }
  // Unknown encoding version.
  std::string bad = buf;
  bad[0] = static_cast<char>(0x7F);
  storage::Reader reader(bad);
  ColumnBatch out;
  EXPECT_FALSE(storage::ReadColumnBatch(&reader, &out));
}

// Round-trip property: seeded random batches mixing typed, mixed, absent
// and explicit-NULL cells of every type (NaN and -0.0 included), with
// tombstones, zero rows or zero columns, encode and decode to an equal
// batch, and every strict prefix of each encoding is rejected.

/// Values equal in type and bits: 2 and 2.0 differ, as do 0.0 and -0.0, and
/// a NaN equals a NaN of the same bits.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_double()) return a == b;
  const double x = a.double_value();
  const double y = b.double_value();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

bool SameObject(const Object& a, const Object& b) {
  if (a.fields().size() != b.fields().size()) return false;
  for (size_t i = 0; i < a.fields().size(); ++i) {
    if (a.fields()[i].first != b.fields()[i].first ||
        !SameValue(a.fields()[i].second, b.fields()[i].second)) {
      return false;
    }
  }
  return true;
}

Value RandomScalar(Rng* rng, ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      return Value(rng->NextBool(0.5));
    case ValueType::kInt64:
      return Value(rng->NextInRange(-1000, 1000));
    case ValueType::kDouble:
      switch (rng->NextBounded(6)) {
        case 0:
          return Value(std::numeric_limits<double>::quiet_NaN());
        case 1:
          return Value(-0.0);
        case 2:
          return Value(std::numeric_limits<double>::infinity());
        default:
          return Value(rng->NextDouble() * 200.0 - 100.0);
      }
    case ValueType::kString:
      return Value("s" + std::to_string(rng->NextBounded(50)));
  }
  return Value::Null();
}

ValueType RandomType(Rng* rng) {
  return static_cast<ValueType>(
      1 + rng->NextBounded(static_cast<uint64_t>(ValueType::kString)));
}

ColumnBatch RandomBatch(Rng* rng) {
  const size_t rows = rng->NextBounded(4) == 0 ? 0 : rng->NextBounded(16);
  const size_t fields = rng->NextBounded(5);
  // Per field: its type, and whether its cells take any type or NULL.
  std::vector<ValueType> types;
  std::vector<bool> mixed;
  for (size_t f = 0; f < fields; ++f) {
    types.push_back(RandomType(rng));
    mixed.push_back(rng->NextBool(0.3));
  }
  ColumnBatch batch;
  for (size_t r = 0; r < rows; ++r) {
    const Value key = rng->NextBool(0.5)
                          ? Value(rng->NextInRange(-50, 50))
                          : RandomScalar(rng, RandomType(rng));
    const int64_t ssid = rng->NextInRange(0, 9);
    if (rng->NextBool(0.15)) {
      batch.AppendTombstone(key, ssid);
      continue;
    }
    Object o;
    for (size_t f = 0; f < fields; ++f) {
      if (rng->NextBool(0.3)) continue;  // absent
      ValueType type = types[f];
      if (mixed[f]) {
        type = static_cast<ValueType>(
            rng->NextBounded(static_cast<uint64_t>(ValueType::kString) + 1));
      }
      o.Set("f" + std::to_string(f), RandomScalar(rng, type));
    }
    batch.AppendRow(key, ssid, o);
  }
  return batch;
}

void ExpectSameBatch(const ColumnBatch& got, const ColumnBatch& want) {
  ASSERT_EQ(got.row_count(), want.row_count());
  ASSERT_EQ(got.names(), want.names());
  for (size_t r = 0; r < want.row_count(); ++r) {
    EXPECT_TRUE(SameValue(got.keys()[r], want.keys()[r])) << "row " << r;
    EXPECT_EQ(got.ssids()[r], want.ssids()[r]) << "row " << r;
    EXPECT_EQ(got.tombstone(r), want.tombstone(r)) << "row " << r;
    EXPECT_TRUE(SameObject(got.MaterializeRow(r), want.MaterializeRow(r)))
        << "row " << r << ": " << got.MaterializeRow(r).ToString() << " vs "
        << want.MaterializeRow(r).ToString();
  }
  for (size_t c = 0; c < want.column_count(); ++c) {
    const Column& g = got.column(c);
    const Column& w = want.column(c);
    EXPECT_EQ(g.type(), w.type()) << want.names()[c];
    EXPECT_EQ(g.mixed(), w.mixed()) << want.names()[c];
    for (size_t r = 0; r < want.row_count(); ++r) {
      EXPECT_EQ(g.present(r), w.present(r)) << want.names()[c] << " " << r;
      EXPECT_TRUE(SameValue(g.At(r), w.At(r))) << want.names()[c] << " " << r;
    }
  }
}

TEST(ColumnarSerdeTest, RandomBatchesRoundTripAndPrefixesAreRejected) {
  int zero_rows = 0;
  int zero_columns = 0;
  int mixed_columns = 0;
  int tombstones = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const ColumnBatch batch = RandomBatch(&rng);
    zero_rows += batch.row_count() == 0 ? 1 : 0;
    zero_columns += batch.row_count() > 0 && batch.column_count() == 0;
    tombstones += batch.has_tombstones() ? 1 : 0;
    for (size_t c = 0; c < batch.column_count(); ++c) {
      mixed_columns += batch.column(c).mixed() ? 1 : 0;
    }
    std::string buf;
    storage::PutColumnBatch(&buf, batch);
    storage::Reader reader(buf);
    ColumnBatch out;
    ASSERT_TRUE(storage::ReadColumnBatch(&reader, &out));
    EXPECT_TRUE(reader.exhausted());
    ExpectSameBatch(out, batch);
    for (size_t len = 0; len < buf.size(); ++len) {
      storage::Reader prefix(std::string_view(buf.data(), len));
      ColumnBatch partial;
      EXPECT_FALSE(storage::ReadColumnBatch(&prefix, &partial))
          << "prefix " << len << " of " << buf.size();
    }
  }
  // The generator covers the shapes the property is about.
  EXPECT_GT(zero_rows, 0);
  EXPECT_GT(zero_columns, 0);
  EXPECT_GT(mixed_columns, 0);
  EXPECT_GT(tombstones, 0);
}

// ---------------------------------------------------------------------------
// SnapshotTable columnar views

Object Row(int64_t n) { return Object{{"n", Value(n)}}; }

// One view row as (key, entry ssid, object).
struct ViewRow {
  Value key;
  int64_t ssid;
  Object value;
  bool operator==(const ViewRow& o) const {
    return key == o.key && ssid == o.ssid && value == o.value;
  }
};

void PrintTo(const ViewRow& row, std::ostream* os) {
  *os << "{" << row.key.ToString() << " @" << row.ssid << " "
      << row.value.ToString() << "}";
}

// The rows of one partition's columnar view at `ssid`.
std::vector<ViewRow> PartitionViewRows(const SnapshotTable& table,
                                       int32_t partition, int64_t ssid) {
  std::vector<ViewRow> rows;
  auto view = table.ColumnarPartitionAt(partition, ssid);
  for (size_t r = 0; r < view->row_count(); ++r) {
    rows.push_back(
        {view->keys()[r], view->ssids()[r], view->MaterializeRow(r)});
  }
  return rows;
}

// The rows ScanPartitionAt emits for one partition at `ssid`.
std::vector<ViewRow> PartitionScanRows(const SnapshotTable& table,
                                       int32_t partition, int64_t ssid) {
  std::vector<ViewRow> rows;
  table.ScanPartitionAt(partition, ssid,
                        [&](const Value& key, int64_t s, const Object& v) {
                          rows.push_back({key, s, v});
                        });
  return rows;
}

// All rows of every partition's columnar view at `ssid`, flattened in
// partition order.
std::vector<ViewRow> ColumnarRows(const SnapshotTable& table, int64_t ssid) {
  std::vector<ViewRow> rows;
  for (int32_t p = 0; p < table.partition_count(); ++p) {
    for (ViewRow& row : PartitionViewRows(table, p, ssid)) {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::vector<ViewRow> ScanRows(const SnapshotTable& table, int64_t ssid) {
  std::vector<ViewRow> rows;
  for (int32_t p = 0; p < table.partition_count(); ++p) {
    for (ViewRow& row : PartitionScanRows(table, p, ssid)) {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

TEST(SnapshotTableColumnarTest, ViewMatchesRowScanOrderAndContent) {
  Partitioner part(4);
  SnapshotTable table("snapshot_t", &part);
  for (int64_t k = 0; k < 50; ++k) {
    table.Write(1, Value(k), Row(k * 10));
  }
  // Incremental second checkpoint: updates, an insert and a delete.
  table.Write(2, Value(int64_t{3}), Row(31));
  table.Write(2, Value(int64_t{100}), Row(1000));
  table.WriteTombstone(2, Value(int64_t{7}));

  for (int64_t ssid : {int64_t{1}, int64_t{2}}) {
    const auto columnar = ColumnarRows(table, ssid);
    const auto scanned = ScanRows(table, ssid);
    ASSERT_EQ(columnar.size(), scanned.size()) << "ssid " << ssid;
    for (size_t i = 0; i < scanned.size(); ++i) {
      EXPECT_EQ(columnar[i], scanned[i]) << "ssid " << ssid << " row " << i;
    }
  }
}

TEST(SnapshotTableColumnarTest, IncrementalPatchEqualsFullRebuild) {
  Partitioner part(2);
  SnapshotTable incremental("snapshot_t", &part);
  SnapshotTable fresh("snapshot_t", &part);
  auto write_both = [&](int64_t ssid, int64_t key, int64_t n) {
    incremental.Write(ssid, Value(key), Row(n));
    fresh.Write(ssid, Value(key), Row(n));
  };
  for (int64_t k = 0; k < 20; ++k) write_both(1, k, k);
  // Build and cache the view at 1 so the view at 2 is produced by patching.
  ASSERT_FALSE(ColumnarRows(incremental, 1).empty());

  for (int64_t k = 0; k < 20; k += 3) write_both(2, k, k + 100);
  incremental.WriteTombstone(2, Value(int64_t{5}));
  fresh.WriteTombstone(2, Value(int64_t{5}));

  // `incremental` patches its cached ssid-1 view; `fresh` builds from
  // scratch. Same rows, same order, same values.
  EXPECT_EQ(ColumnarRows(incremental, 2), ColumnarRows(fresh, 2));
}

TEST(SnapshotTableColumnarTest, ViewsAreCachedAndInvalidatedByNewerWrites) {
  Partitioner part(1);
  SnapshotTable table("snapshot_t", &part);
  table.Write(1, Value(int64_t{1}), Row(10));

  auto v1 = table.ColumnarPartitionAt(0, 1);
  ASSERT_NE(v1, nullptr);
  // Second request serves the cached batch.
  EXPECT_EQ(table.ColumnarPartitionAt(0, 1).get(), v1.get());

  // A write at ssid 2 cannot change the view at 1: still cached.
  table.Write(2, Value(int64_t{2}), Row(20));
  EXPECT_EQ(table.ColumnarPartitionAt(0, 1).get(), v1.get());

  // A write *at* ssid 1 changes it: the stale view is dropped and the new
  // one has the extra row. The old shared_ptr stays valid (immutable batch).
  table.Write(1, Value(int64_t{3}), Row(30));
  auto v1b = table.ColumnarPartitionAt(0, 1);
  ASSERT_NE(v1b, nullptr);
  EXPECT_NE(v1b.get(), v1.get());
  EXPECT_EQ(v1.get()->row_count(), 1u);
  EXPECT_EQ(v1b->row_count(), 2u);

  // Compaction keeps cached views at the floor and newer (still valid) but
  // drops older ones, whose bases shifted.
  auto v2 = table.ColumnarPartitionAt(0, 2);
  table.Compact(2);
  EXPECT_EQ(table.ColumnarPartitionAt(0, 2).get(), v2.get());
  EXPECT_NE(table.ColumnarPartitionAt(0, 1).get(), v1b.get());
  EXPECT_EQ(ColumnarRows(table, 2), ScanRows(table, 2));
}

TEST(SnapshotTableColumnarTest, MissingVersionYieldsEmptyView) {
  Partitioner part(1);
  SnapshotTable table("snapshot_t", &part);
  auto empty = table.ColumnarPartitionAt(0, 5);
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->row_count(), 0u);
  table.Write(7, Value(int64_t{1}), Row(1));
  // A version before the first write sees nothing.
  auto before = table.ColumnarPartitionAt(0, 6);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->row_count(), 0u);
  auto at = table.ColumnarPartitionAt(0, 7);
  ASSERT_NE(at, nullptr);
  EXPECT_EQ(at->row_count(), 1u);
}

// ---------------------------------------------------------------------------
// Randomized differential: every view against the version map
//
// Both query engines read the columnar views, so this is what checks the
// incrementally built views themselves. Each seed applies random writes,
// tombstones, snapshot drops, compactions and primary failovers; between
// them it reads views at random ssids, so later builds patch different
// cached bases. After every step each partition's view at a random ssid
// must equal ScanPartitionAt row for row. A failure names its seed and
// step; `--gtest_filter='*ColumnarViewDifferential*seed<n>'` replays it.

constexpr int32_t kDiffPartitions = 4;

// A row with a few fields of varying types, some absent and some explicitly
// NULL, so views hold typed, mixed and sparse columns.
Object RandomRow(Rng* rng) {
  Object o;
  o.Set("n", Value(static_cast<int64_t>(rng->NextBounded(1000))));
  switch (rng->NextBounded(4)) {
    case 0:
      o.Set("x", Value(rng->NextDouble()));
      break;
    case 1:
      o.Set("x", Value("s" + std::to_string(rng->NextBounded(50))));
      break;
    case 2:
      o.Set("x", Value());
      break;
    default:
      break;  // absent
  }
  if (rng->NextBool(0.3)) o.Set("flag", Value(rng->NextBool(0.5)));
  return o;
}

class ColumnarViewDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarViewDifferential, ViewsMatchRowScanAfterEveryStep) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  Partitioner part(kDiffPartitions);
  SnapshotTable table("snapshot_t", &part, /*backup_count=*/1);
  int64_t latest = 1;  // the checkpoint being written
  const auto any_ssid = [&] { return rng.NextInRange(0, latest + 1); };
  const auto any_partition = [&] {
    return static_cast<int32_t>(rng.NextBounded(kDiffPartitions));
  };
  for (int step = 0; step < 400; ++step) {
    const Value key(static_cast<int64_t>(rng.NextBounded(40)));
    // Mostly the checkpoint being written, sometimes an older one.
    const int64_t ssid =
        rng.NextBool(0.8) ? latest : rng.NextInRange(1, latest);
    const uint64_t op = rng.NextBounded(100);
    std::string what;
    if (op < 45) {
      table.Write(ssid, key, RandomRow(&rng));
      what = "Write";
    } else if (op < 60) {
      table.WriteTombstone(ssid, key);
      what = "WriteTombstone";
    } else if (op < 72) {
      ++latest;
      what = "next checkpoint";
    } else if (op < 78) {
      table.DropSnapshot(ssid);
      what = "DropSnapshot";
    } else if (op < 84) {
      table.Compact(ssid);
      what = "Compact";
    } else if (op < 88) {
      table.FailPartitionPrimary(any_partition());
      what = "FailPartitionPrimary";
    } else {
      for (int i = 0; i < 3; ++i) {
        table.ColumnarPartitionAt(any_partition(), any_ssid());
      }
      what = "view reads";
    }
    what += " at ssid " + std::to_string(ssid);
    for (int32_t p = 0; p < kDiffPartitions; ++p) {
      const int64_t at = any_ssid();
      ASSERT_EQ(PartitionViewRows(table, p, at),
                PartitionScanRows(table, p, at))
          << "seed " << seed << ", step " << step << " (" << what
          << "): partition " << p << " at ssid " << at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ColumnarViewDifferential, ::testing::Range<uint64_t>(1, 33),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

}  // namespace
}  // namespace sq
