#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "kv/grid.h"
#include "kv/map_store.h"
#include "kv/object.h"
#include "kv/partitioner.h"
#include "kv/snapshot_table.h"
#include "kv/value.h"

namespace sq::kv {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{5}).is_int64());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_EQ(Value(int64_t{5}).AsDouble(), 5.0);
  EXPECT_EQ(Value(2.9).AsInt64(), 2);
  EXPECT_EQ(Value().AsInt64(), 0);
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_NE(Value(int64_t{2}), Value(2.5));
  EXPECT_EQ(Value(int64_t{2}).Hash(), Value(2.0).Hash());
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(1.5), Value(int64_t{2}));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value(), Value(false));  // NULL sorts first
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value().Truthy());
  EXPECT_FALSE(Value(int64_t{0}).Truthy());
  EXPECT_FALSE(Value("").Truthy());
  EXPECT_TRUE(Value(int64_t{1}).Truthy());
  EXPECT_TRUE(Value("x").Truthy());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value("abc").ToString(), "abc");
}

TEST(ObjectTest, SetGetRemove) {
  Object o;
  EXPECT_TRUE(o.empty());
  o.Set("b", Value(int64_t{2}));
  o.Set("a", Value(int64_t{1}));
  EXPECT_EQ(o.Get("a").AsInt64(), 1);
  EXPECT_EQ(o.Get("b").AsInt64(), 2);
  EXPECT_TRUE(o.Get("missing").is_null());
  EXPECT_FALSE(o.Has("missing"));
  o.Set("a", Value(int64_t{10}));
  EXPECT_EQ(o.Get("a").AsInt64(), 10);
  EXPECT_EQ(o.size(), 2u);
  EXPECT_TRUE(o.Remove("a"));
  EXPECT_FALSE(o.Remove("a"));
  EXPECT_EQ(o.size(), 1u);
}

TEST(ObjectTest, FieldsAreSortedAndEqualityIsStructural) {
  Object a{{"x", Value(int64_t{1})}, {"y", Value("s")}};
  Object b;
  b.Set("y", Value("s"));
  b.Set("x", Value(int64_t{1}));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fields()[0].first, "x");
  EXPECT_EQ(a.fields()[1].first, "y");
}

TEST(PartitionerTest, DeterministicAndInRange) {
  Partitioner p(271);
  for (int64_t i = 0; i < 1000; ++i) {
    const int32_t a = p.PartitionOf(Value(i));
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 271);
    EXPECT_EQ(a, p.PartitionOf(Value(i)));
  }
  EXPECT_EQ(p.PartitionOf(Value("rider-17")),
            p.PartitionOf(Value("rider-17")));
}

TEST(LiveMapTest, PutGetRemoveScan) {
  Partitioner part(8);
  LiveMap map("orders", &part);
  for (int64_t i = 0; i < 100; ++i) {
    Object o;
    o.Set("v", Value(i * 10));
    map.Put(Value(i), std::move(o));
  }
  EXPECT_EQ(map.Size(), 100u);
  EXPECT_EQ(map.Get(Value(int64_t{7}))->Get("v").AsInt64(), 70);
  EXPECT_FALSE(map.Get(Value(int64_t{1000})).has_value());
  EXPECT_TRUE(map.Remove(Value(int64_t{7})));
  EXPECT_FALSE(map.Remove(Value(int64_t{7})));
  int64_t sum = 0;
  map.ForEach([&sum](const Value& k, const Object& v) {
    (void)k;
    sum += v.Get("v").AsInt64();
  });
  EXPECT_EQ(sum, (99 * 100 / 2) * 10 - 70);
}

TEST(LiveMapTest, ConcurrentWritersDistinctKeys) {
  Partitioner part(16);
  LiveMap map("m", &part);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Object o;
        o.Set("v", Value(int64_t{1}));
        map.Put(Value(static_cast<int64_t>(t) * kPerThread + i),
                std::move(o));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(map.Size(), static_cast<size_t>(kThreads) * kPerThread);
}

TEST(LiveMapTest, KeyLevelLockingAllowsConcurrentReadsDuringWrites) {
  Partitioner part(4);
  LiveMap map("m", &part);
  Object o;
  o.Set("v", Value(int64_t{0}));
  map.Put(Value(int64_t{1}), o);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int64_t v = 0;
    while (!stop.load()) {
      Object w;
      w.Set("v", Value(++v));
      map.Put(Value(int64_t{1}), std::move(w));
    }
  });
  // Readers must always observe a fully formed object (never torn).
  for (int i = 0; i < 20000; ++i) {
    auto got = map.Get(Value(int64_t{1}));
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(got->Has("v"));
  }
  stop.store(true);
  writer.join();
}

TEST(SnapshotTableTest, VersionedReads) {
  Partitioner part(4);
  SnapshotTable table("snapshot_counts", &part);
  Object v1;
  v1.Set("count", Value(int64_t{4}));
  table.Write(1, Value(int64_t{10}), v1);
  Object v2;
  v2.Set("count", Value(int64_t{5}));
  table.Write(2, Value(int64_t{10}), v2);

  EXPECT_EQ(table.GetAt(Value(int64_t{10}), 1)->Get("count").AsInt64(), 4);
  EXPECT_EQ(table.GetAt(Value(int64_t{10}), 2)->Get("count").AsInt64(), 5);
  // Backward differential read: version 3 falls back to the newest <= 3.
  EXPECT_EQ(table.GetAt(Value(int64_t{10}), 3)->Get("count").AsInt64(), 5);
  // Before the first version: absent.
  EXPECT_FALSE(table.GetAt(Value(int64_t{10}), 0).has_value());
  // Exact lookups do not fall back.
  EXPECT_TRUE(table.GetExact(Value(int64_t{10}), 2).has_value());
  EXPECT_FALSE(table.GetExact(Value(int64_t{10}), 3).has_value());
}

TEST(SnapshotTableTest, TombstonesHideKeys) {
  Partitioner part(4);
  SnapshotTable table("t", &part);
  Object v;
  v.Set("x", Value(int64_t{1}));
  table.Write(1, Value(int64_t{5}), v);
  table.WriteTombstone(2, Value(int64_t{5}));
  EXPECT_TRUE(table.GetAt(Value(int64_t{5}), 1).has_value());
  EXPECT_FALSE(table.GetAt(Value(int64_t{5}), 2).has_value());
  EXPECT_FALSE(table.GetAt(Value(int64_t{5}), 9).has_value());
  size_t seen = 0;
  table.ScanAt(2, [&seen](const Value&, int64_t, const Object&) { ++seen; });
  EXPECT_EQ(seen, 0u);
}

TEST(SnapshotTableTest, ScanAtReconstructsIncrementalView) {
  Partitioner part(4);
  SnapshotTable table("t", &part);
  // Snapshot 1: keys 1..3; snapshot 2 (delta): only key 2 changed.
  for (int64_t k = 1; k <= 3; ++k) {
    Object v;
    v.Set("v", Value(k * 100));
    table.Write(1, Value(k), v);
  }
  Object updated;
  updated.Set("v", Value(int64_t{222}));
  table.Write(2, Value(int64_t{2}), updated);

  std::map<int64_t, std::pair<int64_t, int64_t>> view;  // key -> (ssid, v)
  table.ScanAt(2, [&view](const Value& key, int64_t ssid, const Object& v) {
    view[key.AsInt64()] = {ssid, v.Get("v").AsInt64()};
  });
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[1], std::make_pair(int64_t{1}, int64_t{100}));
  EXPECT_EQ(view[2], std::make_pair(int64_t{2}, int64_t{222}));
  EXPECT_EQ(view[3], std::make_pair(int64_t{1}, int64_t{300}));
}

TEST(SnapshotTableTest, DropSnapshotRemovesUncommittedData) {
  Partitioner part(2);
  SnapshotTable table("t", &part);
  Object v;
  v.Set("x", Value(int64_t{1}));
  table.Write(1, Value(int64_t{1}), v);
  table.Write(2, Value(int64_t{1}), v);
  table.DropSnapshot(2);
  EXPECT_TRUE(table.GetExact(Value(int64_t{1}), 1).has_value());
  EXPECT_FALSE(table.GetExact(Value(int64_t{1}), 2).has_value());
  EXPECT_EQ(table.EntryCount(), 1u);
}

TEST(SnapshotTableTest, CompactPrunesObsoleteVersions) {
  Partitioner part(2);
  SnapshotTable table("t", &part);
  Object v;
  for (int64_t ssid = 1; ssid <= 5; ++ssid) {
    v.Set("x", Value(ssid));
    table.Write(ssid, Value(int64_t{1}), v);
  }
  EXPECT_EQ(table.EntryCount(), 5u);
  const size_t removed = table.Compact(4);
  EXPECT_EQ(removed, 3u);  // versions 1..3 dropped; 4 is the base
  EXPECT_EQ(table.EntryCount(), 2u);
  EXPECT_EQ(table.GetAt(Value(int64_t{1}), 4)->Get("x").AsInt64(), 4);
  EXPECT_EQ(table.GetAt(Value(int64_t{1}), 5)->Get("x").AsInt64(), 5);
  EXPECT_FALSE(table.GetAt(Value(int64_t{1}), 3).has_value());
}

TEST(SnapshotTableTest, CompactDropsDeadTombstones) {
  Partitioner part(2);
  SnapshotTable table("t", &part);
  Object v;
  v.Set("x", Value(int64_t{1}));
  table.Write(1, Value(int64_t{9}), v);
  table.WriteTombstone(2, Value(int64_t{9}));
  table.Compact(3);
  EXPECT_EQ(table.EntryCount(), 0u);
  EXPECT_EQ(table.KeyCount(), 0u);
  // The key is gone with its versions: not even the view at 1 holds it.
  EXPECT_EQ(table.ColumnarPartitionAt(part.PartitionOf(Value(int64_t{9})), 1)
                ->row_count(),
            0u);
}

TEST(SnapshotTableTest, CompactWithTombstoneBaseKeepsNewerVersionsCorrect) {
  // Chain [write@1, tombstone@3, write@5], floor 4: the base "entry" at the
  // floor is the tombstone. It carries no data, so compaction may drop it —
  // but views at and above the floor must still read as deleted until the
  // ssid-5 rewrite.
  Partitioner part(2);
  SnapshotTable table("t", &part);
  Object v;
  v.Set("x", Value(int64_t{7}));
  table.Write(1, Value(int64_t{1}), v);
  table.WriteTombstone(3, Value(int64_t{1}));
  table.Write(5, Value(int64_t{1}), v);
  table.Compact(4);
  EXPECT_EQ(table.EntryCount(), 1u);  // only the ssid-5 write survives
  EXPECT_FALSE(table.GetAt(Value(int64_t{1}), 4).has_value());
  EXPECT_TRUE(table.GetAt(Value(int64_t{1}), 5).has_value());
}

TEST(SnapshotTableTest, CompactKeepsSoleOldEntryAsBase) {
  // A key written once, far below the floor: its entry is the base every
  // retained version still reads through — it must survive compaction with
  // its original ssid.
  Partitioner part(2);
  SnapshotTable table("t", &part);
  Object v;
  v.Set("x", Value(int64_t{42}));
  table.Write(1, Value(int64_t{1}), v);
  const size_t removed = table.Compact(10);
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(table.EntryCount(), 1u);
  int64_t entry_ssid = 0;
  table.ScanAt(10, [&entry_ssid](const Value&, int64_t ssid, const Object&) {
    entry_ssid = ssid;
  });
  EXPECT_EQ(entry_ssid, 1);
  EXPECT_EQ(table.GetAt(Value(int64_t{1}), 10)->Get("x").AsInt64(), 42);
}

TEST(SnapshotTableTest, CompactIsSafeAgainstConcurrentReads) {
  // Hammer: one writer committing new versions and compacting behind the
  // retention floor while readers reconstruct views of committed ssids.
  // Exercised for data races under TSan/ASan; the assertion is that every
  // read of a committed ssid sees a complete, plausible view.
  constexpr int64_t kKeys = 64;
  constexpr int64_t kSnapshots = 40;
  Partitioner part(4);
  SnapshotTable table("t", &part);
  std::atomic<int64_t> committed{0};
  std::atomic<bool> failed{false};

  // Seed version 1 so readers always have something committed.
  for (int64_t k = 0; k < kKeys; ++k) {
    Object v;
    v.Set("x", Value(int64_t{1}));
    table.Write(1, Value(k), v);
  }
  committed.store(1);

  std::thread writer([&table, &committed] {
    for (int64_t ssid = 2; ssid <= kSnapshots; ++ssid) {
      for (int64_t k = 0; k < kKeys; ++k) {
        Object v;
        v.Set("x", Value(ssid));
        table.Write(ssid, Value(k), v);
      }
      committed.store(ssid);
      if (ssid > 2) table.Compact(ssid - 1);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&table, &committed, &failed] {
      while (committed.load() < kSnapshots) {
        const int64_t ssid = committed.load();
        size_t rows = 0;
        bool bad_entry = false;
        table.ScanAt(ssid, [&](const Value&, int64_t entry_ssid,
                               const Object& value) {
          ++rows;
          const int64_t x = value.Get("x").AsInt64();
          // The entry must be a version some writer actually produced, no
          // newer than the snapshot being read.
          if (entry_ssid > ssid || x != entry_ssid || x < 1) {
            bad_entry = true;
          }
        });
        bool missing = false;
        for (int64_t k = 0; k < kKeys; k += 7) {
          if (!table.GetAt(Value(k), ssid).has_value()) missing = true;
        }
        // The writer compacts to floor committed-1; if it advanced past our
        // ssid mid-read, an incomplete view is expected retention behavior,
        // not a bug — only validate reads that stayed inside the window.
        if (ssid >= committed.load() - 1) {
          if (bad_entry || missing || rows != static_cast<size_t>(kKeys)) {
            failed.store(true);
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  // Final view after all racing is the full latest snapshot.
  size_t rows = 0;
  table.ScanAt(kSnapshots,
               [&rows](const Value&, int64_t, const Object&) { ++rows; });
  EXPECT_EQ(rows, static_cast<size_t>(kKeys));
}

TEST(GridTest, CreatesAndFindsTables) {
  Grid grid(GridConfig{.node_count = 3, .partition_count = 16,
                       .backup_count = 1});
  EXPECT_EQ(grid.GetLiveMap("nope"), nullptr);
  LiveMap* m = grid.GetOrCreateLiveMap("orders");
  EXPECT_EQ(grid.GetOrCreateLiveMap("orders"), m);
  EXPECT_EQ(grid.GetLiveMap("orders"), m);
  SnapshotTable* s = grid.GetOrCreateSnapshotTable("snapshot_orders");
  EXPECT_EQ(grid.GetSnapshotTable("snapshot_orders"), s);
  EXPECT_EQ(grid.LiveMapNames().size(), 1u);
  EXPECT_EQ(grid.SnapshotTableNames().size(), 1u);
}

TEST(GridTest, PartitionOwnershipSpreadsAcrossNodes) {
  Grid grid(GridConfig{.node_count = 3, .partition_count = 12,
                       .backup_count = 1});
  std::set<int32_t> owners;
  for (int32_t p = 0; p < 12; ++p) {
    const int32_t n = grid.PrimaryNodeOf(p);
    EXPECT_GE(n, 0);
    EXPECT_LT(n, 3);
    owners.insert(n);
    EXPECT_NE(grid.BackupNodeOf(p, 0), n);
  }
  EXPECT_EQ(owners.size(), 3u);
}

TEST(GridTest, FailoverPromotesBackupData) {
  Grid grid(GridConfig{.node_count = 3, .partition_count = 12,
                       .backup_count = 1});
  LiveMap* live = grid.GetOrCreateLiveMap("m");
  SnapshotTable* snap = grid.GetOrCreateSnapshotTable("snapshot_m");
  for (int64_t i = 0; i < 300; ++i) {
    Object o;
    o.Set("v", Value(i));
    live->Put(Value(i), o);
    snap->Write(1, Value(i), o);
  }
  ASSERT_TRUE(grid.KillNode(1).ok());
  EXPECT_FALSE(grid.IsNodeAlive(1));
  EXPECT_EQ(grid.AliveNodeCount(), 2);
  // All data still readable after losing a node's primaries.
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(live->Get(Value(i)).has_value()) << "live key " << i;
    ASSERT_TRUE(snap->GetAt(Value(i), 1).has_value()) << "snap key " << i;
  }
  EXPECT_FALSE(grid.KillNode(1).ok());  // already dead
  ASSERT_TRUE(grid.ReviveNode(1).ok());
  EXPECT_TRUE(grid.IsNodeAlive(1));
}

// Regression: FailPartitionPrimary used to clear the primary copy under one
// lock and only then copy the backup in under a second one, leaving a window
// where concurrent readers observed an *empty* partition — committed
// snapshot keys transiently vanishing, a snapshot-isolation violation. The
// promotion must be atomic with respect to readers.
TEST(SnapshotTableTest, FailoverNeverExposesEmptyPartitionToReaders) {
  const Partitioner partitioner(8);
  SnapshotTable table("snapshot_hammer", &partitioner, /*backup_count=*/1);
  constexpr int64_t kKeys = 256;
  Object o;
  o.Set("v", Value(int64_t{1}));
  for (int64_t i = 0; i < kKeys; ++i) table.Write(1, Value(i), o);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> missing{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        for (int64_t i = 0; i < kKeys; ++i) {
          if (!table.GetAt(Value(i), 1).has_value()) missing.fetch_add(1);
        }
      }
    });
  }
  readers.emplace_back([&] {
    while (!stop.load()) {
      int64_t seen = 0;
      table.ScanAt(1, [&seen](const Value&, int64_t, const Object&) {
        ++seen;
      });
      if (seen != kKeys) missing.fetch_add(kKeys - seen);
    }
  });

  // Hammer every partition's primary with repeated failovers while the
  // readers run.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (std::chrono::steady_clock::now() < deadline) {
    for (int32_t p = 0; p < partitioner.partition_count(); ++p) {
      table.FailPartitionPrimary(p);
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(missing.load(), 0)
      << "readers observed keys missing from a committed snapshot";
  // The data itself survived all the promotions.
  for (int64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(table.GetAt(Value(i), 1).has_value()) << "key " << i;
  }
}

TEST(SnapshotTableTest, FailoverWithoutBackupLosesPartitionData) {
  const Partitioner partitioner(4);
  SnapshotTable table("snapshot_nobackup", &partitioner, /*backup_count=*/0);
  Object o;
  o.Set("v", Value(int64_t{1}));
  for (int64_t i = 0; i < 64; ++i) table.Write(1, Value(i), o);
  for (int32_t p = 0; p < 4; ++p) table.FailPartitionPrimary(p);
  EXPECT_EQ(table.KeyCount(), 0u);
  EXPECT_EQ(table.EntryCount(), 0u);
}

TEST(GridTest, RefusesToKillLastNode) {
  Grid grid(GridConfig{.node_count = 2, .partition_count = 4,
                       .backup_count = 1});
  ASSERT_TRUE(grid.KillNode(0).ok());
  EXPECT_FALSE(grid.KillNode(1).ok());
}

// Partition-parallel query execution fans one ForEachInPartition out per
// partition and assumes the union covers exactly ForEach's keyspace: every
// key visited once, in the partition the partitioner routes it to.
TEST(LiveMapTest, PerPartitionScansCoverExactlyTheFullKeyspace) {
  const Partitioner partitioner(7);
  LiveMap map("m", &partitioner);
  Object o;
  o.Set("v", Value(int64_t{1}));
  for (int64_t i = 0; i < 500; ++i) map.Put(Value(i), o);
  map.Put(Value("str-key"), o);
  map.Put(Value(2.5), o);

  std::set<Value> full;
  map.ForEach([&full](const Value& key, const Object&) {
    EXPECT_TRUE(full.insert(key).second) << key.ToString();
  });

  std::set<Value> partitioned;
  for (int32_t p = 0; p < partitioner.partition_count(); ++p) {
    map.ForEachInPartition(p, [&](const Value& key, const Object&) {
      EXPECT_EQ(map.partitioner().PartitionOf(key), p) << key.ToString();
      EXPECT_TRUE(partitioned.insert(key).second) << key.ToString();
    });
  }
  EXPECT_EQ(partitioned, full);
  EXPECT_EQ(partitioned.size(), map.Size());
}

TEST(SnapshotTableTest, PerPartitionScansCoverExactlyTheFullView) {
  const Partitioner partitioner(7);
  SnapshotTable table("snapshot_m", &partitioner);
  Object o;
  o.Set("v", Value(int64_t{1}));
  for (int64_t i = 0; i < 300; ++i) table.Write(1, Value(i), o);
  for (int64_t i = 0; i < 300; i += 3) table.Write(2, Value(i), o);
  for (int64_t i = 0; i < 300; i += 50) table.WriteTombstone(2, Value(i));

  for (int64_t ssid : {int64_t{1}, int64_t{2}}) {
    std::set<std::pair<Value, int64_t>> full;
    table.ScanAt(ssid, [&full](const Value& key, int64_t entry_ssid,
                               const Object&) {
      EXPECT_TRUE(full.insert({key, entry_ssid}).second);
    });
    std::set<std::pair<Value, int64_t>> partitioned;
    for (int32_t p = 0; p < partitioner.partition_count(); ++p) {
      const auto view = table.ColumnarPartitionAt(p, ssid);
      for (size_t r = 0; r < view->row_count(); ++r) {
        EXPECT_EQ(table.partitioner().PartitionOf(view->keys()[r]), p);
        EXPECT_TRUE(
            partitioned.insert({view->keys()[r], view->ssids()[r]}).second);
      }
    }
    EXPECT_EQ(partitioned, full) << "ssid " << ssid;
  }

  // The deltas of ssid 2, partition by partition, hold exactly what was
  // written at 2: one row per key, tombstones included, each in its key's
  // partition.
  std::set<std::pair<Value, bool>> written;
  for (int64_t i = 0; i < 300; i += 3) written.insert({Value(i), i % 50 == 0});
  for (int64_t i = 0; i < 300; i += 50) written.insert({Value(i), true});
  std::set<std::pair<Value, bool>> deltas;
  for (int32_t p = 0; p < partitioner.partition_count(); ++p) {
    const std::shared_ptr<const ColumnBatch> delta = table.DeltaAt(p, 2);
    if (delta == nullptr) continue;
    for (size_t r = 0; r < delta->row_count(); ++r) {
      EXPECT_EQ(partitioner.PartitionOf(delta->keys()[r]), p);
      EXPECT_EQ(delta->ssids()[r], 2);
      EXPECT_TRUE(
          deltas.insert({delta->keys()[r], delta->tombstone(r)}).second);
    }
  }
  EXPECT_EQ(deltas, written);
}

}  // namespace
}  // namespace sq::kv
