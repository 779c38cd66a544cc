#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>

#include "dataflow/state_store.h"
#include "kv/grid.h"
#include "state/isolation.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"

namespace sq::state {
namespace {

using kv::Grid;
using kv::GridConfig;
using kv::Object;
using kv::Value;

Object Obj(int64_t v) {
  Object o;
  o.Set("v", Value(v));
  return o;
}

class StateStoreTest : public ::testing::Test {
 protected:
  StateStoreTest()
      : grid_(GridConfig{.node_count = 2, .partition_count = 8,
                         .backup_count = 0}) {}

  Grid grid_;
};

TEST_F(StateStoreTest, TableNaming) {
  EXPECT_EQ(LiveTableName("stateful map"), "statefulmap");
  EXPECT_EQ(SnapshotTableName("stateful map"), "snapshot_statefulmap");
  EXPECT_EQ(SnapshotTableName("average"), "snapshot_average");
}

TEST_F(StateStoreTest, LiveMirroringOnEveryUpdate) {
  SQueryStateStore store(&grid_, "average", 0, SQueryConfig{});
  store.Put(Value(int64_t{1}), Obj(10));
  store.Put(Value(int64_t{2}), Obj(20));
  kv::LiveMap* live = grid_.GetLiveMap("average");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->Size(), 2u);
  EXPECT_EQ(live->Get(Value(int64_t{1}))->Get("v").AsInt64(), 10);
  store.Put(Value(int64_t{1}), Obj(11));
  EXPECT_EQ(live->Get(Value(int64_t{1}))->Get("v").AsInt64(), 11);
  store.Remove(Value(int64_t{1}));
  EXPECT_FALSE(live->Get(Value(int64_t{1})).has_value());
}

TEST_F(StateStoreTest, LiveDisabledWritesNothing) {
  SQueryConfig config;
  config.live_enabled = false;
  SQueryStateStore store(&grid_, "average", 0, config);
  store.Put(Value(int64_t{1}), Obj(10));
  EXPECT_EQ(grid_.GetLiveMap("average"), nullptr);
}

TEST_F(StateStoreTest, FullSnapshotWritesWholeState) {
  SQueryStateStats stats;
  SQueryStateStore store(&grid_, "op", 0, SQueryConfig{}, &stats);
  for (int64_t k = 0; k < 10; ++k) store.Put(Value(k), Obj(k));
  ASSERT_TRUE(store.SnapshotTo(1).ok());
  EXPECT_EQ(store.last_snapshot_entries(), 10u);
  // No changes at all: a full snapshot still rewrites everything.
  ASSERT_TRUE(store.SnapshotTo(2).ok());
  EXPECT_EQ(store.last_snapshot_entries(), 10u);
  EXPECT_EQ(stats.snapshot_entries_written.load(), 20);
  kv::SnapshotTable* table = grid_.GetSnapshotTable("snapshot_op");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->EntryCount(), 20u);
}

TEST_F(StateStoreTest, IncrementalSnapshotWritesOnlyDeltas) {
  SQueryConfig config;
  config.incremental = true;
  SQueryStateStore store(&grid_, "op", 0, config);
  for (int64_t k = 0; k < 10; ++k) store.Put(Value(k), Obj(k));
  ASSERT_TRUE(store.SnapshotTo(1).ok());
  EXPECT_EQ(store.last_snapshot_entries(), 10u);  // first delta = everything
  store.Put(Value(int64_t{3}), Obj(33));
  ASSERT_TRUE(store.SnapshotTo(2).ok());
  EXPECT_EQ(store.last_snapshot_entries(), 1u);
  ASSERT_TRUE(store.SnapshotTo(3).ok());
  EXPECT_EQ(store.last_snapshot_entries(), 0u);  // nothing changed

  // The reconstructed views must match what a full snapshot would show.
  kv::SnapshotTable* table = grid_.GetSnapshotTable("snapshot_op");
  EXPECT_EQ(table->GetAt(Value(int64_t{3}), 1)->Get("v").AsInt64(), 3);
  EXPECT_EQ(table->GetAt(Value(int64_t{3}), 2)->Get("v").AsInt64(), 33);
  EXPECT_EQ(table->GetAt(Value(int64_t{3}), 3)->Get("v").AsInt64(), 33);
  EXPECT_EQ(table->GetAt(Value(int64_t{5}), 3)->Get("v").AsInt64(), 5);
}

TEST_F(StateStoreTest, DeletionsWriteTombstones) {
  SQueryConfig config;
  config.incremental = true;
  SQueryStateStore store(&grid_, "op", 0, config);
  store.Put(Value(int64_t{1}), Obj(1));
  ASSERT_TRUE(store.SnapshotTo(1).ok());
  store.Remove(Value(int64_t{1}));
  ASSERT_TRUE(store.SnapshotTo(2).ok());
  kv::SnapshotTable* table = grid_.GetSnapshotTable("snapshot_op");
  EXPECT_TRUE(table->GetAt(Value(int64_t{1}), 1).has_value());
  EXPECT_FALSE(table->GetAt(Value(int64_t{1}), 2).has_value());
}

TEST_F(StateStoreTest, RestoreRollsBackLocalAndLiveState) {
  SQueryStateStore store(&grid_, "op", 0, SQueryConfig{});
  store.Put(Value(int64_t{1}), Obj(100));
  ASSERT_TRUE(store.SnapshotTo(1).ok());
  store.Put(Value(int64_t{1}), Obj(200));
  store.Put(Value(int64_t{2}), Obj(300));
  ASSERT_TRUE(store.RestoreFrom(1).ok());
  EXPECT_EQ(store.Get(Value(int64_t{1}))->Get("v").AsInt64(), 100);
  EXPECT_FALSE(store.Get(Value(int64_t{2})).has_value());
  kv::LiveMap* live = grid_.GetLiveMap("op");
  EXPECT_EQ(live->Get(Value(int64_t{1}))->Get("v").AsInt64(), 100);
  EXPECT_FALSE(live->Get(Value(int64_t{2})).has_value());
  // Restore to "before any checkpoint" empties everything.
  ASSERT_TRUE(store.RestoreFrom(0).ok());
  EXPECT_EQ(store.Size(), 0u);
  EXPECT_EQ(live->Size(), 0u);
}

TEST_F(StateStoreTest, RestoreFromTableRebuildsInstanceState) {
  // Two instances of a keyed vertex share the table; each owns the
  // partitions p with p % 2 == instance.
  SQueryConfig config;
  config.parallelism = 2;
  SQueryStateStore store0(&grid_, "op", 0, config);
  SQueryStateStore store1(&grid_, "op", 1, config);
  const auto& part = grid_.partitioner();
  for (int64_t k = 0; k < 40; ++k) {
    const int32_t instance = part.PartitionOf(Value(k)) % 2;
    (instance == 0 ? store0 : store1).Put(Value(k), Obj(k));
  }
  ASSERT_TRUE(store0.SnapshotTo(1).ok());
  ASSERT_TRUE(store1.SnapshotTo(1).ok());
  const size_t size0 = store0.Size();
  ASSERT_GT(size0, 0u);

  // Simulate losing instance 0's memory and rebuilding from the table.
  store0.Clear();
  EXPECT_EQ(store0.Size(), 0u);
  ASSERT_TRUE(store0.RestoreFromTable(1).ok());
  EXPECT_EQ(store0.Size(), size0);
  for (int64_t k = 0; k < 40; ++k) {
    if (part.PartitionOf(Value(k)) % 2 == 0) {
      ASSERT_TRUE(store0.Get(Value(k)).has_value()) << k;
      EXPECT_EQ(store0.Get(Value(k))->Get("v").AsInt64(), k);
    } else {
      EXPECT_FALSE(store0.Get(Value(k)).has_value()) << k;
    }
  }
}

// ---------------------------------------------------------------------------
// The phase-1 capture protocol (BeginSnapshot, FinishSnapshotStep until true,
// AbortSnapshot), checked directly against every StateStore implementation.

struct InMemoryStores {
  static std::unique_ptr<dataflow::StateStore> Make(Grid* /*grid*/,
                                                    const std::string& /*op*/,
                                                    bool /*incremental*/) {
    return std::make_unique<dataflow::InMemoryStateStore>(
        /*retained_snapshots=*/8);
  }
  // The baseline store has no queryable snapshot table.
  static std::map<int64_t, int64_t> TableView(Grid* /*grid*/,
                                              const std::string& /*op*/,
                                              int64_t /*ssid*/) {
    return {};
  }
};

struct SQueryStores {
  static std::unique_ptr<dataflow::StateStore> Make(Grid* grid,
                                                    const std::string& op,
                                                    bool incremental) {
    SQueryConfig config;
    config.incremental = incremental;
    config.retained_versions = 8;
    return std::make_unique<SQueryStateStore>(grid, op, 0, config);
  }
  static std::map<int64_t, int64_t> TableView(Grid* grid,
                                              const std::string& op,
                                              int64_t ssid) {
    std::map<int64_t, int64_t> view;
    grid->GetOrCreateSnapshotTable(SnapshotTableName(op))
        ->ScanAt(ssid, [&view](const Value& key, int64_t, const Object& v) {
          view[key.AsInt64()] = v.Get("v").AsInt64();
        });
    return view;
  }
};

template <typename Stores>
class CaptureProtocolTest : public ::testing::Test {
 protected:
  CaptureProtocolTest()
      : grid_(GridConfig{.node_count = 2, .partition_count = 8,
                         .backup_count = 0}) {}

  std::unique_ptr<dataflow::StateStore> Make(const std::string& op,
                                             bool incremental = false) {
    return Stores::Make(&grid_, op, incremental);
  }
  std::map<int64_t, int64_t> TableView(const std::string& op, int64_t ssid) {
    return Stores::TableView(&grid_, op, ssid);
  }

  // Rolls `store` back to `ssid` and returns the restored state.
  static std::map<int64_t, int64_t> Restored(dataflow::StateStore* store,
                                             int64_t ssid) {
    EXPECT_TRUE(store->RestoreFrom(ssid).ok());
    std::map<int64_t, int64_t> view;
    store->ForEach([&view](const Value& key, const Object& v) {
      view[key.AsInt64()] = v.Get("v").AsInt64();
    });
    return view;
  }

  // Keys 0..9 with value == key.
  static void Fill(dataflow::StateStore* store) {
    for (int64_t k = 0; k < 10; ++k) store->Put(Value(k), Obj(k));
  }

  // Mutations racing a capture: an update, a delete and an insert.
  static void Mutate(dataflow::StateStore* store) {
    store->Put(Value(int64_t{1}), Obj(100));
    store->Remove(Value(int64_t{2}));
    store->Put(Value(int64_t{50}), Obj(50));
  }

  static std::map<int64_t, int64_t> Filled() {
    std::map<int64_t, int64_t> view;
    for (int64_t k = 0; k < 10; ++k) view[k] = k;
    return view;
  }

  Grid grid_;
};

using StoreKinds = ::testing::Types<InMemoryStores, SQueryStores>;
TYPED_TEST_SUITE(CaptureProtocolTest, StoreKinds);

TYPED_TEST(CaptureProtocolTest, MutationsAfterBeginAreInvisible) {
  auto store = this->Make("op");
  this->Fill(store.get());
  ASSERT_TRUE(store->BeginSnapshot(1).ok());
  this->Mutate(store.get());
  auto done = store->FinishSnapshotStep(1, 4);
  ASSERT_TRUE(done.ok()) << done.status();
  while (!*done) {
    this->Mutate(store.get());
    done = store->FinishSnapshotStep(1, 4);
    ASSERT_TRUE(done.ok()) << done.status();
  }
  if (std::is_same_v<TypeParam, SQueryStores>) {
    EXPECT_EQ(this->TableView("op", 1), this->Filled());
  }
  EXPECT_EQ(this->Restored(store.get(), 1), this->Filled());
}

TYPED_TEST(CaptureProtocolTest, StepsOfOneEqualOneUnboundedStep) {
  auto stepped = this->Make("stepped");
  auto whole = this->Make("whole");
  this->Fill(stepped.get());
  this->Fill(whole.get());
  ASSERT_TRUE(stepped->BeginSnapshot(1).ok());
  ASSERT_TRUE(whole->BeginSnapshot(1).ok());
  auto done = whole->FinishSnapshotStep(1, std::numeric_limits<size_t>::max());
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(*done);
  this->Mutate(whole.get());
  do {
    this->Mutate(stepped.get());
    done = stepped->FinishSnapshotStep(1, 1);
    ASSERT_TRUE(done.ok()) << done.status();
  } while (!*done);
  EXPECT_EQ(this->TableView("stepped", 1), this->TableView("whole", 1));
  EXPECT_EQ(this->Restored(stepped.get(), 1), this->Restored(whole.get(), 1));
}

TYPED_TEST(CaptureProtocolTest, AbortPublishesNothing) {
  auto store = this->Make("op");
  this->Fill(store.get());
  ASSERT_TRUE(store->BeginSnapshot(1).ok());
  this->Mutate(store.get());
  store->AbortSnapshot(1);
  // The capture is gone: stepping it fails, a new one can begin.
  EXPECT_FALSE(store->FinishSnapshotStep(1, 1).ok());
  EXPECT_TRUE(store->RestoreFrom(1).IsNotFound());
  this->Fill(store.get());
  ASSERT_TRUE(store->SnapshotTo(2).ok());
  std::map<int64_t, int64_t> expected = this->Filled();
  expected[50] = 50;  // inserted by Mutate
  EXPECT_EQ(this->Restored(store.get(), 2), expected);
}

TYPED_TEST(CaptureProtocolTest, SecondBeginWhileInFlightIsRejected) {
  auto store = this->Make("op");
  this->Fill(store.get());
  ASSERT_TRUE(store->BeginSnapshot(1).ok());
  const Status second = store->BeginSnapshot(2);
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition) << second;
  // The first capture is untouched by the rejected Begin.
  auto done = store->FinishSnapshotStep(1, std::numeric_limits<size_t>::max());
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(*done);
  EXPECT_EQ(this->Restored(store.get(), 1), this->Filled());
}

// Incremental snapshots write only the keys dirtied since the last one; an
// aborted capture must hand its epoch's dirty and deleted keys on to the next
// capture, or the next delta silently misses them.
TEST_F(StateStoreTest, AbortedIncrementalEpochCarriesIntoNextSnapshot) {
  SQueryConfig config;
  config.incremental = true;
  SQueryStateStore store(&grid_, "op", 0, config);
  for (int64_t k = 0; k < 10; ++k) store.Put(Value(k), Obj(k));
  ASSERT_TRUE(store.SnapshotTo(1).ok());
  store.Put(Value(int64_t{3}), Obj(33));
  store.Remove(Value(int64_t{4}));
  ASSERT_TRUE(store.BeginSnapshot(2).ok());
  ASSERT_TRUE(store.FinishSnapshotStep(2, 1).ok());
  store.AbortSnapshot(2);
  ASSERT_TRUE(store.SnapshotTo(3).ok());
  EXPECT_EQ(store.last_snapshot_entries(), 1u);  // key 3; key 4 a tombstone
  kv::SnapshotTable* table = grid_.GetSnapshotTable("snapshot_op");
  EXPECT_EQ(table->GetAt(Value(int64_t{3}), 3)->Get("v").AsInt64(), 33);
  EXPECT_FALSE(table->GetAt(Value(int64_t{4}), 3).has_value());
  EXPECT_EQ(table->GetAt(Value(int64_t{5}), 3)->Get("v").AsInt64(), 5);
}

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest()
      : grid_(GridConfig{.node_count = 2, .partition_count = 8,
                         .backup_count = 0}) {}

  Grid grid_;
};

TEST_F(RegistryTest, PublishesLatestAtomically) {
  SnapshotRegistry registry(&grid_, {.retained_versions = 2,
                                     .async_prune = false});
  EXPECT_EQ(registry.latest_committed(), 0);
  EXPECT_FALSE(registry.Resolve(std::nullopt).ok());
  registry.OnCheckpointCommitted(1);
  EXPECT_EQ(registry.latest_committed(), 1);
  EXPECT_EQ(*registry.Resolve(std::nullopt), 1);
  registry.OnCheckpointCommitted(2);
  EXPECT_EQ(*registry.Resolve(std::nullopt), 2);
  EXPECT_EQ(*registry.Resolve(1), 1);
}

TEST_F(RegistryTest, RetentionWindowIsEnforced) {
  SnapshotRegistry registry(&grid_, {.retained_versions = 2,
                                     .async_prune = false});
  registry.OnCheckpointCommitted(1);
  registry.OnCheckpointCommitted(2);
  registry.OnCheckpointCommitted(3);
  EXPECT_EQ(registry.RetainedVersions(), (std::vector<int64_t>{2, 3}));
  EXPECT_TRUE(registry.IsQueryable(2));
  EXPECT_FALSE(registry.IsQueryable(1));
  EXPECT_FALSE(registry.Resolve(1).ok());
  EXPECT_TRUE(registry.Resolve(3).ok());
}

TEST_F(RegistryTest, CommitPrunesTablesToRetentionFloor) {
  SQueryConfig config;
  SQueryStateStore store(&grid_, "op", 0, config);
  SnapshotRegistry registry(&grid_, {.retained_versions = 2,
                                     .async_prune = false});
  for (int64_t ckpt = 1; ckpt <= 5; ++ckpt) {
    store.Put(Value(int64_t{1}), Obj(ckpt));
    ASSERT_TRUE(store.SnapshotTo(ckpt).ok());
    registry.OnCheckpointCommitted(ckpt);
  }
  // Only versions {4, 5} retained: entries 1..3 compacted away.
  kv::SnapshotTable* table = grid_.GetSnapshotTable("snapshot_op");
  EXPECT_EQ(table->EntryCount(), 2u);
  EXPECT_EQ(table->GetAt(Value(int64_t{1}), 4)->Get("v").AsInt64(), 4);
}

TEST_F(RegistryTest, ConstantMemoryUnderKeep2) {
  SQueryConfig config;
  SQueryStateStore store(&grid_, "op", 0, config);
  SnapshotRegistry registry(&grid_, {.retained_versions = 2,
                                     .async_prune = false});
  constexpr int64_t kKeys = 50;
  size_t entries_after_warmup = 0;
  for (int64_t ckpt = 1; ckpt <= 20; ++ckpt) {
    for (int64_t k = 0; k < kKeys; ++k) store.Put(Value(k), Obj(ckpt));
    ASSERT_TRUE(store.SnapshotTo(ckpt).ok());
    registry.OnCheckpointCommitted(ckpt);
    const size_t entries =
        grid_.GetSnapshotTable("snapshot_op")->EntryCount();
    if (ckpt == 3) entries_after_warmup = entries;
    if (ckpt > 3) {
      EXPECT_EQ(entries, entries_after_warmup) << "checkpoint " << ckpt;
    }
  }
  EXPECT_EQ(entries_after_warmup, 2 * kKeys);
}

TEST_F(RegistryTest, AbortDropsUncommittedSnapshotData) {
  SQueryStateStore store(&grid_, "op", 0, SQueryConfig{});
  SnapshotRegistry registry(&grid_, {.retained_versions = 2,
                                     .async_prune = false});
  store.Put(Value(int64_t{1}), Obj(1));
  ASSERT_TRUE(store.SnapshotTo(1).ok());
  registry.OnCheckpointCommitted(1);
  store.Put(Value(int64_t{1}), Obj(2));
  ASSERT_TRUE(store.SnapshotTo(2).ok());  // phase 1 done, never commits
  registry.OnCheckpointAborted(2);
  kv::SnapshotTable* table = grid_.GetSnapshotTable("snapshot_op");
  EXPECT_FALSE(table->GetExact(Value(int64_t{1}), 2).has_value());
  EXPECT_EQ(table->GetAt(Value(int64_t{1}), 9)->Get("v").AsInt64(), 1);
}

TEST_F(RegistryTest, WaitForCommitAndAsyncPruneFlush) {
  SnapshotRegistry registry(&grid_, {.retained_versions = 1,
                                     .async_prune = true});
  EXPECT_FALSE(registry.WaitForCommit(1, 20));
  registry.OnCheckpointCommitted(1);
  EXPECT_TRUE(registry.WaitForCommit(1, 1000));
  registry.OnCheckpointCommitted(2);
  registry.FlushPruning();
  EXPECT_EQ(registry.RetainedVersions(), (std::vector<int64_t>{2}));
}

TEST_F(RegistryTest, AsyncPrunerShutsDownCleanlyMidPrune) {
  // Destroy the registry while prune work is still queued/running: the
  // destructor must stop and join the pruner without touching freed state
  // (run under ASan/TSan in CI). Several rounds to vary the timing.
  SQueryConfig config;
  SQueryStateStore store(&grid_, "op", 0, config);
  for (int round = 0; round < 10; ++round) {
    SnapshotRegistry registry(&grid_, {.retained_versions = 1,
                                       .async_prune = true});
    const int64_t base = round * 8;
    for (int64_t i = 1; i <= 8; ++i) {
      for (int64_t k = 0; k < 200; ++k) store.Put(Value(k), Obj(base + i));
      ASSERT_TRUE(store.SnapshotTo(base + i).ok());
      registry.OnCheckpointCommitted(base + i);
    }
    // Registry destructor runs here with up to 7 prunes still in flight.
  }
  kv::SnapshotTable* table = grid_.GetSnapshotTable("snapshot_op");
  ASSERT_NE(table, nullptr);
  // Whatever was pruned, the latest version must be fully readable.
  EXPECT_EQ(table->GetAt(Value(int64_t{0}), 80)->Get("v").AsInt64(), 80);
}

TEST_F(RegistryTest, RestoreCommittedSeedsRetentionAndLatest) {
  SnapshotRegistry registry(&grid_, {.retained_versions = 2,
                                     .async_prune = false});
  registry.RestoreCommitted({1, 2, 3, 4, 5});
  EXPECT_EQ(registry.latest_committed(), 5);
  EXPECT_EQ(registry.RetainedVersions(), (std::vector<int64_t>{4, 5}));
  EXPECT_TRUE(registry.IsQueryable(5));
  EXPECT_TRUE(registry.IsQueryable(4));
  EXPECT_FALSE(registry.IsQueryable(3));
  // WaitForCommit observes the restored frontier immediately.
  EXPECT_TRUE(registry.WaitForCommit(5, 0));
  // Restoring fewer ids than the retention window keeps them all.
  SnapshotRegistry small(&grid_, {.retained_versions = 3,
                                  .async_prune = false});
  small.RestoreCommitted({7});
  EXPECT_EQ(small.latest_committed(), 7);
  EXPECT_EQ(small.RetainedVersions(), (std::vector<int64_t>{7}));
}

TEST(IsolationTest, LevelPredicatesAndNames) {
  EXPECT_FALSE(ReadsSnapshots(IsolationLevel::kReadUncommitted));
  EXPECT_FALSE(ReadsSnapshots(IsolationLevel::kReadCommittedNoFailures));
  EXPECT_TRUE(ReadsSnapshots(IsolationLevel::kSnapshotIsolation));
  EXPECT_TRUE(ReadsSnapshots(IsolationLevel::kSerializable));
  EXPECT_STREQ(IsolationLevelToString(IsolationLevel::kSerializable),
               "serializable");
}

}  // namespace
}  // namespace sq::state
