// Concurrency-hygiene tests: the lock-rank deadlock detector (death tests),
// the rank policy's allowed shapes (equal-rank nesting, release-then-lower,
// unranked exemption), and hammer tests that drive the annotated hot paths
// (histogram summaries, snapshot-table failover under ParallelFor, durable
// checkpoint + replay) with rank validation forced on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "kv/grid.h"
#include "kv/snapshot_table.h"
#include "kv/value.h"
#include "state/snapshot_registry.h"

namespace sq {
namespace {

// Forces rank checking on (off) for the duration of a scope, restoring the
// previous setting afterwards, so these tests behave identically in Debug
// (default on) and Release (default off) builds.
class ScopedRankChecks {
 public:
  explicit ScopedRankChecks(bool enabled)
      : previous_(Mutex::RankCheckingEnabled()) {
    Mutex::SetRankCheckingEnabled(enabled);
  }
  ~ScopedRankChecks() { Mutex::SetRankCheckingEnabled(previous_); }

 private:
  bool previous_;
};

TEST(LockRankTest, InvertedAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex::SetRankCheckingEnabled(true);
        Mutex outer(lockrank::kMetricsRegistry, "test.outer");
        Mutex inner(lockrank::kStorageLog, "test.inner");
        outer.Lock();
        inner.Lock();  // 700 -> 200: rank decreases
      },
      "lock rank inversion");
}

TEST(LockRankTest, AbortMessagePrintsBothStacks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The report names the acquired lock, lists the held-lock stack, and shows
  // the would-be stack with the offending acquisition appended.
  EXPECT_DEATH(
      {
        Mutex::SetRankCheckingEnabled(true);
        Mutex a(lockrank::kStateRegistry, "test.registry");
        Mutex b(lockrank::kKvPartition, "test.partition");
        Mutex c(lockrank::kJobCheckpoint, "test.checkpoint");
        a.Lock();
        b.Lock();  // 300 -> 500: fine
        c.Lock();  // -> 100: inversion; both held locks must be reported
      },
      "test\\.registry(.|\n)*test\\.partition(.|\n)*test\\.checkpoint");
}

TEST(LockRankTest, SharedMutexParticipatesInRanking) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex::SetRankCheckingEnabled(true);
        SharedMutex grid(lockrank::kKvGrid, "test.grid");
        Mutex log(lockrank::kStorageLog, "test.log");
        grid.LockShared();
        log.Lock();  // 400 -> 200 even via a shared hold: inversion
      },
      "lock rank inversion");
}

// The mutexes of the non-death ordering tests are static: TSan's deadlock
// detector keys lock-order edges by address, and stack locals of successive
// tests reuse addresses, merging unrelated acquisition orders into phantom
// cycles.
TEST(LockRankTest, IncreasingAndEqualRanksAllowed) {
  ScopedRankChecks checks(true);
  static Mutex low(lockrank::kStorageLog, "test.low");
  static Mutex mid(lockrank::kKvPartition, "test.mid.a");
  static Mutex mid2(lockrank::kKvPartition, "test.mid.b");
  static Mutex high(lockrank::kLeaf, "test.high");
  low.Lock();
  mid.Lock();
  mid2.Lock();  // equal rank: the failover promotion shape
  high.Lock();
  high.Unlock();
  mid2.Unlock();
  mid.Unlock();
  low.Unlock();
}

TEST(LockRankTest, ReleaseRestoresOrder) {
  ScopedRankChecks checks(true);
  static Mutex high(lockrank::kLogging, "test.high");
  static Mutex low(lockrank::kJobCheckpoint, "test.low");
  high.Lock();
  high.Unlock();
  low.Lock();  // not an inversion: the high-rank lock is no longer held
  low.Unlock();
}

TEST(LockRankTest, UnrankedMutexesAreExempt) {
  ScopedRankChecks checks(true);
  static Mutex unranked;
  static Mutex high(lockrank::kLogging, "test.logging");
  static Mutex low(lockrank::kJobCheckpoint, "test.low");
  high.Lock();
  unranked.Lock();  // unranked acquisition below a ranked hold: fine
  high.Unlock();
  low.Lock();  // the only remaining hold is unranked, so no comparison
  low.Unlock();
  unranked.Unlock();
}

TEST(LockRankTest, TryLockParticipates) {
  ScopedRankChecks checks(true);
  static Mutex mu(lockrank::kKvGrid, "test.trylock");
  ASSERT_TRUE(mu.TryLock());
  static Mutex higher(lockrank::kLeaf, "test.trylock.inner");
  higher.Lock();  // TryLock recorded the hold, so ordering still applies
  higher.Unlock();
  mu.Unlock();
}

TEST(LockRankTest, ChecksCanBeDisabledAtRuntime) {
  ScopedRankChecks checks(false);
  static Mutex outer(lockrank::kLogging, "test.outer");
  static Mutex inner(lockrank::kJobCheckpoint, "test.inner");
  outer.Lock();
  inner.Lock();  // inverted, but validation is off: must not abort
  inner.Unlock();
  outer.Unlock();
}

// Regression for a pre-existing read-skew bug: Summarize used to take the
// histogram lock once per statistic, so a concurrent Record could land
// between the p50 read and the p99 read and produce p50 > p99. One critical
// section makes every summary internally consistent.
TEST(HistogramConsistencyTest, SummariesAreInternallyConsistentUnderWrites) {
  ScopedRankChecks checks(true);
  Histogram histogram;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&histogram, &stop, t] {
      uint64_t v = t + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        histogram.Record(static_cast<int64_t>(v));
        // Unsigned, so the LCG wraps instead of overflowing a signed type.
        v = (v * 2862933555777941757ULL + 3037000493ULL) & 0xFFFFF;
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    const Histogram::Summary summary = histogram.Summarize();
    ASSERT_LE(summary.p0, summary.p50);
    ASSERT_LE(summary.p50, summary.p90);
    ASSERT_LE(summary.p90, summary.p99);
    ASSERT_LE(summary.p99, summary.p999);
    ASSERT_LE(summary.p999, summary.max);
    if (summary.count > 0) {
      ASSERT_GE(summary.mean, 0.0);
      ASSERT_LE(summary.p0, summary.max);
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

// ParallelFor workers hammer a replicated SnapshotTable while the main
// thread repeatedly fails partition primaries. Exercises the equal-rank
// partition nesting in FailPartitionPrimary and the pool's batch handoff
// with rank validation on; under TSan this doubles as a race check on the
// promotion path.
TEST(FailoverHammerTest, ParallelWritesSurvivePrimaryFailover) {
  ScopedRankChecks checks(true);
  kv::Partitioner partitioner(8);
  kv::SnapshotTable table("hammer", &partitioner, /*backup_count=*/1);
  ThreadPool pool(4);
  for (int round = 1; round <= 20; ++round) {
    pool.ParallelFor(64, 4, [&table, round](int32_t index) {
      const kv::Value key(static_cast<int64_t>(index));
      kv::Object object;
      object.Set("v", kv::Value(static_cast<int64_t>(round * 1000 + index)));
      table.Write(round, key, std::move(object));
    });
    table.FailPartitionPrimary(round % 8);
    // Promotion copies the backup, which saw every write, so nothing from
    // this round (or earlier rounds) may be lost.
    for (int32_t index = 0; index < 64; ++index) {
      const auto value = table.GetAt(kv::Value(static_cast<int64_t>(index)),
                                     round);
      ASSERT_TRUE(value.has_value()) << "round " << round << " key " << index;
    }
  }
}

// Drives the registry's commit + prune flow (two ranked mutexes and a
// background thread descending into grid and partition locks) with rank
// validation forced on.
TEST(RegistryRankTest, CommitAndPruneUnderRankChecks) {
  ScopedRankChecks checks(true);
  kv::Grid grid(kv::GridConfig{.node_count = 2, .partition_count = 4,
                               .backup_count = 1});
  state::SnapshotRegistry registry(
      &grid, {.retained_versions = 2, .async_prune = true});
  kv::SnapshotTable* table = grid.GetOrCreateSnapshotTable("snapshot_op");
  for (int64_t ckpt = 1; ckpt <= 6; ++ckpt) {
    for (int64_t key = 0; key < 32; ++key) {
      kv::Object object;
      object.Set("v", kv::Value(ckpt * 100 + key));
      table->Write(ckpt, kv::Value(key), std::move(object));
    }
    registry.OnCheckpointCommitted(ckpt);
  }
  registry.FlushPruning();
  EXPECT_EQ(registry.latest_committed(), 6);
  const std::vector<int64_t> retained = registry.RetainedVersions();
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_EQ(retained.front(), 5);
  EXPECT_EQ(retained.back(), 6);
  // Pruned versions are gone; retained ones are fully readable.
  for (int64_t key = 0; key < 32; ++key) {
    const auto value = table->GetAt(kv::Value(key), 6);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(value->Get("v").AsInt64(), 600 + key);
  }
}

}  // namespace
}  // namespace sq
