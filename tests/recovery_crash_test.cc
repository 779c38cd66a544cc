// Crash-injection tests for the durable snapshot log: a child process is
// SIGKILLed at arbitrary points of the append/commit loop (including
// mid-phase-1 and mid-fsync), and the parent verifies recovery lands exactly
// on the last committed snapshot with no torn record surviving. Plus the
// time-travel acceptance path: a snapshot id pruned from the in-memory
// retention window is still queryable — SQL and direct-object — from disk.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "dataflow/checkpoint.h"
#include "dataflow/execution.h"
#include "dataflow/job_graph.h"
#include "dataflow/operators.h"
#include "kv/grid.h"
#include "kv/object.h"
#include "kv/value.h"
#include "query/query_service.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"
#include "storage/durable_listener.h"
#include "storage/snapshot_log.h"

namespace sq::storage {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kKeysPerSnapshot = 32;
constexpr int32_t kChildPartitions = 4;

kv::Object SnapshotValue(int64_t ssid, int64_t key) {
  kv::Object o;
  o.Set("v", kv::Value(ssid * 1000 + key));
  return o;
}

std::string MakeTempDir() {
  std::string tmpl = "/tmp/sq_crash_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl.data());
  SQ_CHECK(dir != nullptr) << "mkdtemp failed";
  return dir;
}

/// Child body: reopen the log in `dir`, resume from the recovered latest
/// id, and append+commit full 32-key snapshots forever. Writes one byte to
/// `ready_fd` after each commit so the parent can time its SIGKILL after at
/// least one durable snapshot exists. Runs until killed.
[[noreturn]] void RunCommitLoopChild(const std::string& dir, int ready_fd) {
  auto log = SnapshotLog::Open(
      {.dir = dir, .flush_bytes = 1, .async_compact = false});
  if (!log.ok()) _exit(2);
  int64_t id = (*log)->LatestDurable() + 1;
  for (;; ++id) {
    for (int32_t p = 0; p < kChildPartitions; ++p) {
      std::vector<SnapshotLog::DeltaEntry> entries;
      for (int64_t k = p; k < kKeysPerSnapshot; k += kChildPartitions) {
        entries.push_back(SnapshotLog::DeltaEntry{kv::Value(k), false,
                                                  SnapshotValue(id, k)});
      }
      if (!(*log)->AppendDelta("snapshot_orders", id, p, entries).ok()) {
        _exit(3);
      }
    }
    if (!(*log)->Commit(id).ok()) _exit(4);
    char byte = 1;
    (void)::write(ready_fd, &byte, 1);
  }
}

/// Verifies every committed id in `log` reconstructs to exactly the 32 keys
/// the child wrote for it, and that recovery metadata is self-consistent.
void VerifyRecoveredLog(const SnapshotLog& log) {
  const std::vector<int64_t> committed = log.CommittedIds();
  ASSERT_FALSE(committed.empty());
  EXPECT_EQ(log.recovery_info().latest_committed, committed.back());
  EXPECT_EQ(log.recovery_info().committed_count,
            static_cast<int64_t>(committed.size()));
  for (const int64_t id : committed) {
    std::map<int64_t, int64_t> view;
    ASSERT_TRUE(log.ScanSnapshot("snapshot_orders", id,
                                 [&view](int32_t, const kv::Value& key,
                                         int64_t, const kv::Object& value) {
                                   view[key.int64_value()] =
                                       value.Get("v").int64_value();
                                 })
                    .ok())
        << "ssid " << id;
    ASSERT_EQ(view.size(), static_cast<size_t>(kKeysPerSnapshot))
        << "ssid " << id;
    for (int64_t k = 0; k < kKeysPerSnapshot; ++k) {
      EXPECT_EQ(view.at(k), id * 1000 + k) << "ssid " << id << " key " << k;
    }
  }
}

TEST(RecoveryCrashTest, SigkillMidCommitLoopRecoversToLastCommitted) {
  const std::string dir = MakeTempDir();
  int64_t previous_latest = 0;
  // Three kill/recover cycles over the same directory: each child resumes
  // from the previous recovery point, so later cycles also prove that a
  // recovered log accepts new commits.
  for (int cycle = 0; cycle < 3; ++cycle) {
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      ::close(pipe_fds[0]);
      RunCommitLoopChild(dir, pipe_fds[1]);  // never returns
    }
    ::close(pipe_fds[1]);
    // Wait for the first commit of this cycle, then let the child run a
    // little longer so the kill lands at an arbitrary protocol point
    // (mid-append, mid-flush, mid-fsync, between records).
    char byte = 0;
    ASSERT_EQ(::read(pipe_fds[0], &byte, 1), 1);
    ::usleep(20000 + 15000 * cycle);
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wait_status));
    ::close(pipe_fds[0]);

    auto log = SnapshotLog::Open({.dir = dir});
    ASSERT_TRUE(log.ok()) << log.status();
    VerifyRecoveredLog(**log);
    // Progress is monotonic across cycles and strictly grows (the child
    // committed at least one snapshot before the kill).
    EXPECT_GT((*log)->LatestDurable(), previous_latest);
    previous_latest = (*log)->LatestDurable();
  }
  fs::remove_all(dir);
}

TEST(RecoveryCrashTest, SigkillDuringListenerPhase1RecoversCleanly) {
  const std::string dir = MakeTempDir();
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipe_fds[0]);
    // Full engine-shaped write path: grid snapshot table -> listener chain.
    kv::Grid grid(kv::GridConfig{.node_count = 1, .partition_count = 8,
                                 .backup_count = 0});
    auto log = SnapshotLog::Open({.dir = dir, .flush_bytes = 1});
    if (!log.ok()) _exit(2);
    state::SnapshotRegistry registry(
        &grid, {.retained_versions = 2, .async_prune = false});
    DurableSnapshotListener durable(&grid, log->get());
    dataflow::CheckpointListenerChain chain({&durable, &registry});
    kv::SnapshotTable* table =
        grid.GetOrCreateSnapshotTable("snapshot_orders");
    for (int64_t id = 1;; ++id) {
      for (int64_t k = 0; k < kKeysPerSnapshot; ++k) {
        table->Write(id, kv::Value(k), SnapshotValue(id, k));
      }
      chain.OnCheckpointPrepared(id);
      chain.OnCheckpointCommitted(id);
      char byte = 1;
      (void)::write(pipe_fds[1], &byte, 1);
    }
  }
  ::close(pipe_fds[1]);
  char byte = 0;
  ASSERT_EQ(::read(pipe_fds[0], &byte, 1), 1);
  ::usleep(30000);
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ::close(pipe_fds[0]);

  auto log = SnapshotLog::Open({.dir = dir});
  ASSERT_TRUE(log.ok()) << log.status();
  VerifyRecoveredLog(**log);

  // The recovered log rebuilds a fresh grid to the recovery point.
  kv::Grid grid(kv::GridConfig{.node_count = 1, .partition_count = 8,
                               .backup_count = 0});
  auto info = (*log)->ReplayInto(&grid, /*retained_versions=*/2);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->latest_committed, (*log)->LatestDurable());
  kv::SnapshotTable* table = grid.GetSnapshotTable("snapshot_orders");
  ASSERT_NE(table, nullptr);
  for (int64_t k = 0; k < kKeysPerSnapshot; ++k) {
    auto value = table->GetAt(kv::Value(k), info->latest_committed);
    ASSERT_TRUE(value.has_value()) << "key " << k;
    EXPECT_EQ(value->Get("v").int64_value(),
              info->latest_committed * 1000 + k);
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Unaligned checkpointing under SIGKILL: the channel log must survive on
// disk and balance the snapshot cut exactly.

constexpr int64_t kUnalignedKeys = 11;

/// Child body for the unaligned crash test: a live two-source -> keyed-count
/// job with unaligned checkpoints and the full durable chain, checkpointing
/// in a tight loop. Signals the parent once a *committed* checkpoint
/// actually overtook in-flight records (so a non-empty channel log is on
/// disk), then keeps checkpointing until SIGKILLed.
[[noreturn]] void RunUnalignedJobChild(const std::string& dir, int ready_fd) {
  kv::Grid grid(kv::GridConfig{.node_count = 1, .partition_count = 8,
                               .backup_count = 0});
  auto log = SnapshotLog::Open(
      {.dir = dir, .flush_bytes = 1, .async_compact = false});
  if (!log.ok()) _exit(2);
  state::SnapshotRegistry registry(
      &grid, {.retained_versions = 2, .async_prune = false});
  DurableSnapshotListener durable(&grid, log->get());
  dataflow::CheckpointListenerChain chain({&durable, &registry});

  dataflow::JobGraph graph;
  dataflow::GeneratorSource::Options options;
  options.total_records = -1;  // unbounded; the parent's SIGKILL ends it
  options.target_rate = 200000.0;
  const int32_t src = graph.AddSource(
      "src", 2,
      dataflow::MakeGeneratorSourceFactory(
          options, [](int64_t offset, dataflow::OperatorContext* ctx) {
            kv::Object payload;
            payload.Set("n", kv::Value(offset));
            return dataflow::Record::Data(kv::Value(offset % kUnalignedKeys),
                                          std::move(payload), ctx->NowNanos());
          }));
  const int32_t count = graph.AddOperator(
      "count", 2,
      dataflow::MakeLambdaOperatorFactory(
          [](const dataflow::Record& r, dataflow::OperatorContext* ctx) {
            kv::Object state = ctx->GetState(r.key).value_or(kv::Object());
            state.Set("count", kv::Value(state.Get("count").AsInt64() + 1));
            ctx->PutState(r.key, std::move(state));
            return Status::OK();
          }));
  if (!graph.Connect(src, count, dataflow::EdgeKind::kKeyed).ok()) _exit(3);

  state::SQueryConfig state_config;
  state_config.parallelism = 2;
  dataflow::JobConfig config;
  config.checkpoint_interval_ms = 0;
  config.checkpoint_mode = dataflow::CheckpointMode::kUnaligned;
  config.partitioner = &grid.partitioner();
  config.listener = &chain;
  config.state_store_factory =
      state::MakeSQueryStateStoreFactory(&grid, state_config);
  auto job = dataflow::Job::Create(graph, std::move(config));
  if (!job.ok()) _exit(4);
  if (!(*job)->Start().ok()) _exit(5);

  bool signaled = false;
  for (;;) {
    if (!(*job)->TriggerCheckpoint().ok()) continue;
    if (signaled) continue;
    for (const dataflow::CheckpointRow& row : (*job)->RecentCheckpoints()) {
      if (row.committed && row.overtaken_records > 0) {
        char byte = 1;
        (void)::write(ready_fd, &byte, 1);
        signaled = true;
        break;
      }
    }
  }
}

// SIGKILL a live unaligned job mid-checkpoint-loop, reopen the log, and
// prove the recovered cut is consistent *from disk alone*. The generator
// persists per-instance emit counts under "offset", the counter counts every
// record it processed, and the channel log holds the records that overtook
// the barrier — so for every durable id L:
//
//   sum(source offsets at L) == sum(counts at L) + |channel_log(L)|
//
// Nothing lost, nothing double-counted: the snapshot plus its channel log
// account for exactly the records the sources had emitted at their capture
// points. Then a cold-restarted job is seeded with the recovered channel log
// via StageChannelLogReplay and must re-process every staged record.
TEST(RecoveryCrashTest, SigkillUnalignedJobLeavesReplayableChannelLog) {
  const std::string dir = MakeTempDir();
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipe_fds[0]);
    RunUnalignedJobChild(dir, pipe_fds[1]);  // never returns
  }
  ::close(pipe_fds[1]);
  char byte = 0;
  ASSERT_EQ(::read(pipe_fds[0], &byte, 1), 1);
  ::usleep(25000);  // let more checkpoints land so the kill hits mid-flight
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));
  ::close(pipe_fds[0]);

  auto log = SnapshotLog::Open({.dir = dir});
  ASSERT_TRUE(log.ok()) << log.status();
  // The child only signals after a checkpoint with a non-empty channel log
  // committed, so recovery must have found durable channel-log records.
  EXPECT_GT((*log)->recovery_info().channel_log_records, 0);

  const std::vector<int64_t> committed = (*log)->CommittedIds();
  ASSERT_FALSE(committed.empty());
  int64_t best_id = 0;  // durable id with the largest channel log
  int64_t best_in_flight = 0;
  for (const int64_t id : committed) {
    int64_t emitted = 0;
    ASSERT_TRUE((*log)
                    ->ScanSnapshot("snapshot_src", id,
                                   [&emitted](int32_t, const kv::Value&,
                                              int64_t,
                                              const kv::Object& value) {
                                     emitted +=
                                         value.Get("offset").int64_value();
                                   })
                    .ok())
        << "ssid " << id;
    int64_t counted = 0;
    ASSERT_TRUE((*log)
                    ->ScanSnapshot("snapshot_count", id,
                                   [&counted](int32_t, const kv::Value&,
                                              int64_t,
                                              const kv::Object& value) {
                                     counted +=
                                         value.Get("count").int64_value();
                                   })
                    .ok())
        << "ssid " << id;
    int64_t in_flight = 0;
    ASSERT_TRUE(
        (*log)
            ->ScanChannelLog(
                id,
                [&in_flight](const std::string& vertex, int32_t instance,
                             const SnapshotLog::LoggedRecord& record) {
                  EXPECT_EQ(vertex, "count");
                  EXPECT_GE(instance, 0);
                  EXPECT_LT(instance, 2);
                  const int64_t key = record.key.int64_value();
                  EXPECT_GE(key, 0);
                  EXPECT_LT(key, kUnalignedKeys);
                  // The logged record round-trips intact through the serde.
                  EXPECT_EQ(record.payload.Get("n").int64_value() %
                                kUnalignedKeys,
                            key);
                  ++in_flight;
                })
            .ok())
        << "ssid " << id;
    EXPECT_EQ(emitted, counted + in_flight)
        << "ssid " << id << " does not balance: " << emitted
        << " emitted vs " << counted << " counted + " << in_flight
        << " logged";
    if (in_flight > best_in_flight) {
      best_in_flight = in_flight;
      best_id = id;
    }
  }
  ASSERT_GT(best_in_flight, 0);

  // Channel logs are only addressable for durable ids.
  const Status missing = (*log)->ScanChannelLog(
      committed.back() + 1,
      [](const std::string&, int32_t, const SnapshotLog::LoggedRecord&) {});
  EXPECT_TRUE(missing.IsNotFound()) << missing;

  // Cold-restart replay: stage the recovered channel log into a fresh job
  // (same shape, sources bounded to zero so only staged records flow) and
  // verify every record is re-delivered to its counter before shutdown.
  dataflow::JobGraph graph;
  dataflow::GeneratorSource::Options options;
  options.total_records = 0;
  const int32_t src = graph.AddSource(
      "src", 2,
      dataflow::MakeGeneratorSourceFactory(
          options, [](int64_t offset, dataflow::OperatorContext* ctx) {
            return dataflow::Record::Data(kv::Value(offset), kv::Object(),
                                          ctx->NowNanos());
          }));
  const int32_t count = graph.AddOperator(
      "count", 2,
      dataflow::MakeLambdaOperatorFactory(
          [](const dataflow::Record&, dataflow::OperatorContext*) {
            return Status::OK();
          }));
  ASSERT_TRUE(graph.Connect(src, count, dataflow::EdgeKind::kKeyed).ok());
  dataflow::JobConfig config;
  config.checkpoint_interval_ms = 0;
  auto job = dataflow::Job::Create(graph, std::move(config));
  ASSERT_TRUE(job.ok()) << job.status();

  std::map<int32_t, std::vector<dataflow::Record>> staged;
  ASSERT_TRUE((*log)
                  ->ScanChannelLog(
                      best_id,
                      [&staged](const std::string&, int32_t instance,
                                const SnapshotLog::LoggedRecord& r) {
                        dataflow::Record record = dataflow::Record::Data(
                            r.key, r.payload, r.source_nanos);
                        record.from_instance = r.from_instance;
                        staged[instance].push_back(std::move(record));
                      })
                  .ok());
  for (auto& [instance, records] : staged) {
    ASSERT_TRUE(
        (*job)->StageChannelLogReplay("count", instance, std::move(records))
            .ok());
  }
  ASSERT_TRUE((*job)->Start().ok());
  // Staging is rejected once the job runs.
  EXPECT_FALSE((*job)->StageChannelLogReplay("count", 0, {}).ok());
  ASSERT_TRUE((*job)->AwaitCompletion().ok());
  EXPECT_EQ((*job)->ProcessedCount("count"), best_in_flight);

  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Time travel beyond the in-memory retention window (the acceptance path:
// a query for a pruned ssid used to return NotFound; with durable storage
// attached it returns the rows from disk).

class TimeTravelTest : public ::testing::Test {
 protected:
  TimeTravelTest()
      : dir_(MakeTempDir()),
        grid_(kv::GridConfig{.node_count = 2, .partition_count = 8,
                             .backup_count = 0}),
        registry_(&grid_, {.retained_versions = 2, .async_prune = false}),
        service_(&grid_, &registry_) {
    auto log = SnapshotLog::Open({.dir = dir_});
    SQ_CHECK(log.ok()) << log.status().ToString();
    log_ = std::move(*log);
    durable_ = std::make_unique<DurableSnapshotListener>(&grid_, log_.get());
    chain_.Add(durable_.get());
    chain_.Add(&registry_);

    state::SQueryConfig config;
    config.parallelism = 1;
    config.incremental = true;
    store_ = std::make_unique<state::SQueryStateStore>(&grid_, "counts", 0,
                                                       config);
    // Five committed checkpoints of a two-key state; retention keeps {4, 5}
    // in memory, the log keeps all five on disk.
    for (int64_t ckpt = 1; ckpt <= 5; ++ckpt) {
      for (int64_t key = 0; key < 2; ++key) {
        kv::Object o;
        o.Set("v", kv::Value(ckpt * 10 + key));
        store_->Put(kv::Value(key), o);
      }
      SQ_CHECK_OK(store_->SnapshotTo(ckpt));
      chain_.OnCheckpointPrepared(ckpt);
      chain_.OnCheckpointCommitted(ckpt);
    }
  }

  ~TimeTravelTest() override {
    store_ = nullptr;
    durable_ = nullptr;
    log_ = nullptr;
    fs::remove_all(dir_);
  }

  std::string dir_;
  kv::Grid grid_;
  state::SnapshotRegistry registry_;
  query::QueryService service_;
  std::unique_ptr<SnapshotLog> log_;
  std::unique_ptr<DurableSnapshotListener> durable_;
  dataflow::CheckpointListenerChain chain_;
  std::unique_ptr<state::SQueryStateStore> store_;
};

TEST_F(TimeTravelTest, PrunedSsidIsNotFoundWithoutDurableStorage) {
  auto result =
      service_.Execute("SELECT v FROM snapshot_counts WHERE ssid=1");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_F(TimeTravelTest, SqlQueryFallsThroughToDiskForPrunedSsid) {
  service_.AttachDurableStorage(log_.get());
  // In-retention ids still serve from memory.
  auto recent = service_.Execute(
      "SELECT SUM(v) AS s FROM snapshot_counts WHERE ssid=5");
  ASSERT_TRUE(recent.ok()) << recent.status();
  EXPECT_EQ(recent->At(0, "s").AsInt64(), 50 + 51);
  // Pruned ids serve from the log with the same row contents.
  for (int64_t ssid = 1; ssid <= 3; ++ssid) {
    auto result = service_.Execute(
        "SELECT SUM(v) AS s FROM snapshot_counts WHERE ssid=" +
        std::to_string(ssid));
    ASSERT_TRUE(result.ok()) << "ssid " << ssid << ": " << result.status();
    EXPECT_EQ(result->At(0, "s").AsInt64(), ssid * 20 + 1) << "ssid " << ssid;
  }
  // A never-committed id is still an error.
  auto missing =
      service_.Execute("SELECT v FROM snapshot_counts WHERE ssid=99");
  EXPECT_FALSE(missing.ok());
}

TEST_F(TimeTravelTest, PrunedSsidFromDiskAgreesAcrossEngines) {
  service_.AttachDurableStorage(log_.get());
  for (const std::string& sql :
       {std::string("SELECT key, v, ssid FROM snapshot_counts WHERE ssid = 2"),
        std::string("SELECT SUM(v) AS s, COUNT(*) AS n FROM snapshot_counts "
                    "WHERE ssid = 1 AND v > 10")}) {
    auto vectorized = service_.ExecuteWithStats(sql);
    ASSERT_TRUE(vectorized.ok()) << sql << ": " << vectorized.status();
    query::QueryOptions row_options;
    row_options.force_row_scan = true;
    auto row = service_.ExecuteWithStats(sql, row_options);
    ASSERT_TRUE(row.ok()) << sql << ": " << row.status();
    EXPECT_EQ(vectorized->result.columns, row->result.columns) << sql;
    EXPECT_EQ(vectorized->result.rows, row->result.rows) << sql;
    // The log's snapshot is served as a batch: the default engine reports
    // the typed loops, the forced row engine does not.
    EXPECT_TRUE(vectorized->stats.used_vectorized) << sql;
    EXPECT_FALSE(row->stats.used_vectorized) << sql;
    EXPECT_EQ(vectorized->stats.rows_scanned, row->stats.rows_scanned) << sql;
  }
  auto rows = service_.Execute(
      "SELECT key, v, ssid FROM snapshot_counts WHERE ssid = 2");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->RowCount(), 2u);
  EXPECT_EQ(rows->rows[0], (sql::Row{kv::Value(int64_t{0}),
                                     kv::Value(int64_t{20}),
                                     kv::Value(int64_t{2})}));
}

TEST_F(TimeTravelTest, PointLookupPastRetentionReadsOnlyTheKeyFromDisk) {
  service_.AttachDurableStorage(log_.get());
  auto result = service_.ExecuteWithStats(
      "SELECT key, v, ssid FROM snapshot_counts WHERE ssid = 2 AND key = 1");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->result.RowCount(), 1u);
  EXPECT_EQ(result->result.rows[0],
            (sql::Row{kv::Value(int64_t{1}), kv::Value(int64_t{21}),
                      kv::Value(int64_t{2})}));
  // Served by the log source's key lookup: the other key is never emitted.
  EXPECT_TRUE(result->stats.used_point_lookup);
  EXPECT_EQ(result->stats.rows_scanned, 1);
}

/// The grid's snapshot at ssid 5 (8 partitions) joined on its key with the
/// log's read of pruned ssid 1 (one partition): the partition counts differ,
/// so the log side is built once and every grid partition probes it.
TEST_F(TimeTravelTest, KeyJoinAcrossPartitionCountsAgreesAcrossEngines) {
  service_.AttachDurableStorage(log_.get());
  // What the fixture wrote: key k holds ckpt * 10 + k at checkpoint ckpt.
  int64_t then_sum = 0;
  int64_t now_sum = 0;
  for (int64_t key = 0; key < 2; ++key) {
    then_sum += 1 * 10 + key;
    now_sum += 5 * 10 + key;
  }
  const std::string rows_sql =
      "SELECT key, v, old.v AS then_v, old.ssid AS then_ssid FROM "
      "snapshot_counts AS now JOIN snapshot_counts AS old USING(key) "
      "WHERE now.ssid = 5 AND old.ssid = 1";
  const std::string count_sql =
      "SELECT COUNT(*) AS n, SUM(v) AS now_s, SUM(old.v) AS then_s FROM "
      "snapshot_counts AS now JOIN snapshot_counts AS old USING(key) "
      "WHERE now.ssid = 5 AND old.ssid = 1";
  for (const int32_t parallelism : {1, 4}) {
    for (const bool pushdown : {true, false}) {
      query::QueryOptions options;
      options.parallelism = parallelism;
      options.pushdown = pushdown;
      query::QueryOptions row_options = options;
      row_options.force_row_scan = true;
      for (const std::string& sql : {rows_sql, count_sql}) {
        auto vectorized = service_.Execute(sql, options);
        ASSERT_TRUE(vectorized.ok()) << sql << ": " << vectorized.status();
        auto row = service_.Execute(sql, row_options);
        ASSERT_TRUE(row.ok()) << sql << ": " << row.status();
        EXPECT_EQ(vectorized->columns, row->columns) << sql;
        EXPECT_EQ(vectorized->rows, row->rows) << sql;
      }
      auto count = service_.Execute(count_sql, options);
      ASSERT_TRUE(count.ok()) << count.status();
      EXPECT_EQ(count->At(0, "n").AsInt64(), 2);
      EXPECT_EQ(count->At(0, "now_s").AsInt64(), now_sum);
      EXPECT_EQ(count->At(0, "then_s").AsInt64(), then_sum);
      auto rows = service_.Execute(rows_sql, options);
      ASSERT_TRUE(rows.ok()) << rows.status();
      ASSERT_EQ(rows->RowCount(), 2u);
      for (size_t i = 0; i < rows->RowCount(); ++i) {
        const int64_t key = rows->At(i, "key").AsInt64();
        EXPECT_EQ(rows->At(i, "v").AsInt64(), 50 + key);
        EXPECT_EQ(rows->At(i, "then_v").AsInt64(), 10 + key);
        EXPECT_EQ(rows->At(i, "then_ssid").AsInt64(), 1);
      }
    }
  }
  auto plan = service_.Execute("EXPLAIN " + count_sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  bool whole_build = false;
  for (const sql::Row& line : plan->rows) {
    whole_build = whole_build ||
                  line[0].string_value() ==
                      "Join: hash join snapshot_counts USING (key), build "
                      "over 1 partitions";
  }
  EXPECT_TRUE(whole_build) << plan->ToString();
}

TEST_F(TimeTravelTest, DirectObjectInterfaceFallsThroughToDisk) {
  service_.AttachDurableStorage(log_.get());
  auto rows = service_.GetSnapshotObjects("counts",
                                          {kv::Value(int64_t{0}),
                                           kv::Value(int64_t{1})},
                                          /*ssid=*/2);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  std::map<int64_t, int64_t> got;
  for (const auto& [key, value] : *rows) {
    got[key.int64_value()] = value.Get("v").int64_value();
  }
  EXPECT_EQ(got, (std::map<int64_t, int64_t>{{0, 20}, {1, 21}}));
}

TEST_F(TimeTravelTest, SurvivesColdRestartOfTheWholeStack) {
  // Tear down everything but the directory, as after a process restart.
  store_ = nullptr;
  durable_ = nullptr;
  log_ = nullptr;

  auto log = SnapshotLog::Open({.dir = dir_});
  ASSERT_TRUE(log.ok()) << log.status();
  kv::Grid grid(kv::GridConfig{.node_count = 2, .partition_count = 8,
                               .backup_count = 0});
  auto info = (*log)->ReplayInto(&grid, /*retained_versions=*/2);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->latest_committed, 5);

  state::SnapshotRegistry registry(
      &grid, {.retained_versions = 2, .async_prune = false});
  registry.RestoreCommitted((*log)->CommittedIds());
  query::QueryService service(&grid, &registry);
  service.AttachDurableStorage(log->get());

  auto recent = service.Execute(
      "SELECT SUM(v) AS s FROM snapshot_counts WHERE ssid=5");
  ASSERT_TRUE(recent.ok()) << recent.status();
  EXPECT_EQ(recent->At(0, "s").AsInt64(), 50 + 51);
  auto old = service.Execute(
      "SELECT SUM(v) AS s FROM snapshot_counts WHERE ssid=2");
  ASSERT_TRUE(old.ok()) << old.status();
  EXPECT_EQ(old->At(0, "s").AsInt64(), 20 + 21);
}

}  // namespace
}  // namespace sq::storage
