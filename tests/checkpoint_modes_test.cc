#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dataflow/execution.h"
#include "dataflow/job_graph.h"
#include "dataflow/operators.h"
#include "kv/grid.h"
#include "kv/snapshot_table.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"
#include "storage/serde.h"
#include "trace/trace.h"

namespace sq::dataflow {
namespace {

using kv::Object;
using kv::Value;

OperatorFactory NumbersSource(int64_t n, int64_t keys, double rate = 0.0,
                              bool linger = false) {
  GeneratorSource::Options options;
  options.total_records = n;
  options.target_rate = rate;
  options.linger = linger;
  return MakeGeneratorSourceFactory(
      options, [keys](int64_t offset, OperatorContext* ctx) {
        Object payload;
        payload.Set("n", Value(offset));
        return Record::Data(Value(offset % keys), std::move(payload),
                            ctx->NowNanos());
      });
}

OperatorFactory CountOperator() {
  return MakeLambdaOperatorFactory(
      [](const Record& r, OperatorContext* ctx) {
        Object state = ctx->GetState(r.key).value_or(Object());
        const int64_t count = state.Get("count").AsInt64() + 1;
        state.Set("count", Value(count));
        ctx->PutState(r.key, state);
        Object out;
        out.Set("count", Value(count));
        ctx->Emit(Record::Data(r.key, std::move(out), r.source_nanos));
        return Status::OK();
      });
}

/// Byte-exact serialization of every snapshot table's committed view at
/// `ssid`, using the storage serde (the same encoding the durable log
/// writes). Two runs whose committed state differs in any key, value,
/// field order, or type produce different strings.
std::map<std::string, std::map<std::string, std::string>> SerializeCommitted(
    const kv::Grid& grid, int64_t ssid) {
  std::map<std::string, std::map<std::string, std::string>> tables;
  for (const std::string& name : grid.SnapshotTableNames()) {
    const kv::SnapshotTable* table = grid.GetSnapshotTable(name);
    if (table == nullptr) continue;
    auto& rows = tables[name];
    table->ScanAt(ssid, [&rows](const Value& key, int64_t,
                                const Object& value) {
      std::string key_bytes;
      storage::PutValue(&key_bytes, key);
      std::string value_bytes;
      storage::PutObject(&value_bytes, value);
      rows[key_bytes] = value_bytes;
    });
  }
  return tables;
}

/// Runs the keyed-count pipeline to quiescence in `mode` (bounded sources
/// that linger), checkpoints the settled state, and returns its byte-exact
/// serialization together with the job's checkpoint rows.
struct ModeRun {
  std::map<std::string, std::map<std::string, std::string>> state;
  std::vector<CheckpointRow> checkpoints;
};

ModeRun RunToQuiescenceAndCheckpoint(CheckpointMode mode, int64_t records,
                                     int64_t keys) {
  kv::Grid grid(kv::GridConfig{});
  state::SnapshotRegistry::Options registry_options;
  registry_options.async_prune = false;
  state::SnapshotRegistry registry(&grid, registry_options);

  JobGraph graph;
  const int32_t src = graph.AddSource(
      "src", 2, NumbersSource(records, keys, /*rate=*/0.0, /*linger=*/true));
  const int32_t count = graph.AddOperator("count", 2, CountOperator());
  EXPECT_TRUE(graph.Connect(src, count, EdgeKind::kKeyed).ok());

  state::SQueryConfig state_config;
  state_config.parallelism = 2;
  JobConfig config;
  config.checkpoint_interval_ms = 0;
  config.checkpoint_mode = mode;
  config.partitioner = &grid.partitioner();
  config.listener = &registry;
  config.state_store_factory =
      state::MakeSQueryStateStoreFactory(&grid, state_config);

  ModeRun run;
  auto job = Job::Create(graph, std::move(config));
  EXPECT_TRUE(job.ok()) << job.status();
  if (!job.ok()) return run;
  EXPECT_TRUE((*job)->Start().ok());

  // Quiesce: every generated record has reached the count operator (the
  // sources linger, keeping the job checkpointable).
  for (int i = 0; i < 500 && (*job)->ProcessedCount("count") < records; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ((*job)->ProcessedCount("count"), records);

  auto ckpt = (*job)->TriggerCheckpoint();
  EXPECT_TRUE(ckpt.ok()) << ckpt.status();
  EXPECT_TRUE((*job)->Stop().ok());

  if (ckpt.ok()) run.state = SerializeCommitted(grid, *ckpt);
  run.checkpoints = (*job)->RecentCheckpoints();
  return run;
}

// The tentpole's differential oracle: aligned (Fig. 3 marker alignment) and
// unaligned (COW capture + channel log) checkpointing must commit
// byte-identical state for the same input. Both run the same capture
// protocol (BeginSnapshot, FinishSnapshotStep until done, ack), so any
// divergence is a protocol bug, not an encoding artifact.
TEST(CheckpointModesTest, AlignedAndUnalignedCommitIdenticalState) {
  constexpr int64_t kRecords = 20000;
  constexpr int64_t kKeys = 17;

  const ModeRun aligned =
      RunToQuiescenceAndCheckpoint(CheckpointMode::kAligned, kRecords, kKeys);
  const ModeRun unaligned = RunToQuiescenceAndCheckpoint(
      CheckpointMode::kUnaligned, kRecords, kKeys);

  ASSERT_FALSE(aligned.state.empty());
  ASSERT_EQ(aligned.state.size(), unaligned.state.size());
  for (const auto& [table, rows] : aligned.state) {
    auto it = unaligned.state.find(table);
    ASSERT_NE(it, unaligned.state.end()) << "missing table " << table;
    EXPECT_EQ(rows.size(), it->second.size()) << table;
    EXPECT_EQ(rows, it->second) << "state of " << table
                                << " diverges between modes";
  }

  // The __checkpoints rows label their mode.
  ASSERT_FALSE(aligned.checkpoints.empty());
  ASSERT_FALSE(unaligned.checkpoints.empty());
  EXPECT_EQ(aligned.checkpoints.back().mode, CheckpointMode::kAligned);
  EXPECT_EQ(unaligned.checkpoints.back().mode, CheckpointMode::kUnaligned);
  // Quiescent pipeline: nothing was in flight to overtake.
  EXPECT_EQ(unaligned.checkpoints.back().overtaken_records, 0);
}

// Exactly-once under crashes in unaligned mode: rollback + channel-log
// replay + deterministic source re-emission must reproduce the exact input
// distribution in operator state, with no loss and no double counting.
TEST(CheckpointModesTest, UnalignedRecoveryIsExactlyOnceOnState) {
  constexpr int64_t kRecords = 40000;
  constexpr int64_t kKeys = 13;

  JobGraph graph;
  CollectingSink::Collector collector;
  const int32_t src = graph.AddSource(
      "src", 2, NumbersSource(kRecords, kKeys, /*rate=*/150000.0));
  const int32_t count = graph.AddOperator("count", 2, CountOperator());
  const int32_t sink =
      graph.AddSink("sink", 1, MakeCollectingSinkFactory(&collector));
  ASSERT_TRUE(graph.Connect(src, count, EdgeKind::kKeyed).ok());
  ASSERT_TRUE(graph.Connect(count, sink, EdgeKind::kForward).ok());

  JobConfig config;
  config.checkpoint_interval_ms = 20;
  config.checkpoint_mode = CheckpointMode::kUnaligned;
  auto job = Job::Create(graph, std::move(config));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_TRUE((*job)->InjectFailureAndRecover().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE((*job)->InjectFailureAndRecover().ok());
  ASSERT_TRUE((*job)->AwaitCompletion().ok());

  std::map<int64_t, int64_t> max_count;
  for (const Record& r : collector.Snapshot()) {
    auto& slot = max_count[r.key.AsInt64()];
    slot = std::max(slot, r.payload.Get("count").AsInt64());
  }
  for (int64_t k = 0; k < kKeys; ++k) {
    const int64_t expected = kRecords / kKeys + (k < kRecords % kKeys ? 1 : 0);
    EXPECT_EQ(max_count[k], expected) << "key " << k;
  }
}

int CountSpans(const char* name) {
  int n = 0;
  for (const trace::TraceSpan& span : trace::SnapshotSpans()) {
    if (std::string(span.name) == name) ++n;
  }
  return n;
}

// Acceptance criterion: unaligned traces contain no align_wait span (there
// is no barrier stall to measure) and do contain the capture-window
// channel_log span; aligned traces are the mirror image.
TEST(CheckpointModesTest, SpanNamesFollowTheMode) {
  for (const CheckpointMode mode :
       {CheckpointMode::kAligned, CheckpointMode::kUnaligned}) {
    trace::ClearForTest();

    JobGraph graph;
    const int32_t src =
        graph.AddSource("src", 1, NumbersSource(-1, 8, /*rate=*/20000.0));
    const int32_t count = graph.AddOperator("count", 2, CountOperator());
    ASSERT_TRUE(graph.Connect(src, count, EdgeKind::kKeyed).ok());

    JobConfig config;
    config.checkpoint_interval_ms = 0;
    config.checkpoint_mode = mode;
    auto job = Job::Create(graph, std::move(config));
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE((*job)->Start().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto ckpt = (*job)->TriggerCheckpoint();
    ASSERT_TRUE(ckpt.ok()) << ckpt.status();
    ASSERT_TRUE((*job)->Stop().ok());

    const int align_wait = CountSpans("align_wait");
    const int channel_log = CountSpans("channel_log");
    if (mode == CheckpointMode::kAligned) {
      EXPECT_GT(align_wait, 0) << "aligned checkpoint recorded no align_wait";
      EXPECT_EQ(channel_log, 0);
    } else {
      EXPECT_EQ(align_wait, 0)
          << "unaligned checkpoint still stalled on alignment";
      EXPECT_GT(channel_log, 0);
    }
  }
}

}  // namespace
}  // namespace sq::dataflow
