#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "dataflow/execution.h"
#include "dataflow/job_graph.h"
#include "dataflow/operators.h"

namespace sq::dataflow {
namespace {

using kv::Object;
using kv::Value;

// Source producing offsets [0, n) keyed by offset % keys.
OperatorFactory NumbersSource(int64_t n, int64_t keys, double rate = 0.0) {
  GeneratorSource::Options options;
  options.total_records = n;
  options.target_rate = rate;
  return MakeGeneratorSourceFactory(
      options, [keys](int64_t offset, OperatorContext* ctx) {
        Object payload;
        payload.Set("n", Value(offset));
        return Record::Data(Value(offset % keys), std::move(payload),
                            ctx->NowNanos());
      });
}

// Keyed counter: state[key].count += 1, emits the running count.
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

TEST(JobGraphTest, ValidatesEmptyGraph) {
  JobGraph graph;
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(JobGraphTest, ValidatesDuplicateNames) {
  JobGraph graph;
  graph.AddSource("v", 1, NumbersSource(1, 1));
  const int32_t b = graph.AddOperator("v", 1, CountOperator());
  ASSERT_TRUE(graph.Connect(0, b).ok());
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(JobGraphTest, RejectsSourceWithInputs) {
  JobGraph graph;
  const int32_t a = graph.AddSource("a", 1, NumbersSource(1, 1));
  const int32_t b = graph.AddSource("b", 1, NumbersSource(1, 1));
  EXPECT_FALSE(graph.Connect(a, b).ok());
}

TEST(JobGraphTest, RejectsDanglingOperator) {
  JobGraph graph;
  graph.AddSource("a", 1, NumbersSource(1, 1));
  graph.AddOperator("b", 1, CountOperator());
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(JobGraphTest, AcceptsDiamond) {
  JobGraph graph;
  const int32_t src = graph.AddSource("src", 1, NumbersSource(1, 1));
  const int32_t left = graph.AddOperator("left", 1, CountOperator());
  const int32_t right = graph.AddOperator("right", 1, CountOperator());
  CollectingSink::Collector collector;
  const int32_t sink =
      graph.AddSink("sink", 1, MakeCollectingSinkFactory(&collector));
  ASSERT_TRUE(graph.Connect(src, left).ok());
  ASSERT_TRUE(graph.Connect(src, right).ok());
  ASSERT_TRUE(graph.Connect(left, sink).ok());
  ASSERT_TRUE(graph.Connect(right, sink).ok());
  EXPECT_TRUE(graph.Validate().ok());
}

// End-to-end: counts per key must match the generated distribution.
TEST(ExecutionTest, KeyedCountPipeline) {
  constexpr int64_t kRecords = 5000;
  constexpr int64_t kKeys = 17;

  JobGraph graph;
  CollectingSink::Collector collector;
  const int32_t src = graph.AddSource("src", 2, NumbersSource(kRecords, kKeys));
  const int32_t count = graph.AddOperator("count", 2, CountOperator());
  const int32_t sink =
      graph.AddSink("sink", 1, MakeCollectingSinkFactory(&collector));
  ASSERT_TRUE(graph.Connect(src, count, EdgeKind::kKeyed).ok());
  ASSERT_TRUE(graph.Connect(count, sink, EdgeKind::kForward).ok());

  JobConfig config;
  config.checkpoint_interval_ms = 0;
  auto job = Job::Create(graph, std::move(config));
  ASSERT_TRUE(job.ok()) << job.status();
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->AwaitCompletion().ok());

  std::map<int64_t, int64_t> max_count;
  for (const Record& r : collector.Snapshot()) {
    auto& slot = max_count[r.key.AsInt64()];
    slot = std::max(slot, r.payload.Get("count").AsInt64());
  }
  ASSERT_EQ(max_count.size(), static_cast<size_t>(kKeys));
  for (int64_t k = 0; k < kKeys; ++k) {
    const int64_t expected = kRecords / kKeys + (k < kRecords % kKeys ? 1 : 0);
    EXPECT_EQ(max_count[k], expected) << "key " << k;
  }
  EXPECT_EQ((*job)->ProcessedCount("count"), kRecords);
  EXPECT_EQ((*job)->ProcessedCount("sink"), kRecords);
}

TEST(ExecutionTest, ManualCheckpointCommits) {
  JobGraph graph;
  CollectingSink::Collector collector;
  const int32_t src =
      graph.AddSource("src", 1, NumbersSource(1 << 22, 8, /*rate=*/50000.0));
  const int32_t count = graph.AddOperator("count", 2, CountOperator());
  const int32_t sink =
      graph.AddSink("sink", 1, MakeCollectingSinkFactory(&collector));
  ASSERT_TRUE(graph.Connect(src, count, EdgeKind::kKeyed).ok());
  ASSERT_TRUE(graph.Connect(count, sink, EdgeKind::kForward).ok());

  JobConfig config;
  config.checkpoint_interval_ms = 0;
  auto job = Job::Create(graph, std::move(config));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto first = (*job)->TriggerCheckpoint();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, 1);
  auto second = (*job)->TriggerCheckpoint();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 2);
  EXPECT_EQ((*job)->latest_committed_checkpoint(), 2);
  const std::vector<CheckpointRow> rows = (*job)->RecentCheckpoints();
  EXPECT_EQ(std::count_if(rows.begin(), rows.end(),
                          [](const CheckpointRow& r) { return r.committed; }),
            2);
  EXPECT_EQ(std::count_if(rows.begin(), rows.end(),
                          [](const CheckpointRow& r) {
                            return r.phase2_nanos > 0;
                          }),
            2);
  ASSERT_TRUE((*job)->Stop().ok());
}

// Exactly-once state updates: after a crash + rollback recovery the final
// per-key counts equal the input distribution, with no double counting.
TEST(ExecutionTest, RecoveryIsExactlyOnceOnState) {
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
  auto job = Job::Create(graph, std::move(config));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_TRUE((*job)->InjectFailureAndRecover().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE((*job)->InjectFailureAndRecover().ok());
  ASSERT_TRUE((*job)->AwaitCompletion().ok());

  // The sink sees at-least-once output, but the *maximum* per-key count —
  // the operator state — must be exact.
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

// The 2PC abort path: a stalled operator makes phase 1 exceed the
// checkpoint timeout; the coordinator aborts, notifies the listener, and a
// later checkpoint (after the stall clears) commits with a fresh id.
TEST(ExecutionTest, CheckpointTimesOutAndAborts) {
  struct AbortListener : public CheckpointListener {
    std::atomic<int64_t> aborted{0};
    std::atomic<int64_t> committed{0};
    void OnCheckpointAborted(int64_t) override { aborted.fetch_add(1); }
    void OnCheckpointCommitted(int64_t) override { committed.fetch_add(1); }
  };
  AbortListener listener;
  auto stall_remaining = std::make_shared<std::atomic<int>>(3);

  JobGraph graph;
  const int32_t src = graph.AddSource("src", 1, NumbersSource(-1, 4, 2000.0));
  const int32_t slow = graph.AddOperator(
      "slow", 1,
      MakeLambdaOperatorFactory(
          [stall_remaining](const Record&, OperatorContext*) {
            if (stall_remaining->fetch_sub(1) > 0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(150));
            }
            return Status::OK();
          }));
  EXPECT_TRUE(graph.Connect(src, slow, EdgeKind::kKeyed).ok());

  JobConfig config;
  config.checkpoint_interval_ms = 0;
  config.checkpoint_timeout_ms = 80;  // < the 150ms stall
  config.listener = &listener;
  auto job = Job::Create(graph, std::move(config));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto first = (*job)->TriggerCheckpoint();
  EXPECT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsAborted()) << first.status();
  EXPECT_EQ(listener.aborted.load(), 1);
  EXPECT_EQ((*job)->latest_committed_checkpoint(), 0);

  // Once the stall clears, checkpoints succeed again with a fresh id.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  auto second = (*job)->TriggerCheckpoint();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GT(*second, 1);
  EXPECT_EQ(listener.committed.load(), 1);
  const std::vector<CheckpointRow> rows = (*job)->RecentCheckpoints();
  EXPECT_EQ(std::count_if(rows.begin(), rows.end(),
                          [](const CheckpointRow& r) { return !r.committed; }),
            1);
  ASSERT_TRUE((*job)->Stop().ok());
}

// Regression: a failing phase 1 must abort the checkpoint, not commit it.
// The worker used to be acknowledged as prepared even when its capture
// failed, so the coordinator committed a checkpoint that silently lost that
// worker's state.
TEST(ExecutionTest, FailedPhase1AbortsInsteadOfCommitting) {
  struct AbortListener : public CheckpointListener {
    std::atomic<int64_t> aborted{0};
    std::atomic<int64_t> committed{0};
    void OnCheckpointAborted(int64_t) override { aborted.fetch_add(1); }
    void OnCheckpointCommitted(int64_t) override { committed.fetch_add(1); }
  };
  AbortListener listener;
  auto faulty = std::make_shared<std::atomic<bool>>(true);

  JobGraph graph;
  const int32_t src = graph.AddSource("src", 1, NumbersSource(-1, 4, 2000.0));
  const int32_t op = graph.AddOperator(
      "faulty", 1,
      MakeLambdaOperatorFactory(
          [](const Record&, OperatorContext*) { return Status::OK(); },
          [faulty](int64_t, OperatorContext*) {
            return faulty->load() ? Status::Internal("injected snapshot fault")
                                  : Status::OK();
          }));
  EXPECT_TRUE(graph.Connect(src, op, EdgeKind::kKeyed).ok());

  JobConfig config;
  config.checkpoint_interval_ms = 0;
  config.listener = &listener;
  auto job = Job::Create(graph, std::move(config));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto first = (*job)->TriggerCheckpoint();
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsAborted()) << first.status();
  EXPECT_NE(first.status().message().find("injected snapshot fault"),
            std::string::npos)
      << first.status();
  EXPECT_EQ(listener.aborted.load(), 1);
  EXPECT_EQ(listener.committed.load(), 0);
  EXPECT_EQ((*job)->latest_committed_checkpoint(), 0);

  // With the fault cleared the pipeline is still healthy: the next
  // checkpoint commits (the abort released everything it held).
  faulty->store(false);
  auto second = (*job)->TriggerCheckpoint();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(listener.committed.load(), 1);
  EXPECT_EQ((*job)->latest_committed_checkpoint(), *second);
  ASSERT_TRUE((*job)->Stop().ok());
}

TEST(ExecutionTest, StopInterruptsUnboundedJob) {
  JobGraph graph;
  CollectingSink::Collector collector;
  const int32_t src = graph.AddSource("src", 1, NumbersSource(-1, 4));
  const int32_t sink =
      graph.AddSink("sink", 1, MakeCollectingSinkFactory(&collector));
  ASSERT_TRUE(graph.Connect(src, sink, EdgeKind::kKeyed).ok());

  JobConfig config;
  config.checkpoint_interval_ms = 0;
  auto job = Job::Create(graph, std::move(config));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE((*job)->Stop().ok());
  EXPECT_GT(collector.Size(), 0u);
}

}  // namespace
}  // namespace sq::dataflow
