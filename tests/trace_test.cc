// End-to-end tracing: span trees must survive thread-pool fan-out, the
// bounded journal must count what it drops, the Chrome/Perfetto export must
// emit valid JSON (control characters included), EXPLAIN / EXPLAIN ANALYZE
// must agree with plain execution, and a checkpoint must leave a complete
// phase-1/phase-2 span tree behind the `__spans` table. The final hammer
// runs recorders against snapshot/export concurrently for the TSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "dataflow/execution.h"
#include "dataflow/job_graph.h"
#include "dataflow/operators.h"
#include "kv/grid.h"
#include "query/query_service.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"
#include "trace/trace.h"

namespace sq {
namespace {

using kv::Object;
using kv::Value;

/// Fresh default config + empty journal for every test.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::SetConfig(trace::TraceConfig{});
    trace::ClearForTest();
  }
  void TearDown() override {
    trace::SetConfig(trace::TraceConfig{});
    trace::SetJournalCapacityForTest(65536);
    trace::ClearForTest();
  }
};

std::vector<trace::TraceSpan> SpansNamed(
    const std::vector<trace::TraceSpan>& spans, const std::string& name) {
  std::vector<trace::TraceSpan> out;
  for (const trace::TraceSpan& s : spans) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

TEST_F(TraceTest, NestedScopedSpansFormOneTree) {
  {
    trace::ScopedSpan root(trace::Category::kOther, "root");
    root.AddAttr("k", int64_t{7});
    {
      trace::ScopedSpan child(trace::Category::kOther, "child");
      trace::ScopedSpan grandchild(trace::Category::kOther, "grandchild");
    }
    trace::ScopedSpan sibling(trace::Category::kOther, "sibling");
  }
  const std::vector<trace::TraceSpan> spans = trace::SnapshotSpans();
  ASSERT_EQ(spans.size(), 4u);

  const trace::TraceSpan root = SpansNamed(spans, "root").at(0);
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_NE(root.span_id, 0u);
  ASSERT_EQ(root.attrs.size(), 1u);
  EXPECT_STREQ(root.attrs[0].key, "k");
  EXPECT_EQ(root.attrs[0].value, "7");

  const trace::TraceSpan child = SpansNamed(spans, "child").at(0);
  const trace::TraceSpan grandchild = SpansNamed(spans, "grandchild").at(0);
  const trace::TraceSpan sibling = SpansNamed(spans, "sibling").at(0);
  EXPECT_EQ(child.parent_id, root.span_id);
  EXPECT_EQ(grandchild.parent_id, child.span_id);
  EXPECT_EQ(sibling.parent_id, root.span_id);
  for (const trace::TraceSpan& s : spans) {
    EXPECT_EQ(s.trace_id, root.trace_id);
    EXPECT_GE(s.end_nanos, s.start_nanos);
  }
}

TEST_F(TraceTest, ParallelForSpansParentAcrossThreads) {
  ThreadPool pool(4);
  {
    trace::ScopedSpan root(trace::Category::kOther, "fanout_root");
    // Workers have no TLS scope: the parent context crosses explicitly,
    // exactly like the executor's partition fan-out.
    const trace::SpanContext ctx = root.context();
    pool.ParallelFor(8, 4, [&ctx](int32_t p) {
      const int64_t t0 = trace::NowNanos();
      trace::RecordSpan(trace::Category::kOther, "fanout_task", ctx, t0,
                        trace::NowNanos(), {{"p", p}});
    });
  }
  const std::vector<trace::TraceSpan> spans = trace::SnapshotSpans();
  const trace::TraceSpan root = SpansNamed(spans, "fanout_root").at(0);
  const std::vector<trace::TraceSpan> tasks =
      SpansNamed(spans, "fanout_task");
  ASSERT_EQ(tasks.size(), 8u);
  for (const trace::TraceSpan& t : tasks) {
    EXPECT_EQ(t.trace_id, root.trace_id);
    EXPECT_EQ(t.parent_id, root.span_id);
  }
}

TEST_F(TraceTest, RootSamplingKeepsTreesCoherent) {
  trace::TraceConfig config;
  config.sample_every[static_cast<size_t>(trace::Category::kOther)] = 4;
  trace::SetConfig(config);
  for (int i = 0; i < 100; ++i) {
    trace::ScopedSpan root(trace::Category::kOther, "sampled_root");
    trace::ScopedSpan child(trace::Category::kOther, "sampled_child");
  }
  const std::vector<trace::TraceSpan> spans = trace::SnapshotSpans();
  const std::vector<trace::TraceSpan> roots =
      SpansNamed(spans, "sampled_root");
  const std::vector<trace::TraceSpan> children =
      SpansNamed(spans, "sampled_child");
  // 1-in-4 of the roots record; children follow their root, never orphaned.
  EXPECT_EQ(roots.size(), 25u);
  ASSERT_EQ(children.size(), roots.size());
  std::set<uint64_t> root_ids;
  for (const trace::TraceSpan& r : roots) root_ids.insert(r.span_id);
  for (const trace::TraceSpan& c : children) {
    EXPECT_EQ(root_ids.count(c.parent_id), 1u);
  }
}

TEST_F(TraceTest, DisabledCategoryRecordsNothingButForcedStillDoes) {
  trace::TraceConfig config;
  config.sample_every[static_cast<size_t>(trace::Category::kOther)] = 0;
  trace::SetConfig(config);
  { trace::ScopedSpan off(trace::Category::kOther, "off"); }
  trace::ScopedSpan forced(trace::Category::kOther, "forced_root",
                           trace::RootContext(trace::NewTraceId(),
                                              /*forced=*/true));
  EXPECT_TRUE(forced.recording());
  EXPECT_TRUE(SpansNamed(trace::SnapshotSpans(), "off").empty());
}

TEST_F(TraceTest, JournalOverflowSetsDroppedCounter) {
  trace::SetJournalCapacityForTest(16);
  const int64_t dropped_before = trace::DroppedSpans();
  const int64_t counter_before =
      MetricsRegistry::Default()->GetCounter("trace.dropped_spans")->Value();
  for (int i = 0; i < 600; ++i) {
    trace::RecordSpan(trace::Category::kOther, "flood",
                      trace::RootContext(trace::NewTraceId()), i, i + 1);
  }
  const std::vector<trace::TraceSpan> spans = trace::SnapshotSpans();
  EXPECT_LE(spans.size(), 16u);
  // Everything beyond the journal capacity was dropped oldest-first and
  // counted, both in DroppedSpans() and the metrics registry.
  EXPECT_GE(trace::DroppedSpans() - dropped_before, 600 - 16);
  EXPECT_EQ(
      MetricsRegistry::Default()->GetCounter("trace.dropped_spans")->Value() -
          counter_before,
      trace::DroppedSpans() - dropped_before);
  // The survivors are the newest spans.
  for (const trace::TraceSpan& s : spans) {
    EXPECT_GE(s.start_nanos, 600 - 16);
  }
}

// --- Minimal JSON validator (no external deps): accepts exactly the
// RFC 8259 grammar the exporter is supposed to emit.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return ObjectValue();
      case '[': return ArrayValue();
      case '"': return StringValue();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return NumberValue();
    }
  }

  bool ObjectValue() {
    ++pos_;  // {
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!StringValue()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool ArrayValue() {
    ++pos_;  // [
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool StringValue() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;  // raw control characters are invalid
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool NumberValue() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST_F(TraceTest, ChromeJsonExportIsValidAndEscapesControlChars) {
  {
    trace::ScopedSpan root(trace::Category::kQuery, "export_root");
    root.AddAttr("nasty", std::string("quote\" slash\\ nl\n tab\t ctrl\x01"));
    trace::ScopedSpan child(trace::Category::kStorage, "export_child");
  }
  const std::string path =
      ::testing::TempDir() + "/trace_test_export.trace.json";
  const Status status = trace::ExportChromeJson(path);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("export_root"), std::string::npos);
  EXPECT_NE(json.find("export_child"), std::string::npos);
  // The control character was escaped, never emitted raw.
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_NE(json.find("quote\\\""), std::string::npos);
}

/// Live table + query service, small enough for differential EXPLAIN runs.
class ExplainTest : public TraceTest {
 protected:
  ExplainTest()
      : grid_(kv::GridConfig{
            .node_count = 2, .partition_count = 8, .backup_count = 0}),
        registry_(&grid_, {.retained_versions = 2, .async_prune = false}),
        service_(&grid_, &registry_),
        store_(&grid_, "metrics", 0, state::SQueryConfig{.parallelism = 1}) {
    for (int64_t key = 0; key < 200; ++key) {
      Object o;
      o.Set("v", Value(key * 3 % 101));
      o.Set("g", Value(key % 4));
      store_.Put(Value(key), std::move(o));
    }
    options_.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  }

  kv::Grid grid_;
  state::SnapshotRegistry registry_;
  query::QueryService service_;
  state::SQueryStateStore store_;
  query::QueryOptions options_;
};

TEST_F(ExplainTest, ExplainReturnsPlanWithoutExecuting) {
  auto plan = service_.ExecuteWithStats(
      "EXPLAIN SELECT g, COUNT(*) AS c FROM metrics WHERE v > 10 "
      "GROUP BY g ORDER BY g LIMIT 3",
      options_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->result.columns, std::vector<std::string>{"plan"});
  ASSERT_FALSE(plan->result.rows.empty());
  const std::string first = plan->result.rows[0][0].string_value();
  EXPECT_EQ(first.rfind("Scan:", 0), 0u) << first;
  // Plan only: nothing was scanned, no query trace was started.
  EXPECT_EQ(plan->stats.rows_scanned, 0);
  EXPECT_EQ(plan->trace_id, 0u);

  std::string all;
  for (const auto& row : plan->result.rows) {
    all += row[0].string_value();
    all += "\n";
  }
  EXPECT_NE(all.find("Aggregate:"), std::string::npos) << all;
  EXPECT_NE(all.find("OrderBy:"), std::string::npos) << all;
  EXPECT_NE(all.find("Limit: 3"), std::string::npos) << all;
}

TEST_F(ExplainTest, ExplainOfUnopenableTableReturnsTheOpenError) {
  auto missing =
      service_.Execute("EXPLAIN SELECT * FROM no_such_table", options_);
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();
  // A live table at a snapshot isolation level: the isolation error.
  auto live = service_.Execute("EXPLAIN SELECT * FROM metrics",
                               query::QueryOptions{});
  EXPECT_TRUE(live.status().IsInvalidArgument()) << live.status().ToString();
}

TEST_F(ExplainTest, ExplainAnalyzeMatchesPlainExecution) {
  const std::string body =
      "SELECT g, COUNT(*) AS c FROM metrics WHERE v > 10 GROUP BY g";
  auto plain = service_.ExecuteWithStats(body, options_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_GT(plain->stats.rows_scanned, 0);

  auto analyzed =
      service_.ExecuteWithStats("EXPLAIN ANALYZE " + body, options_);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  // ANALYZE really executed: identical scan instrumentation, and a forced
  // trace id that survives sampling.
  EXPECT_EQ(analyzed->stats.rows_scanned, plain->stats.rows_scanned);
  EXPECT_EQ(analyzed->stats.rows_returned, plain->stats.rows_returned);
  EXPECT_EQ(analyzed->stats.partitions_scanned,
            plain->stats.partitions_scanned);
  EXPECT_NE(analyzed->trace_id, 0u);

  std::string all;
  for (const auto& row : analyzed->result.rows) {
    all += row[0].string_value();
    all += "\n";
  }
  EXPECT_NE(all.find("Execution: " + std::to_string(plain->result.rows.size()) +
                     " rows"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("Trace:"), std::string::npos) << all;
  // Per-partition span timings made it into the output.
  EXPECT_NE(all.find("partition_"), std::string::npos) << all;

  // ...and the same spans are queryable through __spans by that trace id.
  auto spans = service_.Execute(
      "SELECT name FROM __spans WHERE trace_id = " +
          std::to_string(analyzed->trace_id),
      options_);
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  EXPECT_GT(spans->rows.size(), 2u);
}

TEST_F(ExplainTest, ExplainAnalyzeRecordsEvenWhenTracingDisabled) {
  trace::TraceConfig config;
  config.enabled = false;
  trace::SetConfig(config);
  auto analyzed = service_.ExecuteWithStats(
      "EXPLAIN ANALYZE SELECT COUNT(*) AS c FROM metrics", options_);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->trace_id, 0u);
  std::string all;
  for (const auto& row : analyzed->result.rows) {
    all += row[0].string_value();
    all += "\n";
  }
  EXPECT_NE(all.find("query:"), std::string::npos) << all;
}

// --- Checkpoint span tree, end to end through a real job (acceptance
// criterion: SELECT * FROM __spans WHERE category = 'checkpoint' shows the
// complete phase-1 / phase-2 tree of a committed checkpoint).

dataflow::OperatorFactory NumbersSource(int64_t n, int64_t keys,
                                        double rate) {
  dataflow::GeneratorSource::Options options;
  options.total_records = n;
  options.target_rate = rate;
  return dataflow::MakeGeneratorSourceFactory(
      options, [keys](int64_t offset, dataflow::OperatorContext* ctx) {
        Object payload;
        payload.Set("n", Value(offset));
        return dataflow::Record::Data(Value(offset % keys),
                                      std::move(payload), ctx->NowNanos());
      });
}

dataflow::OperatorFactory CountOperator() {
  return dataflow::MakeLambdaOperatorFactory(
      [](const dataflow::Record& r, dataflow::OperatorContext* ctx) {
        Object state = ctx->GetState(r.key).value_or(Object());
        const int64_t count = state.Get("count").AsInt64() + 1;
        state.Set("count", Value(count));
        ctx->PutState(r.key, state);
        Object out;
        out.Set("count", Value(count));
        ctx->Emit(dataflow::Record::Data(r.key, std::move(out),
                                         r.source_nanos));
        return Status::OK();
      });
}

TEST_F(TraceTest, CheckpointLeavesCompleteSpanTreeInSpansTable) {
  kv::Grid grid(kv::GridConfig{
      .node_count = 2, .partition_count = 8, .backup_count = 0});
  state::SnapshotRegistry registry(
      &grid, {.retained_versions = 2, .async_prune = false});
  query::QueryService service(&grid, &registry);

  dataflow::JobGraph graph;
  dataflow::CollectingSink::Collector collector;
  const int32_t src = graph.AddSource(
      "src", 1, NumbersSource(1 << 22, 8, /*rate=*/50000.0));
  const int32_t count = graph.AddOperator("count", 2, CountOperator());
  const int32_t sink = graph.AddSink(
      "sink", 1, dataflow::MakeCollectingSinkFactory(&collector));
  ASSERT_TRUE(graph.Connect(src, count, dataflow::EdgeKind::kKeyed).ok());
  ASSERT_TRUE(graph.Connect(count, sink, dataflow::EdgeKind::kForward).ok());

  dataflow::JobConfig config;
  config.checkpoint_interval_ms = 0;
  config.partitioner = &grid.partitioner();
  config.listener = &registry;
  config.state_store_factory =
      state::MakeSQueryStateStoreFactory(&grid, state::SQueryConfig{});
  auto job = dataflow::Job::Create(graph, std::move(config));
  ASSERT_TRUE(job.ok()) << job.status();
  ASSERT_TRUE((*job)->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  auto ckpt = (*job)->TriggerCheckpoint();
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  ASSERT_TRUE((*job)->Stop().ok());

  query::QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  auto rows = service.Execute(
      "SELECT name, trace_id, span_id, parent_id FROM __spans "
      "WHERE category = 'checkpoint' AND trace_id = " +
          std::to_string(*ckpt) + " ORDER BY start_nanos",
      options);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();

  std::map<std::string, int> count_by_name;
  std::map<int64_t, std::string> name_by_span;
  std::map<int64_t, int64_t> parent_by_span;
  int64_t root_span = 0;
  for (const auto& row : rows->rows) {
    const std::string name = row[0].string_value();
    const int64_t span_id = row[2].AsInt64();
    const int64_t parent_id = row[3].AsInt64();
    ++count_by_name[name];
    name_by_span[span_id] = name;
    parent_by_span[span_id] = parent_id;
    if (name == "checkpoint") root_span = span_id;
  }
  // The full 2PC tree: one root, barrier alignment per stateful worker,
  // per-worker phase-1 capture, the aggregate phase-1 span, and phase 2.
  EXPECT_EQ(count_by_name["checkpoint"], 1);
  EXPECT_EQ(count_by_name["phase1"], 1);
  EXPECT_EQ(count_by_name["phase2"], 1);
  EXPECT_GE(count_by_name["align_wait"], 1);
  EXPECT_GE(count_by_name["phase1_capture"], 2);  // count has 2 instances
  ASSERT_NE(root_span, 0);
  // Every span hangs off the tree (parent is the root or another span of the
  // same trace).
  for (const auto& [span_id, parent_id] : parent_by_span) {
    if (span_id == root_span) {
      EXPECT_EQ(parent_id, 0);
      continue;
    }
    EXPECT_TRUE(parent_by_span.count(parent_id) == 1) << name_by_span[span_id];
  }
}

TEST_F(TraceTest, ConcurrentRecordAndExportHammer) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  recorders.reserve(4);
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&stop, t] {
      int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        trace::ScopedSpan root(trace::Category::kOther, "hammer_root");
        root.AddAttr("t", t);
        trace::ScopedSpan child(trace::Category::kOther, "hammer_child");
        child.AddAttr("i", ++i);
      }
    });
  }
  const std::string path =
      ::testing::TempDir() + "/trace_test_hammer.trace.json";
  for (int round = 0; round < 20; ++round) {
    (void)trace::SnapshotSpans();
    ASSERT_TRUE(trace::ExportChromeJson(path).ok());
  }
  stop.store(true);
  for (std::thread& t : recorders) t.join();
  const std::vector<trace::TraceSpan> spans = trace::SnapshotSpans();
  EXPECT_FALSE(spans.empty());
}

// Regression: a thread whose first ranked lock is the trace-ring
// registration flushes its ring from a thread-local destructor at exit. The
// lock-rank validator's per-thread held-lock stack, first touched after that
// ring handle, must still be usable then; as a vector destroyed first it
// aborted ASan builds with a heap-use-after-free at thread exit.
TEST_F(TraceTest, ThreadExitFlushTakesRankedLocksCleanly) {
  const bool was_enabled = Mutex::RankCheckingEnabled();
  Mutex::SetRankCheckingEnabled(true);
  std::thread([] {
    trace::ScopedSpan span(trace::Category::kOther, "exit_flush");
  }).join();
  Mutex::SetRankCheckingEnabled(was_enabled);
  EXPECT_EQ(SpansNamed(trace::SnapshotSpans(), "exit_flush").size(), 1u);
}

}  // namespace
}  // namespace sq
