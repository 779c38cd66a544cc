// Property-based sweeps (TEST_P): randomized inputs checked against
// reference models, across a grid of parameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

#include "common/histogram.h"
#include "common/queue.h"
#include "common/rng.h"
#include "dataflow/execution.h"
#include "dataflow/job_graph.h"
#include "dataflow/operators.h"
#include "dataflow/window.h"
#include "kv/grid.h"
#include "kv/snapshot_table.h"
#include "sql/eval.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/scan_source.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"

namespace sq {
namespace {

using kv::Object;
using kv::Value;

// ---------------------------------------------------------------------------
// Property: the multi-version snapshot table behaves exactly like a map of
// (version -> reference state), for random workloads with deletions, in both
// full and incremental mode, including after retention compaction.

struct SnapshotModelParam {
  uint64_t seed;
  double delete_prob;
  bool incremental;
};

class SnapshotModelProperty
    : public ::testing::TestWithParam<SnapshotModelParam> {};

TEST_P(SnapshotModelProperty, MatchesReferenceModel) {
  const SnapshotModelParam param = GetParam();
  kv::Grid grid(kv::GridConfig{.node_count = 2, .partition_count = 8,
                               .backup_count = 0});
  state::SQueryConfig config;
  config.incremental = param.incremental;
  config.retained_versions = 100;  // keep everything during the first phase
  state::SQueryStateStore store(&grid, "op", 0, config);

  Rng rng(param.seed);
  std::map<int64_t, int64_t> reference;
  std::map<int64_t, std::map<int64_t, int64_t>> view_at;
  constexpr int64_t kCheckpoints = 8;
  for (int64_t ckpt = 1; ckpt <= kCheckpoints; ++ckpt) {
    for (int i = 0; i < 300; ++i) {
      const int64_t key = static_cast<int64_t>(rng.NextBounded(50));
      if (rng.NextBool(param.delete_prob)) {
        store.Remove(Value(key));
        reference.erase(key);
      } else {
        const int64_t v = static_cast<int64_t>(rng.NextBounded(100000));
        Object o;
        o.Set("v", Value(v));
        store.Put(Value(key), std::move(o));
        reference[key] = v;
      }
    }
    ASSERT_TRUE(store.SnapshotTo(ckpt).ok());
    view_at[ckpt] = reference;
  }

  kv::SnapshotTable* table = grid.GetSnapshotTable("snapshot_op");
  ASSERT_NE(table, nullptr);
  auto check_views = [&](int64_t from_ckpt) {
    for (int64_t ckpt = from_ckpt; ckpt <= kCheckpoints; ++ckpt) {
      std::map<int64_t, int64_t> actual;
      table->ScanAt(ckpt, [&actual](const Value& key, int64_t,
                                    const Object& value) {
        actual[key.AsInt64()] = value.Get("v").AsInt64();
      });
      EXPECT_EQ(actual, view_at[ckpt]) << "view at checkpoint " << ckpt;
      // Point lookups agree with the scan.
      for (int64_t key = 0; key < 50; ++key) {
        const auto got = table->GetAt(Value(key), ckpt);
        const auto it = view_at[ckpt].find(key);
        if (it == view_at[ckpt].end()) {
          EXPECT_FALSE(got.has_value()) << "key " << key << " @ " << ckpt;
        } else {
          ASSERT_TRUE(got.has_value()) << "key " << key << " @ " << ckpt;
          EXPECT_EQ(got->Get("v").AsInt64(), it->second);
        }
      }
    }
  };
  check_views(1);
  // Retention: compact away everything older than checkpoint 6; the
  // remaining views must be untouched.
  table->Compact(6);
  check_views(6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SnapshotModelProperty,
    ::testing::Values(SnapshotModelParam{1, 0.0, false},
                      SnapshotModelParam{2, 0.0, true},
                      SnapshotModelParam{3, 0.2, false},
                      SnapshotModelParam{4, 0.2, true},
                      SnapshotModelParam{5, 0.5, true},
                      SnapshotModelParam{6, 0.5, false}));

// ---------------------------------------------------------------------------
// Property: exactly-once state under crash/recovery, across pipeline shapes.

struct RecoveryParam {
  int32_t source_parallelism;
  int32_t operator_parallelism;
  int failures;
};

class RecoveryProperty : public ::testing::TestWithParam<RecoveryParam> {};

TEST_P(RecoveryProperty, CountsAreExact) {
  const RecoveryParam param = GetParam();
  constexpr int64_t kRecords = 30000;
  constexpr int64_t kKeys = 11;

  kv::Grid grid(kv::GridConfig{.node_count = 2, .partition_count = 16,
                               .backup_count = 0});
  state::SnapshotRegistry registry(&grid, {.retained_versions = 2,
                                           .async_prune = false});
  dataflow::JobGraph graph;
  dataflow::GeneratorSource::Options options;
  options.total_records = kRecords;
  options.target_rate = 120000.0;
  const int32_t src = graph.AddSource(
      "src", param.source_parallelism,
      dataflow::MakeGeneratorSourceFactory(
          options, [](int64_t offset, dataflow::OperatorContext* ctx) {
            Object payload;
            payload.Set("n", Value(offset));
            return dataflow::Record::Data(Value(offset % kKeys),
                                          std::move(payload),
                                          ctx->NowNanos());
          }));
  const int32_t count = graph.AddOperator(
      "count", param.operator_parallelism,
      dataflow::MakeLambdaOperatorFactory(
          [](const dataflow::Record& r, dataflow::OperatorContext* ctx) {
            Object state = ctx->GetState(r.key).value_or(Object());
            state.Set("count", Value(state.Get("count").AsInt64() + 1));
            ctx->PutState(r.key, state);
            return Status::OK();
          }));
  ASSERT_TRUE(graph.Connect(src, count, dataflow::EdgeKind::kKeyed).ok());

  state::SQueryConfig state_config;
  state_config.parallelism = param.operator_parallelism;
  dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = 25;
  job_config.partitioner = &grid.partitioner();
  job_config.listener = &registry;
  job_config.state_store_factory =
      state::MakeSQueryStateStoreFactory(&grid, state_config);
  auto job = dataflow::Job::Create(graph, std::move(job_config));
  ASSERT_TRUE(job.ok()) << job.status();
  ASSERT_TRUE((*job)->Start().ok());
  for (int f = 0; f < param.failures; ++f) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_TRUE((*job)->InjectFailureAndRecover().ok());
  }
  ASSERT_TRUE((*job)->AwaitCompletion().ok());

  // Final live state must hold the exact distribution.
  kv::LiveMap* live = grid.GetLiveMap("count");
  ASSERT_NE(live, nullptr);
  int64_t total = 0;
  for (int64_t k = 0; k < kKeys; ++k) {
    const auto state = live->Get(Value(k));
    ASSERT_TRUE(state.has_value()) << "key " << k;
    const int64_t expected = kRecords / kKeys + (k < kRecords % kKeys ? 1 : 0);
    EXPECT_EQ(state->Get("count").AsInt64(), expected) << "key " << k;
    total += state->Get("count").AsInt64();
  }
  EXPECT_EQ(total, kRecords);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecoveryProperty,
                         ::testing::Values(RecoveryParam{1, 1, 1},
                                           RecoveryParam{1, 2, 2},
                                           RecoveryParam{2, 2, 1},
                                           RecoveryParam{2, 3, 2},
                                           RecoveryParam{3, 2, 3}));

// ---------------------------------------------------------------------------
// Property: tumbling-window aggregates equal a reference computation for
// random in-order event streams, across window sizes and key counts.

struct WindowParam {
  uint64_t seed;
  int64_t window_micros;
  int64_t keys;
};

class WindowProperty : public ::testing::TestWithParam<WindowParam> {};

TEST_P(WindowProperty, MatchesReference) {
  const WindowParam param = GetParam();
  constexpr int64_t kEvents = 3000;

  // Deterministic event stream: time strictly increasing, random values.
  struct Event {
    int64_t key;
    int64_t time;
    int64_t value;
  };
  std::vector<Event> events;
  {
    Rng rng(param.seed);
    int64_t t = 0;
    for (int64_t i = 0; i < kEvents; ++i) {
      t += static_cast<int64_t>(rng.NextBounded(50)) + 1;
      events.push_back(Event{
          static_cast<int64_t>(rng.NextBounded(param.keys)), t,
          static_cast<int64_t>(rng.NextBounded(1000))});
    }
  }
  // Reference: (key, window start) -> (count, sum).
  std::map<std::pair<int64_t, int64_t>, std::pair<int64_t, int64_t>> expect;
  for (const Event& e : events) {
    auto& slot =
        expect[{e.key, e.time / param.window_micros * param.window_micros}];
    slot.first += 1;
    slot.second += e.value;
  }

  dataflow::JobGraph graph;
  dataflow::CollectingSink::Collector collector;
  dataflow::GeneratorSource::Options options;
  options.total_records = kEvents;
  auto shared_events = std::make_shared<std::vector<Event>>(events);
  const int32_t src = graph.AddSource(
      "src", 1,
      dataflow::MakeGeneratorSourceFactory(
          options,
          [shared_events](int64_t offset, dataflow::OperatorContext* ctx) {
            const Event& e = (*shared_events)[offset];
            Object payload;
            payload.Set("eventTime", Value(e.time));
            payload.Set("value", Value(e.value));
            return dataflow::Record::Data(Value(e.key), std::move(payload),
                                          ctx->NowNanos());
          }));
  dataflow::TumblingWindowOperator::Options window_options;
  window_options.window_size_micros = param.window_micros;
  const int32_t window = graph.AddOperator(
      "window", 2, dataflow::MakeTumblingWindowFactory(window_options));
  const int32_t sink = graph.AddSink(
      "sink", 1, dataflow::MakeCollectingSinkFactory(&collector));
  ASSERT_TRUE(graph.Connect(src, window, dataflow::EdgeKind::kKeyed).ok());
  ASSERT_TRUE(graph.Connect(window, sink, dataflow::EdgeKind::kForward).ok());
  dataflow::JobConfig config;
  config.checkpoint_interval_ms = 0;
  auto job = dataflow::Job::Create(graph, std::move(config));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->AwaitCompletion().ok());

  std::map<std::pair<int64_t, int64_t>, std::pair<int64_t, int64_t>> actual;
  for (const dataflow::Record& r : collector.Snapshot()) {
    actual[{r.key.AsInt64(), r.payload.Get("windowStart").AsInt64()}] = {
        r.payload.Get("count").AsInt64(),
        static_cast<int64_t>(r.payload.Get("sum").AsDouble())};
  }
  EXPECT_EQ(actual, expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WindowProperty,
                         ::testing::Values(WindowParam{1, 1000, 1},
                                           WindowParam{2, 1000, 8},
                                           WindowParam{3, 300, 5},
                                           WindowParam{4, 5000, 16}));

// ---------------------------------------------------------------------------
// Property: for random tables and random predicates, the SQL executor's
// WHERE filtering equals direct expression evaluation over all rows.

class SqlFilterProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlFilterProperty, WhereMatchesDirectEvaluation) {
  Rng rng(GetParam());
  sql::MemoryResolver resolver;
  std::vector<Object>& rows = resolver.tables["t"];
  for (int64_t i = 0; i < 200; ++i) {
    Object row;
    row.Set("key", Value(i));
    row.Set("a", Value(static_cast<int64_t>(rng.NextBounded(20))));
    row.Set("b", Value(rng.NextDouble() * 10.0));
    row.Set("s", Value(std::string(rng.NextBool(0.5) ? "x" : "y")));
    rows.push_back(std::move(row));
  }
  const char* kPredicates[] = {
      "a = 5",
      "a != 5 AND b < 5.0",
      "a < 10 OR s = 'x'",
      "NOT (a >= 10) AND (s = 'y' OR b > 2.5)",
      "a + 1 <= 7",
      "a * 2 > b",
      "b / 2.0 >= 1.0 AND a <= 15",
  };
  for (const char* predicate : kPredicates) {
    const std::string sql =
        std::string("SELECT key FROM t WHERE ") + predicate;
    auto result = sql::ExecuteSql(sql, &resolver, sql::ExecOptions{});
    ASSERT_TRUE(result.ok()) << result.status() << " for " << sql;
    // Reference: evaluate the parsed predicate on every row directly.
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok());
    std::vector<int64_t> expected;
    for (const Object& row : rows) {
      auto verdict = sql::EvalScalar(*(*stmt)->where, row, sql::EvalContext{});
      ASSERT_TRUE(verdict.ok());
      if (verdict->Truthy()) expected.push_back(row.Get("key").AsInt64());
    }
    std::vector<int64_t> actual;
    for (const auto& row : result->rows) actual.push_back(row[0].AsInt64());
    std::sort(actual.begin(), actual.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(actual, expected) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SqlFilterProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Property: SQL aggregates equal reference aggregation for random groups.

class SqlAggregateProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlAggregateProperty, GroupByMatchesReference) {
  Rng rng(GetParam());
  sql::MemoryResolver resolver;
  std::vector<Object>& rows = resolver.tables["t"];
  std::map<int64_t, std::vector<int64_t>> groups;
  for (int64_t i = 0; i < 500; ++i) {
    const int64_t g = static_cast<int64_t>(rng.NextBounded(7));
    const int64_t v = static_cast<int64_t>(rng.NextBounded(1000));
    Object row;
    row.Set("g", Value(g));
    row.Set("v", Value(v));
    rows.push_back(std::move(row));
    groups[g].push_back(v);
  }
  auto result = sql::ExecuteSql(
      "SELECT g, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, "
      "AVG(v) AS m FROM t GROUP BY g ORDER BY g",
      &resolver, sql::ExecOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->RowCount(), groups.size());
  size_t row = 0;
  for (const auto& [g, values] : groups) {
    EXPECT_EQ(result->At(row, "g").AsInt64(), g);
    EXPECT_EQ(result->At(row, "n").AsInt64(),
              static_cast<int64_t>(values.size()));
    int64_t sum = 0;
    int64_t lo = values[0];
    int64_t hi = values[0];
    for (int64_t v : values) {
      sum += v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_EQ(result->At(row, "s").AsInt64(), sum);
    EXPECT_EQ(result->At(row, "lo").AsInt64(), lo);
    EXPECT_EQ(result->At(row, "hi").AsInt64(), hi);
    EXPECT_NEAR(result->At(row, "m").AsDouble(),
                static_cast<double>(sum) / values.size(), 1e-9);
    ++row;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SqlAggregateProperty,
                         ::testing::Values(7, 17, 27));

// ---------------------------------------------------------------------------
// Property: histogram percentile error stays within the log-linear bucket
// precision for different distributions.

class HistogramProperty : public ::testing::TestWithParam<int> {};

TEST_P(HistogramProperty, PercentileErrorBounded) {
  Rng rng(99 + GetParam());
  Histogram h;
  std::vector<int64_t> values;
  for (int i = 0; i < 50000; ++i) {
    int64_t v = 0;
    switch (GetParam()) {
      case 0:  // uniform
        v = static_cast<int64_t>(rng.NextBounded(10'000'000)) + 1;
        break;
      case 1:  // heavy tail: x^4 shaping
      {
        const double u = rng.NextDouble();
        v = static_cast<int64_t>(u * u * u * u * 1e9) + 1;
        break;
      }
      case 2:  // bimodal
        v = rng.NextBool(0.9)
                ? static_cast<int64_t>(rng.NextBounded(1000)) + 1
                : static_cast<int64_t>(rng.NextBounded(100'000'000)) + 1;
        break;
      default:
        v = 1;
    }
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    const int64_t exact =
        values[static_cast<size_t>(p / 100.0 * values.size()) - 1];
    const int64_t approx = h.ValueAtPercentile(p);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.07 * static_cast<double>(exact) + 2.0)
        << "p" << p << " dist " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramProperty,
                         ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// Property: the partitioner balances keys across partitions for several
// partition counts and key shapes.

struct PartitionParam {
  int32_t partitions;
  bool string_keys;
};

class PartitionerProperty : public ::testing::TestWithParam<PartitionParam> {
};

TEST_P(PartitionerProperty, KeysSpreadEvenly) {
  const PartitionParam param = GetParam();
  kv::Partitioner partitioner(param.partitions);
  std::vector<int64_t> counts(param.partitions, 0);
  constexpr int64_t kKeys = 40000;
  for (int64_t i = 0; i < kKeys; ++i) {
    const Value key = param.string_keys
                          ? Value("entity-" + std::to_string(i))
                          : Value(i);
    ++counts[partitioner.PartitionOf(key)];
  }
  const double expected =
      static_cast<double>(kKeys) / param.partitions;
  for (int32_t p = 0; p < param.partitions; ++p) {
    EXPECT_GT(counts[p], expected * 0.7) << "partition " << p;
    EXPECT_LT(counts[p], expected * 1.3) << "partition " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionerProperty,
                         ::testing::Values(PartitionParam{8, false},
                                           PartitionParam{8, true},
                                           PartitionParam{71, false},
                                           PartitionParam{271, true}));

// ---------------------------------------------------------------------------
// Property: the blocking queue delivers every item exactly once under
// different producer/consumer mixes.

struct QueueParam {
  int producers;
  int consumers;
};

class QueueProperty : public ::testing::TestWithParam<QueueParam> {};

TEST_P(QueueProperty, ExactlyOnceDelivery) {
  const QueueParam param = GetParam();
  BlockingQueue<int64_t> queue(64);
  constexpr int64_t kPerProducer = 20000;
  std::atomic<int64_t> delivered_sum{0};
  std::atomic<int64_t> delivered_count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < param.consumers; ++c) {
    threads.emplace_back([&queue, &delivered_sum, &delivered_count] {
      while (auto v = queue.Pop()) {
        delivered_sum.fetch_add(*v);
        delivered_count.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < param.producers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int64_t i = 0; i < kPerProducer; ++i) {
        queue.Push(p * kPerProducer + i);
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  for (auto& t : threads) t.join();
  const int64_t n = param.producers * kPerProducer;
  EXPECT_EQ(delivered_count.load(), n);
  EXPECT_EQ(delivered_sum.load(), n * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, QueueProperty,
                         ::testing::Values(QueueParam{1, 1}, QueueParam{1, 4},
                                           QueueParam{4, 1},
                                           QueueParam{3, 3}));

}  // namespace
}  // namespace sq
