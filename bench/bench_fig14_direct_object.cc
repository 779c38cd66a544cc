// Fig. 14: direct-object query throughput vs number of keys selected
// (1/10/100/1000 out of 100K), S-QUERY vs the TSpoon baseline.
//
// S-QUERY reads the colocated live-state KV table directly (key-level
// locks); TSpoon routes every query through the operator pipeline as a
// read-only transaction serialized with record processing. The paper's
// state is the rider-location operator (two doubles + timestamp).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "baseline/tspoon.h"
#include "common/rng.h"
#include "bench/bench_common.h"
#include "dataflow/operators.h"
#include "query/query_service.h"

namespace sq::bench {
namespace {

using dataflow::OperatorContext;
using dataflow::Record;
using kv::Object;
using kv::Value;

constexpr int64_t kKeys = 100000;
constexpr int32_t kParallelism = 2;

std::vector<Value> PickKeys(int64_t n, Rng* rng) {
  std::vector<Value> keys;
  keys.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    keys.emplace_back(static_cast<int64_t>(rng->NextBounded(kKeys)));
  }
  return keys;
}

Record RiderRecord(int64_t offset, OperatorContext* ctx) {
  Object payload;
  payload.Set("lat", Value(52.0 + static_cast<double>(offset % 997) / 997));
  payload.Set("lon", Value(4.0 + static_cast<double>(offset % 991) / 991));
  payload.Set("updatedAt", Value(offset));
  return Record::Data(Value(offset % kKeys), std::move(payload),
                      ctx->NowNanos());
}

// The paper's clients sit on a fourth node and reach the cluster over a
// 10 Gbit/s network; queries from this process would otherwise skip that
// round trip entirely and overstate S-QUERY's advantage. Both interfaces
// pay the same simulated RTT.
constexpr int64_t kClientRttNs = 50000;  // ~50us LAN round trip

void SpinFor(int64_t ns) {
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < end) {
  }
}

// Aggregate throughput over a small client pool (the paper uses 180
// threads on the client node; a handful saturates a 1-vCPU host).
double MeasureThroughput(
    const std::function<Status(const std::vector<Value>&)>& issue,
    int64_t selection, double seconds) {
  constexpr int kClientThreads = 3;
  std::atomic<int64_t> queries{0};
  Clock* clock = SystemClock::Default();
  const int64_t start = clock->NowNanos();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(17 + t);
      while (clock->NowNanos() < end) {
        SpinFor(kClientRttNs);
        Check(issue(PickKeys(selection, &rng)), "query");
        queries.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  const double elapsed =
      static_cast<double>(clock->NowNanos() - start) / 1e9;
  return static_cast<double>(queries.load()) / elapsed;
}

void Run(double seconds) {
  // --- S-QUERY side: rider state mirrored into the live KV table.
  kv::Grid grid(kv::GridConfig{.node_count = 3, .partition_count = 24,
                               .backup_count = 0});
  state::SnapshotRegistry registry(&grid, {.retained_versions = 2,
                                           .async_prune = true});
  baseline::TSpoonMailbox mailbox(kParallelism);

  dataflow::JobGraph graph;
  dataflow::GeneratorSource::Options options;
  options.total_records = -1;
  options.target_rate = 30000.0;  // steady background stream
  const int32_t src = graph.AddSource(
      "rider_src", 1,
      dataflow::MakeGeneratorSourceFactory(options, RiderRecord));
  // One operator instance group serves both systems: S-QUERY state store
  // mirrors to the grid, and the TSpoon wrapper serves mailbox queries.
  const int32_t op = graph.AddOperator(
      "riderlocation", kParallelism,
      baseline::MakeTSpoonQueryableFactory(
          dataflow::MakeLambdaOperatorFactory(
              [](const Record& r, OperatorContext* ctx) {
                ctx->PutState(r.key, r.payload);
                return Status::OK();
              }),
          &mailbox));
  (void)graph.Connect(src, op, dataflow::EdgeKind::kKeyed);

  state::SQueryConfig state_config;
  state_config.parallelism = kParallelism;
  dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = 1000;
  job_config.partitioner = &grid.partitioner();
  job_config.listener = &registry;
  job_config.state_store_factory =
      state::MakeSQueryStateStoreFactory(&grid, state_config);
  auto job = Check(dataflow::Job::Create(graph, std::move(job_config)),
                   "job create");
  Check(job->Start(), "job start");
  // Populate all 100K rider keys first.
  WaitFor(*job, "preload",
          [&] { return job->ProcessedCount("riderlocation") >= kKeys; });

  query::QueryService service(&grid, &registry);
  baseline::TSpoonClient client(&mailbox, &grid.partitioner());

  std::printf("%-10s %16s %16s %8s\n", "#keys", "S-Query (q/s)",
              "TSpoon (q/s)", "ratio");
  for (const int64_t selection : {1, 10, 100, 1000}) {
    const double squery_qps = MeasureThroughput(
        [&service](const std::vector<Value>& keys) {
          return service.GetLiveObjects("riderlocation", keys).status();
        },
        selection, seconds);
    const double tspoon_qps = MeasureThroughput(
        [&client](const std::vector<Value>& keys) {
          return client.Get(keys).status();
        },
        selection, seconds);
    std::printf("%-10lld %16.0f %16.0f %7.2fx\n",
                static_cast<long long>(selection), squery_qps, tspoon_qps,
                squery_qps / std::max(tspoon_qps, 1.0));
  }
  (void)job->Stop();
  mailbox.Close();
}

}  // namespace
}  // namespace sq::bench

int main() {
  const double scale = sq::bench::BenchScale();
  sq::bench::PrintHeader(
      "Figure 14",
      "direct-object query throughput vs selection size (1/10/100/1000 of "
      "100K rider keys), S-QUERY vs TSpoon baseline");
  sq::bench::Run(2.0 * scale);
  std::printf(
      "\nExpected shape (paper Fig. 14): power-law decay of throughput with\n"
      "selection size for both systems; S-QUERY ~2x TSpoon at 1 key and\n"
      "comparable at larger selections.\n");
  return 0;
}
