// `query` and `mixed`: the Delivery Hero job with 10K orders and two
// closed-loop clients, each cycling Q1 → Q2 → Q3 → Q4 → scan → lookup.
//
//  * query: a bounded stream settles (sources linger), one snapshot commits,
//    and the clients read it. sql, query and the snapshot/columnar side of
//    kv do the work while dataflow idles. Q1–Q4 are joins (row path), the
//    scan is a single-table GROUP BY (columnar path), the lookup is the
//    direct-object interface. Every result is checked against the model.
//  * mixed: the same state under open-loop churn with checkpoints on a
//    fixed interval, so reads run beside writes: every new snapshot id
//    invalidates cached columnar views, queries and operators share key
//    locks and cores, and phase 1 competes with scans.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/clock.h"
#include "common/rng.h"
#include "dh/delivery.h"
#include "kv/grid.h"
#include "query/query_service.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"

namespace sqb {
namespace {

constexpr int64_t kOrders = 10000;
constexpr int32_t kOperatorParallelism = 2;
constexpr int kClients = 2;
// Scan workers per query: two clients of two workers fill the 4 cores
// without oversubscribing them, which keeps run-to-run spread down.
constexpr int32_t kScanParallelism = 2;
constexpr size_t kLookupKeys = 10;
constexpr int kSetups = 3;
// mixed: churn per source (three sources) and checkpoint cadence; the
// window must hold at least 100 checkpoints for a p90 with ten samples
// beyond it.
constexpr double kChurnRatePerSource = 10000.0;
constexpr int64_t kCheckpointIntervalMs = 40;

const char kScanSql[] =
    "SELECT orderState, COUNT(*) AS n, SUM(seq) AS s "
    "FROM snapshot_orderstate GROUP BY orderState";

struct DeliveryJob {
  sq::MetricsRegistry metrics;
  sq::kv::Grid grid{sq::kv::GridConfig{
      .node_count = 3, .partition_count = 24, .backup_count = 0}};
  sq::state::SnapshotRegistry registry{
      &grid, {.retained_versions = 2, .async_prune = true, .metrics = &metrics}};
  sq::Histogram latency;
  std::unique_ptr<sq::dataflow::Job> job;
  std::unique_ptr<sq::query::QueryService> service;
  int64_t start_nanos = 0;

  ~DeliveryJob() {
    if (job != nullptr) (void)job->Stop();
  }
};

std::string StartDeliveryJob(const sq::dh::DeliveryConfig& config,
                             int64_t checkpoint_interval_ms,
                             std::unique_ptr<DeliveryJob>* out) {
  auto h = std::make_unique<DeliveryJob>();
  sq::dataflow::JobGraph graph = sq::dh::BuildDeliveryGraph(
      config, kOperatorParallelism, &h->latency);
  sq::state::SQueryConfig state_config;
  state_config.incremental = true;
  state_config.parallelism = kOperatorParallelism;
  state_config.metrics = &h->metrics;
  sq::dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = checkpoint_interval_ms;
  job_config.partitioner = &h->grid.partitioner();
  job_config.listener = &h->registry;
  job_config.metrics = &h->metrics;
  job_config.state_store_factory =
      sq::state::MakeSQueryStateStoreFactory(&h->grid, state_config);
  auto job = sq::dataflow::Job::Create(graph, std::move(job_config));
  if (!job.ok()) return "job: " + job.status().ToString();
  h->job = std::move(*job);
  h->service = std::make_unique<sq::query::QueryService>(
      &h->grid, &h->registry, nullptr, &h->metrics);
  h->start_nanos = NowNanos();
  sq::Status started = h->job->Start();
  if (!started.ok()) return "job start: " + started.ToString();
  *out = std::move(h);
  return "";
}

/// Waits until each keyed operator has processed `events` records.
std::string AwaitProcessed(DeliveryJob* h, int64_t events) {
  const int64_t deadline = NowNanos() + 60'000'000'000;
  for (const char* v : {sq::dh::kOrderInfoVertex, sq::dh::kOrderStateVertex,
                        sq::dh::kRiderLocationVertex}) {
    while (h->job->ProcessedCount(v) < events) {
      if (NowNanos() > deadline) return std::string(v) + " stalled";
      SleepMs(2);
    }
  }
  return "";
}

/// What a correct answer looks like. For the settled `query` state every
/// result is known exactly; under `mixed` churn only invariants hold.
struct Expected {
  bool exact = false;
  sq::dh::DeliveryReference joins;
  std::map<std::string, std::pair<int64_t, int64_t>> scan;  // state -> (n, s)
  std::vector<std::string> order_state;                     // by order id
};

/// The settled state of the bounded stream: order o saw laps
/// (events - 1 - o) / orders + 1 transitions (DeliveryConfig docs), parked
/// at DELIVERED; seq equals the state index.
Expected SettledExpectation(const sq::dh::DeliveryConfig& config) {
  Expected e;
  e.exact = true;
  e.joins = sq::dh::ComputeReference(config, config.total_events,
                                     sq::UnixMicros());
  for (int64_t o = 0; o < config.num_orders; ++o) {
    const int64_t lap = (config.total_events - 1 - o) / config.num_orders;
    const int64_t idx =
        std::min<int64_t>(lap, sq::dh::kOrderStateCount - 1);
    const std::string state =
        sq::dh::OrderStateToString(static_cast<sq::dh::OrderState>(idx));
    auto& s = e.scan[state];
    s.first += 1;
    s.second += idx;
    e.order_state.push_back(state);
  }
  return e;
}

std::map<std::string, int64_t> CountsBy(const sq::sql::ResultSet& rs,
                                        const std::string& column) {
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < rs.RowCount(); ++i) {
    out[rs.At(i, column).ToString()] = rs.At(i, "COUNT(*)").AsInt64();
  }
  return out;
}

/// Checks one Q1–Q4 result (index 0–3); empty = correct.
std::string CheckJoin(int q, const sq::sql::ResultSet& rs,
                      const Expected& e) {
  const std::string column = q == 1 ? "vendorCategory" : "deliveryZone";
  const std::map<std::string, int64_t> got = CountsBy(rs, column);
  if (e.exact) {
    const std::map<std::string, int64_t>* want[] = {
        &e.joins.q1_late_per_zone, &e.joins.q2_ready_per_category,
        &e.joins.q3_preparing_per_zone, &e.joins.q4_transit_per_zone};
    return got == *want[q] ? "" : "Q" + std::to_string(q + 1) +
                                      " differs from dh::ComputeReference";
  }
  int64_t total = 0;
  for (const auto& [k, n] : got) total += n;
  return total <= kOrders ? "" : "Q" + std::to_string(q + 1) +
                                     " counts more orders than exist";
}

std::string CheckScan(const sq::sql::ResultSet& rs, const Expected& e) {
  std::map<std::string, std::pair<int64_t, int64_t>> got;
  int64_t total = 0;
  for (size_t i = 0; i < rs.RowCount(); ++i) {
    const int64_t n = rs.At(i, "n").AsInt64();
    got[rs.At(i, "orderState").ToString()] = {n, rs.At(i, "s").AsInt64()};
    total += n;
  }
  if (e.exact) return got == e.scan ? "" : "scan differs from the model";
  return total == kOrders ? "" : "scan does not see every order once";
}

std::string CheckLookup(
    const std::vector<int64_t>& keys,
    const std::vector<std::pair<sq::kv::Value, sq::kv::Object>>& rows,
    const Expected& e) {
  if (rows.size() != keys.size()) return "lookup missed keys";
  if (!e.exact) return "";
  for (const auto& [key, obj] : rows) {
    const int64_t k = key.AsInt64();
    if (k < 0 || k >= static_cast<int64_t>(e.order_state.size()) ||
        obj.Get("orderState").ToString() != e.order_state[k]) {
      return "lookup of order " + key.ToString() + " differs from the model";
    }
  }
  return "";
}

/// One closed-loop client's window.
struct ClientResult {
  Samples join[4];  // by query, Q1–Q4
  std::vector<std::pair<int64_t, double>> join_at;  // (end, latency) of each
  Samples scan;
  Samples lookup;
  SqlCounts sql;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string mismatch;
};

void RunClient(sq::query::QueryService* service, const Expected* expected,
               uint64_t seed, int64_t deadline, ClientResult* out) {
  sq::Rng rng(seed);
  const std::string joins[4] = {sq::dh::Query1(), sq::dh::Query2(),
                                sq::dh::Query3(), sq::dh::Query4()};
  auto record_sql = [&](const sq::sql::ExecStats& s) {
    out->sql.queries += 1;
    out->sql.rows_scanned += s.rows_scanned;
    out->sql.rows_returned += s.rows_returned;
    out->sql.batch_rows += s.batch_rows;
    out->sql.vectorized += s.used_vectorized ? 1 : 0;
  };
  auto run_sql = [&](const std::string& sql, bool is_join, Samples* latency,
                     const std::function<std::string(const sq::sql::ResultSet&)>&
                         check) {
    const int64_t t0 = NowNanos();
    sq::query::QueryOptions options;
    options.parallelism = kScanParallelism;
    auto r = service->ExecuteWithStats(sql, options);
    const int64_t t1 = NowNanos();
    RecordBenchSpan(kBenchQuery, t0, t1, r.ok() ? r->trace_id : 0);
    ++out->attempted;
    if (!r.ok()) {
      ++out->failed;
      return;
    }
    latency->Add(static_cast<double>(t1 - t0));
    if (is_join) out->join_at.emplace_back(t1, static_cast<double>(t1 - t0));
    record_sql(r->stats);
    const std::string bad = check(r->result);
    if (!bad.empty() && out->mismatch.empty()) out->mismatch = bad;
  };
  while (NowNanos() < deadline && out->mismatch.empty()) {
    for (int q = 0; q < 4 && NowNanos() < deadline; ++q) {
      run_sql(joins[q], /*is_join=*/true, &out->join[q],
              [&](const sq::sql::ResultSet& rs) {
                return CheckJoin(q, rs, *expected);
              });
    }
    if (NowNanos() >= deadline) break;
    run_sql(kScanSql, /*is_join=*/false, &out->scan,
            [&](const sq::sql::ResultSet& rs) {
              return CheckScan(rs, *expected);
            });
    if (NowNanos() >= deadline) break;
    std::vector<int64_t> ids;
    std::vector<sq::kv::Value> keys;
    while (ids.size() < kLookupKeys) {  // distinct keys, so all must be found
      const int64_t id = static_cast<int64_t>(rng.NextBounded(kOrders));
      if (std::find(ids.begin(), ids.end(), id) != ids.end()) continue;
      ids.push_back(id);
      keys.emplace_back(id);
    }
    const int64_t t0 = NowNanos();
    auto rows = service->GetSnapshotObjects(sq::dh::kOrderStateVertex, keys);
    const int64_t t1 = NowNanos();
    RecordBenchSpan(kBenchLookup, t0, t1, std::nullopt);
    ++out->attempted;
    if (!rows.ok()) {
      ++out->failed;
      continue;
    }
    out->lookup.Add(static_cast<double>(t1 - t0));
    const std::string bad = CheckLookup(ids, *rows, *expected);
    if (!bad.empty() && out->mismatch.empty()) out->mismatch = bad;
  }
}

/// Runs the clients for the window and folds their results into `report`.
void RunClients(DeliveryJob* h, const Expected& expected, const Args& args,
                uint64_t window_index, Report* report) {
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> threads;
  const int64_t t0 = NowNanos();
  const int64_t deadline = t0 + static_cast<int64_t>(args.seconds * 1e9);
  for (int c = 0; c < kClients; ++c) {
    const uint64_t seed = DeriveSeed(args.seed, kLookupStream) +
                          window_index * kClients + static_cast<uint64_t>(c);
    threads.emplace_back(RunClient, h->service.get(), &expected, seed,
                         deadline, &results[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = static_cast<double>(NowNanos() - t0) / 1e9;

  ClientResult all;
  // Join samples by the whole second of the window they ended in.
  std::vector<Samples> join_seconds(static_cast<size_t>(args.seconds));
  for (const ClientResult& r : results) {
    for (const auto& [end, latency] : r.join_at) {
      const size_t second = static_cast<size_t>((end - t0) / 1'000'000'000);
      if (second < join_seconds.size()) join_seconds[second].Add(latency);
    }
    for (int q = 0; q < 4; ++q) all.join[q].Append(r.join[q]);
    all.scan.Append(r.scan);
    all.lookup.Append(r.lookup);
    all.sql.Add(r.sql);
    all.attempted += r.attempted;
    all.failed += r.failed;
    if (!r.mismatch.empty()) report->Mismatch(r.mismatch);
  }
  // The four joins differ in cost, so a median over their mix jumps
  // between clusters from run to run; the median is taken per query and
  // averaged. The p90 is the median of the per-second p90s of all join
  // samples, which a burst of host noise lasting a few seconds cannot
  // move; the p99 is over all join samples.
  Samples joins;
  double p50_sum = 0.0;
  for (const Samples& q : all.join) {
    joins.Append(q);
    p50_sum += q.Percentile(50);
  }
  Samples join_p90_per_second;
  for (const Samples& s : join_seconds) {
    if (s.count() > 0) join_p90_per_second.Add(s.Percentile(90));
  }
  report->Set("join_query_p50_ms", p50_sum / 4 / 1e6, "ms", joins.count());
  // A window shorter than a second has no complete second: pool it.
  const double join_p90 = join_p90_per_second.count() > 0
                              ? join_p90_per_second.Percentile(50)
                              : joins.Percentile(90);
  report->Set("join_query_p90_ms", join_p90 / 1e6, "ms", joins.count());
  report->Set("join_query_p99_ms", joins.Percentile(99) / 1e6, "ms",
              joins.count());
  report->SetLatency("scan_query", all.scan, 99, "ms");
  report->SetLatency("lookup", all.lookup, 99, "us");
  report->Set("query_qps",
              static_cast<double>(all.attempted - all.failed) / elapsed,
              "queries/s", all.attempted - all.failed);
  report->attempted += all.attempted;
  report->failed += all.failed;
  FoldSqlCounts(all.sql, report);
}

sq::dh::DeliveryConfig BaseConfig(const Args& args) {
  sq::dh::DeliveryConfig config;
  config.num_orders = kOrders;
  config.num_riders = kOrders / 10;
  config.seed = DeriveSeed(args.seed, kDeliveryStream);
  return config;
}

}  // namespace

Report RunQuery(const Args& args) {
  Report report;
  sq::dh::DeliveryConfig config = BaseConfig(args);
  // 3 laps per order: orders settle in different states of the machine.
  config.total_events = kOrders * 3;
  config.linger = true;
  std::unique_ptr<DeliveryJob> h;
  MedianSetupSeconds(
      kSetups,
      [&]() -> std::string {
        h.reset();
        std::string error = StartDeliveryJob(config, 0, &h);
        if (error.empty()) error = AwaitProcessed(h.get(), config.total_events);
        if (!error.empty()) return error;
        auto ckpt = h->job->TriggerCheckpoint();
        return ckpt.ok() ? "" : "checkpoint: " + ckpt.status().ToString();
      },
      &report);
  if (!report.correct) return report;

  const Expected expected = SettledExpectation(config);
  uint64_t window_index = 0;
  RunWindows(args, "query_qps", /*higher_is_better=*/true,
             /*query_every=*/5,
             [&](Report* r) {
               RunClients(h.get(), expected, args, window_index++, r);
             },
             &report);
  h.reset();
  return report;
}

Report RunMixed(const Args& args) {
  Report report;
  sq::dh::DeliveryConfig config = BaseConfig(args);
  config.total_events = -1;
  config.target_rate = kChurnRatePerSource;
  config.cycle_states = true;
  std::unique_ptr<DeliveryJob> h;
  std::unique_ptr<JobSampler> sampler;
  MedianSetupSeconds(
      kSetups,
      [&]() -> std::string {
        sampler.reset();
        h.reset();
        std::string error =
            StartDeliveryJob(config, kCheckpointIntervalMs, &h);
        if (!error.empty()) return error;
        sampler = std::make_unique<JobSampler>(
            h->job.get(),
            std::vector<std::string>{sq::dh::kOrderInfoVertex,
                                     sq::dh::kOrderStateVertex,
                                     sq::dh::kRiderLocationVertex},
            3 * kChurnRatePerSource, h->start_nanos, &h->latency);
        // Every order populated, then a snapshot that holds all of them.
        error = AwaitProcessed(h.get(), kOrders);
        if (!error.empty()) return error;
        const int64_t populated = h->job->latest_committed_checkpoint();
        const int64_t deadline = NowNanos() + 30'000'000'000;
        while (h->job->latest_committed_checkpoint() <= populated) {
          if (NowNanos() > deadline) return "no checkpoint within 30 s";
          SleepMs(2);
        }
        return "";
      },
      &report);
  if (!report.correct) return report;

  const Expected expected{};  // churn: invariants only
  uint64_t window_index = 0;
  RunWindows(
      args, "query_qps", /*higher_is_better=*/true,
      /*query_every=*/3,
      [&](Report* r) {
        MeasureJobWindow(
            h->job.get(), h->metrics, sampler.get(),
            [&] {
              RunClients(h.get(), expected, args, window_index++, r);
            },
            r);
      },
      &report);
  sampler.reset();
  h.reset();
  return report;
}

}  // namespace sqb
