// `ingest`: NEXMark q6 with 10K sellers, live + snapshot mirroring, aligned
// checkpoints on a fixed interval and a durable snapshot log. No queries:
// dataflow, state, live kv puts and storage are on the blocking path while
// sql, query and net do no work, so a query-side change should leave every
// number here unchanged.
//
// Two phases:
//  * bounded and unthrottled: kMaxPhaseEvents bids end to end, divided by
//    wall time (ingest_max_eps); afterwards the live q6avg state must equal
//    nexmark::ComputeQ6Reference;
//  * open loop at kRate events/s for the measured window: source→sink
//    latency, 2PC latency, source lag and every layer counter.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "bench.h"
#include "kv/grid.h"
#include "nexmark/nexmark.h"
#include "query/query_service.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"
#include "storage/durable_listener.h"
#include "storage/snapshot_log.h"

namespace sqb {
namespace {

constexpr int64_t kSellers = 10000;
constexpr int32_t kOperatorParallelism = 2;
constexpr int64_t kCheckpointIntervalMs = 40;
// 20 closed auctions per seller: every seller has a full price window.
constexpr int64_t kMaxPhaseEvents = kSellers * 5 * 20;
// Open-loop input rate, about a fifth of ingest_max_eps (~530K events/s on
// a 4-vCPU VM). At half of it the pipeline kept every core busy and the
// event and checkpoint tails spread past the benchmark's bounds from run to
// run; here it has headroom and latency is not backlog.
constexpr double kRate = 100000.0;
constexpr int kSetups = 3;
constexpr int64_t kWarmupMs = 500;

/// A fresh snapshot-log directory under the working directory, removed with
/// everything in it on every exit path.
class TempDir {
 public:
  TempDir() {
    std::error_code ec;
    std::filesystem::create_directories(kRoot, ec);
    std::string tmpl = std::string(kRoot) + "/ingest-XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
    std::filesystem::remove(kRoot, ec);  // only succeeds once empty
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  static constexpr char kRoot[] = ".sqbench_tmp";
  std::string path_;
};

/// One q6 job with its state, registry, durable log and instrumentation.
/// Members are destroyed in reverse order: the job is stopped first (in the
/// destructor body), the log directory is removed last.
struct IngestJob {
  TempDir dir;
  sq::MetricsRegistry metrics;
  sq::kv::Grid grid{sq::kv::GridConfig{
      .node_count = 3, .partition_count = 24, .backup_count = 0}};
  sq::state::SnapshotRegistry registry{
      &grid, {.retained_versions = 2, .async_prune = true, .metrics = &metrics}};
  std::unique_ptr<sq::storage::SnapshotLog> log;
  std::unique_ptr<sq::storage::DurableSnapshotListener> durable;
  sq::dataflow::CheckpointListenerChain chain;
  sq::Histogram latency;
  std::unique_ptr<sq::dataflow::Job> job;
  int64_t start_nanos = 0;

  ~IngestJob() {
    if (job != nullptr) (void)job->Stop();
  }
};

std::unique_ptr<IngestJob> StartIngestJob(const sq::nexmark::NexmarkConfig& config,
                                          std::string* error) {
  auto h = std::make_unique<IngestJob>();
  if (h->dir.path().empty()) {
    *error = "cannot create the snapshot-log directory";
    return nullptr;
  }
  auto log = sq::storage::SnapshotLog::Open(sq::storage::StorageOptions{
      .dir = h->dir.path(), .retained_snapshots = 2, .metrics = &h->metrics});
  if (!log.ok()) {
    *error = "snapshot log: " + log.status().ToString();
    return nullptr;
  }
  h->log = std::move(*log);
  h->durable = std::make_unique<sq::storage::DurableSnapshotListener>(
      &h->grid, h->log.get());
  h->chain.Add(h->durable.get());  // on disk before the registry publishes
  h->chain.Add(&h->registry);

  sq::dataflow::JobGraph graph = sq::nexmark::BuildQ6Graph(
      config, /*source_parallelism=*/1, kOperatorParallelism, &h->latency);
  sq::state::SQueryConfig state_config;
  state_config.incremental = true;
  state_config.parallelism = kOperatorParallelism;
  state_config.metrics = &h->metrics;
  sq::dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = kCheckpointIntervalMs;
  job_config.checkpoint_mode = sq::dataflow::CheckpointMode::kAligned;
  job_config.partitioner = &h->grid.partitioner();
  job_config.listener = &h->chain;
  job_config.metrics = &h->metrics;
  job_config.state_store_factory =
      sq::state::MakeSQueryStateStoreFactory(&h->grid, state_config);
  auto job = sq::dataflow::Job::Create(graph, std::move(job_config));
  if (!job.ok()) {
    *error = "job: " + job.status().ToString();
    return nullptr;
  }
  h->job = std::move(*job);
  h->start_nanos = NowNanos();
  sq::Status started = h->job->Start();
  if (!started.ok()) {
    *error = "job start: " + started.ToString();
    return nullptr;
  }
  return h;
}

sq::nexmark::NexmarkConfig BaseConfig(const Args& args) {
  sq::nexmark::NexmarkConfig config;
  config.num_sellers = kSellers;
  config.seed = DeriveSeed(args.seed, kNexmarkStream);
  return config;
}

/// The bounded, unthrottled phase: returns events/s, and checks the live
/// q6avg table against the reference computation.
double RunMaxPhase(const Args& args, Report* report) {
  sq::nexmark::NexmarkConfig config = BaseConfig(args);
  config.total_events = kMaxPhaseEvents;
  std::string error;
  std::unique_ptr<IngestJob> h = StartIngestJob(config, &error);
  if (h == nullptr) {
    report->Mismatch(error);
    return 0.0;
  }
  sq::Status done = h->job->AwaitCompletion();
  const double seconds =
      static_cast<double>(NowNanos() - h->start_nanos) / 1e9;
  if (!done.ok()) {
    report->Mismatch("bounded q6 run: " + done.ToString());
    return 0.0;
  }

  sq::query::QueryService service(&h->grid, &h->registry);
  auto live = service.ScanLiveObjects(sq::nexmark::kAverageVertex);
  const auto reference =
      sq::nexmark::ComputeQ6Reference(config, config.total_events);
  if (!live.ok()) {
    report->Mismatch("q6avg scan: " + live.status().ToString());
  } else if (live->size() != reference.size()) {
    report->Mismatch("q6avg has " + std::to_string(live->size()) +
                     " sellers, reference " +
                     std::to_string(reference.size()));
  } else {
    for (const auto& [key, obj] : *live) {
      auto it = reference.find(key.AsInt64());
      if (it == reference.end() ||
          std::fabs(obj.Get("average").AsDouble() - it->second.average) >
              1e-9 ||
          obj.Get("count").AsInt64() !=
              static_cast<int64_t>(it->second.last_prices.size())) {
        report->Mismatch("q6avg differs from the reference at seller " +
                         key.ToString());
        break;
      }
    }
  }
  return static_cast<double>(kMaxPhaseEvents) / seconds;
}

}  // namespace

Report RunIngest(const Args& args) {
  Report report;
  sq::nexmark::NexmarkConfig config = BaseConfig(args);
  config.total_events = -1;
  config.target_rate = kRate;
  std::unique_ptr<IngestJob> h;
  std::unique_ptr<JobSampler> sampler;
  MedianSetupSeconds(
      kSetups,
      [&]() -> std::string {
        sampler.reset();
        h.reset();
        std::string error;
        h = StartIngestJob(config, &error);
        if (h == nullptr) return error;
        sampler = std::make_unique<JobSampler>(
            h->job.get(),
            std::vector<std::string>{sq::nexmark::kWinningBidsVertex}, kRate,
            h->start_nanos, &h->latency);
        const int64_t deadline = NowNanos() + 30'000'000'000;
        while (h->job->latest_committed_checkpoint() < 1) {
          if (NowNanos() > deadline) return "no checkpoint within 30 s";
          SleepMs(2);
        }
        SleepMs(kWarmupMs);
        return "";
      },
      &report);
  if (!report.correct) return report;
  RunWindows(args, "event_latency_p50_ms", /*higher_is_better=*/false,
             /*query_every=*/1,
             [&](Report* r) {
               MeasureJobWindow(
                   h->job.get(), h->metrics, sampler.get(),
                   [&] { SleepMs(static_cast<int64_t>(args.seconds * 1e3)); },
                   r);
             },
             &report);
  sampler.reset();
  h.reset();
  // Peak memory of the set-ups and the window. The unthrottled phase runs
  // after it: its queue backlog depends on scheduling, and as the process
  // peak it moved peak_rss_mb by a fifth between seeds.
  report.Set("peak_rss_mb", PeakRssMb(), "MB", 1);
  if (!report.correct) return report;

  Samples eps;
  for (int i = 0; i < (args.trace ? 1 : 3) && report.correct; ++i) {
    eps.Add(RunMaxPhase(args, &report));
  }
  report.Set("ingest_max_eps", eps.Percentile(50), "events/s", eps.count());
  return report;
}

}  // namespace sqb
