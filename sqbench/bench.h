#ifndef SQBENCH_BENCH_H_
#define SQBENCH_BENCH_H_

// Shared pieces of the sqbench binary: arguments, the per-run report,
// exact sample statistics, window deltas of the engine's MetricsRegistry,
// a sampler for source lag and channel occupancy, and the span fold that
// turns a traced window into per-layer numbers. Every workload drives the
// engine through its public API only.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "dataflow/execution.h"
#include "trace/trace.h"

namespace sqb {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Fans the single --seed argument out into independent generator seeds
/// (SplitMix64 over seed and stream id). The system under test only ever
/// sees the inputs generated from these.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Seed streams, one per generator.
enum SeedStream : uint64_t {
  kNexmarkStream = 1,
  kDeliveryStream = 2,
  kLookupStream = 3,
  kClusterValueStream = 4,
};

int64_t NowNanos();
double PeakRssMb();
void SleepMs(int64_t ms);

/// Exact order statistics over recorded values (no bucketing).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  int64_t count() const { return static_cast<int64_t>(values_.size()); }
  /// Linear interpolation between closest ranks; 0 when empty.
  double Percentile(double p) const;
  double Mean() const;

 private:
  std::vector<double> values_;
};

/// One reported number with its unit and the sample count behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t n = 0;
};

/// What one workload run produced.
struct Report {
  bool correct = true;
  std::string mismatch;  // first correctness failure, if any
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, double> layers;
  std::vector<std::string> notes;

  void Mismatch(const std::string& what);
  void Set(const std::string& name, double value, const char* unit,
           int64_t n) {
    e2e[name] = Metric{value, unit, n};
  }
  /// Nanosecond samples reported as milliseconds (or microseconds) at the
  /// median and at `tail` percentile.
  void SetLatency(const std::string& prefix, const Samples& nanos,
                  double tail, const char* unit);
};

// --- Histogram windows -----------------------------------------------------

/// `after - before`, bucket by bucket (min/max are not meaningful in a
/// difference and are left 0).
sq::Histogram::State HistDelta(const sq::Histogram::State& after,
                               const sq::Histogram::State& before);
/// Percentile of a raw histogram state, interpolated linearly by rank inside
/// the bucket (the bucket layout mirrors sq::Histogram's log-linear one).
double HistPercentile(const sq::Histogram::State& state, double p);
double HistMean(const sq::Histogram::State& state);

/// Counters and raw histogram states of a MetricsRegistry at one instant.
struct MetricsSnapshot {
  std::map<std::string, int64_t> values;  // counters and gauges
  std::map<std::string, sq::Histogram::State> histograms;

  static MetricsSnapshot Take(const sq::MetricsRegistry& registry);
  int64_t Delta(const MetricsSnapshot& before, const std::string& name) const;
  /// Sum of the deltas of every counter whose name starts with `prefix`.
  int64_t PrefixDelta(const MetricsSnapshot& before,
                      const std::string& prefix) const;
  sq::Histogram::State Hist(const MetricsSnapshot& before,
                            const std::string& name) const;
  /// Bucket-wise sum of the deltas of every histogram under `prefix`.
  sq::Histogram::State PrefixHist(const MetricsSnapshot& before,
                                  const std::string& prefix) const;
};

// --- Running-job sampling --------------------------------------------------

/// Samples a running job every few milliseconds on two threads of its own:
///  * source lag — events the open-loop schedule has released minus events
///    delivered to the operators fed by the sources. GeneratorSource stamps a
///    record when it is emitted, not when it was due, so a stalled pipeline
///    shows up here instead of in the sink's latency histogram;
///  * per-vertex queue occupancy from CollectOperatorStats (share of
///    samples where an instance's queue is at capacity);
///  * checkpoint rows, deduplicated by id (the job keeps only the last 128).
class JobSampler {
 public:
  /// `fed_vertices` are the vertices directly downstream of the sources;
  /// `rate` is the schedule's total events/s into them; `start_nanos` is
  /// when the job (and so the schedule) started; `latency` is the job's
  /// sink histogram.
  JobSampler(sq::dataflow::Job* job, std::vector<std::string> fed_vertices,
             double rate, int64_t start_nanos, const sq::Histogram* latency);
  ~JobSampler();
  JobSampler(const JobSampler&) = delete;
  JobSampler& operator=(const JobSampler&) = delete;

  /// Events scheduled by `t` and events delivered so far.
  int64_t ScheduledAt(int64_t t) const;
  int64_t Delivered() const;
  double rate() const { return rate_; }

  /// Opens a measurement window: clears lag and occupancy samples. The lag
  /// baseline is the lowest lag seen before the window (the records a
  /// source emits per poll plus the thread start-up offset).
  void BeginWindow();
  struct Window {
    /// Sink latency over the whole window, and its p50 and p99 per second.
    /// The median of the per-second values is what a burst of host noise
    /// lasting a few seconds cannot move, unlike the pooled percentile.
    sq::Histogram::State latency;
    Samples latency_p50_per_second;
    Samples latency_p99_per_second;
    Samples lag_events;
    int64_t lag_baseline = 0;
    /// vertex -> (samples with an instance queue at capacity, samples)
    std::map<std::string, std::pair<int64_t, int64_t>> full;
    /// Checkpoint attempts that finished inside the window.
    std::vector<sq::dataflow::CheckpointRow> checkpoints;
  };
  Window EndWindow();

 private:
  void RunLagProbe();
  void RunStatsProbe();
  void PollCheckpoints();

  sq::dataflow::Job* job_;
  std::vector<std::string> fed_;
  double rate_;
  int64_t start_nanos_;
  const sq::Histogram* latency_;

  std::mutex mu_;
  bool in_window_ = false;
  sq::Histogram::State window_latency_start_;
  sq::Histogram::State second_latency_start_;
  int64_t second_start_ = 0;
  int64_t min_lag_ = INT64_MAX;
  int64_t window_first_ckpt_ = 0;
  Window window_;
  std::map<int64_t, sq::dataflow::CheckpointRow> ckpts_;

  std::atomic<bool> stop_{false};
  // Last: the probes start after, and are joined before, the members above.
  std::thread lag_thread_;
  std::thread stats_thread_;
};

/// Open-loop completion check: after the window, waits up to `grace_ms` for
/// everything scheduled by `window_end` to be delivered, and returns the
/// shortfall (events that missed the limit).
int64_t UndeliveredAfterGrace(const JobSampler& sampler, int64_t window_end,
                              int64_t grace_ms);

/// One measured window of a running job around `body`, which lasts the
/// window (layers.cc): event latency, checkpoints (`checkpoint_p50_ms`,
/// `checkpoint_p90_ms`), and the dataflow, state and storage layers. Events
/// scheduled in the window count as attempted; those still undelivered a
/// second after it as failed, like aborted checkpoints.
void MeasureJobWindow(sq::dataflow::Job* job,
                      const sq::MetricsRegistry& metrics, JobSampler* sampler,
                      const std::function<void()>& body, Report* report);

// --- Layer folds (layers.cc) -----------------------------------------------

/// Per-query `sql.*` counts from the QueryResult::stats of every query.
struct SqlCounts {
  int64_t queries = 0;
  int64_t rows_scanned = 0;
  int64_t rows_returned = 0;
  int64_t batch_rows = 0;
  int64_t vectorized = 0;
  void Add(const SqlCounts& o);
};
void FoldSqlCounts(const SqlCounts& counts, Report* report);

// --- Tracing ---------------------------------------------------------------

/// Tracing for the traced window: every category on, query roots sampled
/// 1 in `query_every` so the whole window fits the bounded span journal
/// without eviction. Checkpoints are all traced: their roots share one
/// sampling counter with the async pruner's, and any period would alias
/// with the alternation of the two.
void EnableTracing(uint32_t query_every);
void DisableTracing();

/// Bench-side spans around each public call (category kOther).
inline constexpr char kBenchQuery[] = "bench.query";
inline constexpr char kBenchLookup[] = "bench.lookup";

/// Records a bench span over [start, end] as the root of its own trace,
/// after the call: it is never the current scope, so spans of a query the
/// engine sampled out cannot attach to it. `engine_trace` links a SQL call
/// to its engine tree (0 = sampled out); direct-object calls pass nullopt.
void RecordBenchSpan(const char* name, int64_t start, int64_t end,
                     std::optional<uint64_t> engine_trace);

/// Folds the span journal of a traced window into `report->layers`: sql
/// self times per traced query, kv lock waits, checkpoint capture and prune,
/// storage spans, the bench spans' own self time, and trace.dropped_spans
/// (against `dropped_before`).
void FoldSpans(int64_t window_start, int64_t dropped_before, Report* report);

/// Runs the measured window with tracing off for the end-to-end numbers
/// and, with --trace 1, a second time with tracing on for the layers. The
/// gap between the two windows on `primary` is trace.overhead_pct (positive
/// = tracing made it worse), and the untraced end-to-end values are copied
/// into the layers as `e2e.<name>`.
/// `query_every` is the traced window's query sampling (EnableTracing).
void RunWindows(const Args& args, const std::string& primary,
                bool higher_is_better, uint32_t query_every,
                const std::function<void(Report*)>& window, Report* report);

// --- Host facts ------------------------------------------------------------

/// nproc, CPU model, build type, compiler and flags as a JSON object.
std::string HostFactsJson();

/// Runs the workload's set-up `n` times from scratch and reports the median
/// as setup_s. `setup` returns an error text, empty on success; the caller
/// keeps the last set-up alive for the measured window.
void MedianSetupSeconds(int n, const std::function<std::string()>& setup,
                        Report* report);

/// Writes the report as one JSON line on stdout (read by run.py).
void PrintReportJson(const Args& args, const Report& report);

// Workloads.
Report RunIngest(const Args& args);
Report RunQuery(const Args& args);
Report RunMixed(const Args& args);
Report RunCluster(const Args& args);

}  // namespace sqb

#endif  // SQBENCH_BENCH_H_
