#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "bench.h"
#include "common/metric_names.h"

namespace sqb {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t NowNanos() { return sq::trace::NowNanos(); }

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void SleepMs(int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// --- Samples ---------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0
                         : std::accumulate(values_.begin(), values_.end(), 0.0) /
                               static_cast<double>(values_.size());
}

// --- Report ----------------------------------------------------------------

void Report::Mismatch(const std::string& what) {
  if (correct) mismatch = what;
  correct = false;
}

void Report::SetLatency(const std::string& prefix, const Samples& nanos,
                        double tail, const char* unit) {
  const double scale = std::string(unit) == "us" ? 1e3 : 1e6;
  char tail_name[16];
  std::snprintf(tail_name, sizeof(tail_name), "_p%g_", tail);
  Set(prefix + "_p50_" + unit, nanos.Percentile(50) / scale, unit,
      nanos.count());
  Set(prefix + tail_name + unit, nanos.Percentile(tail) / scale, unit,
      nanos.count());
}

// --- Histogram windows -----------------------------------------------------

namespace {

// sq::Histogram's bucket layout (histogram.cc): exact below 64, then 32
// sub-buckets per power of two.
int64_t BucketLowerBound(size_t index) {
  constexpr int kSub = sq::Histogram::kSubBuckets;
  constexpr int kHalf = kSub / 2;
  const int i = static_cast<int>(index);
  if (i < kSub) return i;
  const int rel = i - kSub;
  const int shift = rel / kHalf + 1;
  const int sub = rel % kHalf + kHalf;
  return static_cast<int64_t>(sub) << shift;
}

}  // namespace

sq::Histogram::State HistDelta(const sq::Histogram::State& after,
                               const sq::Histogram::State& before) {
  sq::Histogram::State d;
  d.buckets = after.buckets;
  for (size_t i = 0; i < before.buckets.size() && i < d.buckets.size(); ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  return d;
}

double HistPercentile(const sq::Histogram::State& state, double p) {
  if (state.count <= 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(state.count);
  int64_t running = 0;
  for (size_t i = 0; i < state.buckets.size(); ++i) {
    const int64_t c = state.buckets[i];
    if (c <= 0) continue;
    if (static_cast<double>(running + c) >= target) {
      const double frac =
          std::clamp((target - static_cast<double>(running)) /
                         static_cast<double>(c),
                     0.0, 1.0);
      const double lo = static_cast<double>(BucketLowerBound(i));
      const double hi = static_cast<double>(BucketLowerBound(i + 1));
      return lo + frac * (hi - lo);
    }
    running += c;
  }
  return 0.0;
}

double HistMean(const sq::Histogram::State& state) {
  return state.count <= 0 ? 0.0 : state.sum / static_cast<double>(state.count);
}

MetricsSnapshot MetricsSnapshot::Take(const sq::MetricsRegistry& registry) {
  MetricsSnapshot s;
  for (const sq::MetricSample& m : registry.Collect()) {
    if (m.kind != sq::MetricSample::Kind::kHistogram) s.values[m.name] = m.value;
  }
  for (auto& [name, state] : registry.HistogramStates()) {
    s.histograms[name] = std::move(state);
  }
  return s;
}

int64_t MetricsSnapshot::Delta(const MetricsSnapshot& before,
                               const std::string& name) const {
  auto a = values.find(name);
  auto b = before.values.find(name);
  return (a == values.end() ? 0 : a->second) -
         (b == before.values.end() ? 0 : b->second);
}

int64_t MetricsSnapshot::PrefixDelta(const MetricsSnapshot& before,
                                     const std::string& prefix) const {
  int64_t total = 0;
  for (const auto& [name, v] : values) {
    if (name.rfind(prefix, 0) == 0) total += Delta(before, name);
  }
  return total;
}

sq::Histogram::State MetricsSnapshot::Hist(const MetricsSnapshot& before,
                                           const std::string& name) const {
  auto a = histograms.find(name);
  if (a == histograms.end()) return {};
  auto b = before.histograms.find(name);
  return b == before.histograms.end() ? HistDelta(a->second, {})
                                      : HistDelta(a->second, b->second);
}

sq::Histogram::State MetricsSnapshot::PrefixHist(
    const MetricsSnapshot& before, const std::string& prefix) const {
  sq::Histogram::State total;
  for (const auto& [name, state] : histograms) {
    if (name.rfind(prefix, 0) != 0) continue;
    const sq::Histogram::State d = Hist(before, name);
    if (total.buckets.size() < d.buckets.size()) {
      total.buckets.resize(d.buckets.size(), 0);
    }
    for (size_t i = 0; i < d.buckets.size(); ++i) total.buckets[i] += d.buckets[i];
    total.count += d.count;
    total.sum += d.sum;
  }
  return total;
}

// --- JobSampler ------------------------------------------------------------

JobSampler::JobSampler(sq::dataflow::Job* job,
                       std::vector<std::string> fed_vertices, double rate,
                       int64_t start_nanos, const sq::Histogram* latency)
    : job_(job),
      fed_(std::move(fed_vertices)),
      rate_(rate),
      start_nanos_(start_nanos),
      latency_(latency),
      lag_thread_([this] { RunLagProbe(); }),
      stats_thread_([this] { RunStatsProbe(); }) {}

JobSampler::~JobSampler() {
  stop_.store(true);
  lag_thread_.join();
  stats_thread_.join();
}

int64_t JobSampler::ScheduledAt(int64_t t) const {
  return static_cast<int64_t>(static_cast<double>(t - start_nanos_) / 1e9 *
                              rate_);
}

int64_t JobSampler::Delivered() const {
  int64_t total = 0;
  for (const std::string& v : fed_) total += job_->ProcessedCount(v);
  return total;
}

void JobSampler::PollCheckpoints() {
  std::vector<sq::dataflow::CheckpointRow> rows = job_->RecentCheckpoints();
  std::lock_guard<std::mutex> lock(mu_);
  for (const sq::dataflow::CheckpointRow& row : rows) ckpts_[row.id] = row;
}

void JobSampler::RunLagProbe() {
  while (!stop_.load()) {
    const int64_t now = NowNanos();
    const int64_t lag = ScheduledAt(now) - Delivered();
    const sq::Histogram::State latency = latency_->Snapshot();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!in_window_) {
        min_lag_ = std::min(min_lag_, lag);
      } else {
        window_.lag_events.Add(static_cast<double>(lag));
        if (now - second_start_ >= 1'000'000'000) {
          const sq::Histogram::State second =
              HistDelta(latency, second_latency_start_);
          window_.latency_p50_per_second.Add(HistPercentile(second, 50));
          window_.latency_p99_per_second.Add(HistPercentile(second, 99));
          second_latency_start_ = latency;
          second_start_ = now;
        }
      }
    }
    SleepMs(2);
  }
}

void JobSampler::RunStatsProbe() {
  // Operator stats and checkpoint rows take the job's checkpoint lock, which
  // a checkpoint holds for its whole 2PC, so they are polled on this thread
  // and never delay the lock-free lag probe.
  int64_t last_ckpt_poll = 0;
  while (!stop_.load()) {
    const int64_t now = NowNanos();
    bool in_window = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_window = in_window_;
    }
    if (in_window) {
      std::map<std::string, std::pair<int64_t, int64_t>> full;
      for (const sq::dataflow::OperatorStats& s :
           job_->CollectOperatorStats()) {
        if (s.queue_capacity == 0) continue;
        auto& f = full[s.vertex];
        f.first += s.queue_depth >= s.queue_capacity ? 1 : 0;
        f.second += 1;
      }
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [v, f] : full) {
        window_.full[v].first += f.first;
        window_.full[v].second += f.second;
      }
    }
    if (now - last_ckpt_poll >= 500'000'000) {
      last_ckpt_poll = now;
      PollCheckpoints();
    }
    SleepMs(20);
  }
}

void JobSampler::BeginWindow() {
  const int64_t first = job_->latest_committed_checkpoint() + 1;
  sq::Histogram::State latency = latency_->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  window_ = Window{};
  window_.lag_baseline = min_lag_ == INT64_MAX ? 0 : min_lag_;
  window_first_ckpt_ = first;
  window_latency_start_ = latency;
  second_latency_start_ = std::move(latency);
  second_start_ = NowNanos();
  in_window_ = true;
}

JobSampler::Window JobSampler::EndWindow() {
  const int64_t last_id = job_->latest_committed_checkpoint();
  const sq::Histogram::State latency = latency_->Snapshot();
  PollCheckpoints();
  std::lock_guard<std::mutex> lock(mu_);
  in_window_ = false;
  Window w = std::move(window_);
  window_ = Window{};
  w.latency = HistDelta(latency, window_latency_start_);
  for (const auto& [id, row] : ckpts_) {
    // Only attempts that finished inside the window: an abort after the
    // last commit still belongs to it, a later commit does not.
    if (id >= window_first_ckpt_ && (id <= last_id || !row.committed)) {
      w.checkpoints.push_back(row);
    }
  }
  return w;
}

int64_t UndeliveredAfterGrace(const JobSampler& sampler, int64_t window_end,
                              int64_t grace_ms) {
  const int64_t due = sampler.ScheduledAt(window_end);
  const int64_t deadline = NowNanos() + grace_ms * 1'000'000;
  while (sampler.Delivered() < due && NowNanos() < deadline) SleepMs(5);
  return std::max<int64_t>(0, due - sampler.Delivered());
}

// --- Tracing ---------------------------------------------------------------

void EnableTracing(uint32_t query_every) {
  sq::trace::TraceConfig config;
  config.enabled = true;
  config.sample_every = {1, query_every, 1, 1, 0, 1, 1};
  sq::trace::SetConfig(config);
}

void DisableTracing() {
  sq::trace::TraceConfig config;
  config.enabled = false;
  sq::trace::SetConfig(config);
}

void RecordBenchSpan(const char* name, int64_t start, int64_t end,
                     std::optional<uint64_t> engine_trace) {
  if (!sq::trace::CategoryEnabled(sq::trace::Category::kOther)) return;
  std::vector<sq::trace::Attr> attrs;
  if (engine_trace.has_value()) attrs.emplace_back("trace_id", *engine_trace);
  sq::trace::RecordSpan(sq::trace::Category::kOther, name,
                        sq::trace::RootContext(sq::trace::NewTraceId()), start,
                        end, std::move(attrs));
}

namespace {

void MergeOutcome(const Report& window, Report* report) {
  report->attempted += window.attempted;
  report->failed += window.failed;
  if (!window.correct) report->Mismatch(window.mismatch);
  report->notes.insert(report->notes.end(), window.notes.begin(),
                       window.notes.end());
}

}  // namespace

void RunWindows(const Args& args, const std::string& primary,
                bool higher_is_better, uint32_t query_every,
                const std::function<void(Report*)>& window, Report* report) {
  Report untraced;
  window(&untraced);
  MergeOutcome(untraced, report);
  for (const auto& [name, m] : untraced.e2e) report->e2e[name] = m;
  if (!args.trace || !report->correct) return;

  Report traced;
  const int64_t dropped_before = sq::trace::DroppedSpans();
  EnableTracing(query_every);
  const int64_t start = NowNanos();
  window(&traced);
  DisableTracing();
  FoldSpans(start, dropped_before, &traced);
  if (traced.layers["trace.dropped_spans"] > 0) {
    traced.notes.push_back("the span journal dropped spans: layer numbers "
                           "of this run are incomplete");
  }
  MergeOutcome(traced, report);
  report->layers = traced.layers;
  for (const auto& [name, m] : untraced.e2e) {
    report->layers["e2e." + name] = m.value;
  }
  const double base = untraced.e2e[primary].value;
  const double with = traced.e2e[primary].value;
  report->layers["trace.overhead_pct"] =
      base == 0 ? 0.0
                : (higher_is_better ? base - with : with - base) / base * 100;
}

// --- Host facts ------------------------------------------------------------

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string HostFactsJson() {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"cxx_flags\": \"%s\"}",
                std::thread::hardware_concurrency(),
                JsonEscape(CpuModel()).c_str(), SQB_BUILD_TYPE,
                JsonEscape("g++ " __VERSION__).c_str(),
                JsonEscape(SQB_CXX_FLAGS).c_str());
  return buf;
}

void MedianSetupSeconds(int n, const std::function<std::string()>& setup,
                        Report* report) {
  Samples seconds;
  for (int i = 0; i < n; ++i) {
    const int64_t t0 = NowNanos();
    const std::string error = setup();
    if (!error.empty()) {
      report->Mismatch("set-up: " + error);
      return;
    }
    seconds.Add(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  report->Set("setup_s", seconds.Percentile(50), "s", seconds.count());
}

void PrintReportJson(const Args& args, const Report& report) {
  std::string out = "{\"workload\": \"" + args.workload + "\", ";
  out += "\"seed\": " + std::to_string(args.seed) + ", ";
  out += "\"trace\": " + std::string(args.trace ? "true" : "false") + ", ";
  out += "\"correct\": " + std::string(report.correct ? "true" : "false") +
         ", ";
  out += "\"mismatch\": \"" + JsonEscape(report.mismatch) + "\", ";
  out += "\"attempted\": " + std::to_string(report.attempted) + ", ";
  out += "\"failed\": " + std::to_string(report.failed) + ", ";
  out += "\"host\": " + HostFactsJson() + ", ";
  char num[64];
  out += "\"e2e\": {";
  bool first = true;
  for (const auto& [name, m] : report.e2e) {
    std::snprintf(num, sizeof(num), "%.9g", m.value);
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           num + ", \"unit\": \"" + m.unit + "\", \"n\": " +
           std::to_string(m.n) + "}";
    first = false;
  }
  out += "}, \"layers\": {";
  first = true;
  for (const auto& [name, v] : report.layers) {
    std::snprintf(num, sizeof(num), "%.9g", std::isfinite(v) ? v : 0.0);
    out += std::string(first ? "" : ", ") + "\"" + name + "\": " + num;
    first = false;
  }
  out += "}, \"notes\": [";
  first = true;
  for (const std::string& note : report.notes) {
    out += std::string(first ? "" : ", ") + "\"" + JsonEscape(note) + "\"";
    first = false;
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace sqb
