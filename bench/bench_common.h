#ifndef SQUERY_BENCH_BENCH_COMMON_H_
#define SQUERY_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "dataflow/checkpoint.h"
#include "dataflow/execution.h"
#include "dh/delivery.h"
#include "kv/grid.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"
#include "storage/durable_listener.h"
#include "storage/snapshot_log.h"

namespace sq::bench {

/// Environment knob: SQ_BENCH_SCALE scales run durations / key counts down
/// (e.g. SQ_BENCH_SCALE=0.2 for a quick smoke run). Default 1.0.
inline double BenchScale() {
  const char* env = std::getenv("SQ_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

/// Ends a run that cannot produce valid numbers: prints what failed and
/// why, then exits 1 at once. Reports are written only after the last
/// measurement, so a failed run leaves no BENCH_*.json behind. `_Exit`
/// skips static destructors, which job and query threads may still use.
[[noreturn]] inline void Fail(const char* what, const Status& status) {
  std::fflush(stdout);
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::_Exit(1);
}

inline void Check(const Status& status, const char* what) {
  if (!status.ok()) Fail(what, status);
}

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) Fail(what, result.status());
  return std::move(result).value();
}

/// Polls `done` until it holds. Fails the run if `job` stops first or the
/// wait outlasts two minutes, so a dead job cannot leave a bench spinning.
inline void WaitFor(const dataflow::Job& job, const char* what,
                    const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (!done()) {
    if (!job.IsRunning()) Fail(what, Status::Aborted("the job stopped"));
    if (std::chrono::steady_clock::now() > deadline) {
      Fail(what, Status::Timeout("no progress within two minutes"));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// A JSON value of a bench report, held as its rendered text. Strings are
/// escaped and a non-finite number renders as null. An object holding an
/// object or array puts each member on its own line; an array always does.
class Json {
 public:
  using Member = std::pair<std::string, Json>;

  Json(bool v) : text_(v ? "true" : "false") {}
  Json(std::integral auto v) : text_(std::to_string(v)) {}
  Json(std::floating_point auto v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(v));
    text_ = std::isfinite(v) ? buf : "null";
  }
  Json(const char* v) : text_(Quote(v)) {}
  Json(const std::string& v) : text_(Quote(v)) {}

  static Json Object(const std::vector<Member>& members) {
    bool multiline = false;
    for (const Member& m : members) multiline |= m.second.nested_;
    std::string out = "{";
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out += ",";
      out += multiline ? "\n  " : (i > 0 ? " " : "");
      out += Quote(members[i].first) + ": " + Indent(members[i].second.text_);
    }
    return Json(Nested{}, out + (multiline ? "\n}" : "}"));
  }

  static Json Array(const std::vector<Json>& items) {
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
      out += (i > 0 ? ",\n  " : "\n  ") + Indent(items[i].text_);
    }
    return Json(Nested{}, out + (items.empty() ? "]" : "\n]"));
  }

  const std::string& text() const { return text_; }

 private:
  struct Nested {};
  Json(Nested, std::string text) : text_(std::move(text)), nested_(true) {}

  static std::string Quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  static std::string Indent(const std::string& text) {
    std::string out;
    for (const char c : text) {
      out += c;
      if (c == '\n') out += "  ";
    }
    return out;
  }

  std::string text_;
  bool nested_ = false;
};

/// The machine and build a report came from, under the field names
/// sqbench's reports use (nproc, cpu, build_type, compiler, cxx_flags).
inline Json HostFacts() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(std::min(line.size(), colon + 2));
      break;
    }
  }
#if defined(__clang__)
  const char* compiler = "clang++ " __VERSION__;
#else
  const char* compiler = "g++ " __VERSION__;
#endif
  return Json::Object({{"nproc", std::thread::hardware_concurrency()},
                       {"cpu", cpu},
                       {"build_type", BENCH_BUILD_TYPE},
                       {"compiler", compiler},
                       {"cxx_flags", BENCH_CXX_FLAGS}});
}

/// Writes BENCH_<name>.json: the host block, then `sections`. Every bench
/// report goes through here, each written whole by one binary.
inline void WriteReport(const std::string& name,
                        std::vector<Json::Member> sections) {
  sections.insert(sections.begin(), {"host", HostFacts()});
  const std::string path = "BENCH_" + name + ".json";
  const std::string text = Json::Object(sections).text() + "\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fail(path.c_str(), Status::Internal(std::strerror(errno)));
  const bool written = std::fputs(text.c_str(), f) >= 0;
  if (std::fclose(f) != 0 || !written) {
    Fail(path.c_str(), Status::Internal("write failed"));
  }
  std::printf("\nwrote %s\n", path.c_str());
}

inline void PrintHeader(const std::string& figure,
                        const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("================================================================\n");
}

/// Prints one latency series in the paper's percentile axis
/// (0/50/90/99/99.9/99.99) in milliseconds.
inline void PrintLatencyRow(const std::string& label,
                            const Histogram& histogram) {
  const Histogram::Summary s = histogram.Summarize();
  std::printf(
      "%-28s n=%-9lld p0=%8.3f p50=%8.3f p90=%8.3f p99=%8.3f "
      "p99.9=%8.3f p99.99=%8.3f max=%8.3f (ms)\n",
      label.c_str(), static_cast<long long>(s.count),
      static_cast<double>(s.p0) / 1e6, static_cast<double>(s.p50) / 1e6,
      static_cast<double>(s.p90) / 1e6, static_cast<double>(s.p99) / 1e6,
      static_cast<double>(s.p999) / 1e6,
      static_cast<double>(s.p9999) / 1e6, static_cast<double>(s.max) / 1e6);
}

/// A running Delivery Hero ingestion pipeline with S-QUERY (or plain) state,
/// lingering after the bounded stream so checkpoints and queries hit a
/// settled state of exactly `num_orders` keys per operator.
struct DeliveryHarness {
  std::unique_ptr<kv::Grid> grid;
  std::unique_ptr<state::SnapshotRegistry> registry;
  // Durable-snapshot chain (populated only when a durable dir is given).
  std::unique_ptr<storage::SnapshotLog> log;
  std::unique_ptr<storage::DurableSnapshotListener> durable_listener;
  dataflow::CheckpointListenerChain listener_chain;
  std::unique_ptr<dataflow::Job> job;
  state::SQueryStateStats stats;
  MetricsRegistry metrics;  // job instrumentation (checkpoint phase timings)

  ~DeliveryHarness() {
    if (job != nullptr) {
      (void)job->Stop();
    }
  }
};

/// Starts the DH job with `num_orders` unique keys and waits until the
/// state is populated. `squery` toggles the queryable state backend vs the
/// plain in-memory one; `incremental` selects delta snapshots.
/// `checkpoint_interval_ms` = 0 means checkpoints are triggered manually.
/// With `churn_rate` > 0 the sources keep updating state at that rate
/// (events/s per source) instead of lingering idle — keeps per-checkpoint
/// deltas non-empty for the incremental-snapshot experiments.
/// A non-empty `durable_dir` opens a snapshot log there and chains a
/// DurableSnapshotListener ahead of the registry, so every checkpoint is
/// fsynced to disk (the recovery benchmark's durability-on configuration).
inline std::unique_ptr<DeliveryHarness> StartDeliveryHarness(
    int64_t num_orders, bool squery, bool incremental,
    int64_t checkpoint_interval_ms, double churn_rate = 0.0,
    int retained_versions = 2, const std::string& durable_dir = "",
    dataflow::CheckpointMode checkpoint_mode =
        dataflow::CheckpointMode::kAligned) {
  auto harness = std::make_unique<DeliveryHarness>();
  harness->grid = std::make_unique<kv::Grid>(
      kv::GridConfig{.node_count = 3, .partition_count = 24,
                     .backup_count = 0});
  harness->registry = std::make_unique<state::SnapshotRegistry>(
      harness->grid.get(),
      state::SnapshotRegistry::Options{.retained_versions = retained_versions,
                                       .async_prune = true});

  dh::DeliveryConfig config;
  config.num_orders = num_orders;
  config.num_riders = std::max<int64_t>(num_orders / 10, 16);
  if (churn_rate > 0.0) {
    config.total_events = -1;
    config.target_rate = churn_rate;
    config.cycle_states = true;  // keep a mix of order states forever
  } else {
    config.total_events = num_orders * 3;  // settle orders mid state machine
    config.linger = true;
  }
  dataflow::JobGraph graph =
      dh::BuildDeliveryGraph(config, /*operator_parallelism=*/2, nullptr);

  dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = checkpoint_interval_ms;
  job_config.checkpoint_mode = checkpoint_mode;
  job_config.partitioner = &harness->grid->partitioner();
  if (!durable_dir.empty()) {
    harness->log = Check(storage::SnapshotLog::Open(storage::StorageOptions{
                             .dir = durable_dir, .metrics = &harness->metrics}),
                         "snapshot log open");
    harness->durable_listener =
        std::make_unique<storage::DurableSnapshotListener>(
            harness->grid.get(), harness->log.get());
    harness->listener_chain.Add(harness->durable_listener.get());
    harness->listener_chain.Add(harness->registry.get());
    job_config.listener = &harness->listener_chain;
  } else {
    job_config.listener = harness->registry.get();
  }
  job_config.metrics = &harness->metrics;
  if (squery) {
    state::SQueryConfig state_config;
    state_config.incremental = incremental;
    state_config.parallelism = 2;
    job_config.state_store_factory = state::MakeSQueryStateStoreFactory(
        harness->grid.get(), state_config, &harness->stats);
  }
  harness->job =
      Check(dataflow::Job::Create(graph, std::move(job_config)), "job create");
  Check(harness->job->Start(), "job start");
  const int64_t warm_target =
      config.total_events > 0 ? config.total_events : num_orders;
  const dataflow::Job& job = *harness->job;
  WaitFor(job, "warm-up", [&] {
    return job.ProcessedCount(dh::kOrderStateVertex) >= warm_target;
  });
  return harness;
}

}  // namespace sq::bench

#endif  // SQUERY_BENCH_BENCH_COMMON_H_
