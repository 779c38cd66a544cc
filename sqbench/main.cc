// sqbench: one workload of the repository benchmark per invocation.
//
//   sqbench --workload ingest|query|mixed|cluster --seed N --seconds S
//           [--trace 0|1]
//
// Prints a human-readable report and, as its last line, one JSON object
// (see PrintReportJson) that run.py turns into the benchmark result. Exits
// nonzero on bad arguments or when an output did not match its reference.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, sqb::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

void PrintHuman(const sqb::Args& args, const sqb::Report& report) {
  std::printf("workload %s, seed %llu, %.1f s window, tracing %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? "on (second window)" : "off");
  std::printf("host %s\n", sqb::HostFactsJson().c_str());
  for (const auto& [name, m] : report.e2e) {
    std::printf("  %-26s %14.4f %-8s n=%lld\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.n));
  }
  const double ratio =
      report.attempted == 0
          ? 0.0
          : static_cast<double>(report.failed) /
                static_cast<double>(report.attempted);
  std::printf("  %-26s %14.6f %-8s n=%lld\n", "ops_failed_ratio", ratio,
              "ratio", static_cast<long long>(report.attempted));
  for (const auto& [name, v] : report.layers) {
    std::printf("  %-44s %14.4f\n", name.c_str(), v);
  }
  for (const std::string& note : report.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  if (!report.correct) {
    std::printf("MISMATCH: %s\n", report.mismatch.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  sqb::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sqbench --workload ingest|query|mixed|cluster "
                 "--seed N --seconds S [--trace 0|1]\n");
    return 2;
  }
  // Tracing is on by default in the engine; the end-to-end numbers are
  // measured with it off, and only the traced window turns it back on.
  sqb::DisableTracing();

  sqb::Report report;
  if (args.workload == "ingest") {
    report = sqb::RunIngest(args);
  } else if (args.workload == "query") {
    report = sqb::RunQuery(args);
  } else if (args.workload == "mixed") {
    report = sqb::RunMixed(args);
  } else if (args.workload == "cluster") {
    report = sqb::RunCluster(args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // A workload may have taken it earlier, before a phase it leaves out.
  if (report.e2e.count("peak_rss_mb") == 0) {
    report.Set("peak_rss_mb", sqb::PeakRssMb(), "MB", 1);
  }
  PrintHuman(args, report);
  sqb::PrintReportJson(args, report);
  return report.correct ? 0 : 1;
}
