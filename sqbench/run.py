#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 sqbench/run.py --workload ingest|query|mixed|cluster|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the sqbench binary from the sources in
this checkout (sqbench/CMakeLists.txt, engine sources under src/) into
$CARGO_TARGET_DIR or .bench_build, runs one workload, prints the binary's
report, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. `--workload all` runs every workload
in turn (a human-readable report; its last line merges their outcomes).
Exits nonzero, printing no result, when the build fails or an output does
not match its reference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["ingest", "query", "mixed", "cluster"]

# BENCHMARK.json gates the same end-to-end slots on every workload; each
# workload fills a slot with its own named metric (README.md lists why).
SLOTS = {
    "ingest": {
        "lat_p50_ms": "event_latency_p50_ms",
        "lat_tail_ms": "event_latency_p99_ms",
        "side_p50_ms": "checkpoint_p50_ms",
        "rate_per_s": "ingest_max_eps",
    },
    "query": {
        "lat_p50_ms": "join_query_p50_ms",
        "lat_tail_ms": "join_query_p90_ms",
        "side_p50_ms": "scan_query_p50_ms",
        "rate_per_s": "query_qps",
    },
    "mixed": {
        "lat_p50_ms": "checkpoint_p50_ms",
        "lat_tail_ms": "checkpoint_p90_ms",
        "side_p50_ms": "join_query_p50_ms",
        "rate_per_s": "query_qps",
    },
    "cluster": {
        "lat_p50_ms": "scan_query_p50_ms",
        "lat_tail_ms": "scan_query_p90_ms",
        "side_p50_ms": "lookup_p50_us",
        "rate_per_s": "query_qps",
    },
}


def fail(message):
    print("sqbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds sqbench; returns the binary's path."""
    if not os.path.isfile(os.path.join("src", "common", "status.h")):
        fail("run from the repository root (engine sources not found)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "sqbench")
    binary = os.path.join(build_dir, "sqbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", "4", "--target", "sqbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return binary


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its report (the binary's last line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail(workload + ": no report (exit code %d)" % done.returncode)
    report = json.loads(lines[-1])
    if done.returncode != 0 or not report["correct"]:
        fail("%s: output mismatch: %s" % (workload, report["mismatch"]))
    return report


def metric_specs():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def result_metrics(workload, report, trace):
    end_to_end, per_layer = metric_specs()
    metrics = {}
    if trace:
        # Layers a workload does not exercise read 0.
        for m in per_layer:
            value = report["layers"].get(m["name"], 0.0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        return metrics
    e2e = report["e2e"]
    for m in end_to_end:
        source = SLOTS[workload].get(m["name"], m["name"])
        value = e2e[source]["value"]
        if source.endswith("_us") and m["unit"] == "ms":
            value /= 1000.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        report = run_workload(binary, workload, args.seed, args.seconds,
                              args.trace == 1)
        attempted += report["attempted"]
        failed += report["failed"]
        metrics = result_metrics(workload, report, args.trace == 1)
        if args.workload == "all":
            for name, m in sorted(metrics.items()):
                print("%-8s %-44s %16.6f %s" % (workload, name, m["value"],
                                                m["unit"]))
    if args.workload == "all":
        metrics = {}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
