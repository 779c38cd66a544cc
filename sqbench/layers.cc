// Per-layer numbers: registry deltas over a window, sampled job state, and
// the span journal of a traced window.

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "common/metric_names.h"

namespace sqb {

namespace mn = sq::metric_names;

namespace {

/// event_latency_p50_ms and event_latency_p99_ms as the medians of the
/// window's per-second p50s and p99s.
void FoldEventLatency(const JobSampler::Window& w, Report* report) {
  // A window shorter than a second has no complete second: pool it.
  const bool pooled = w.latency_p50_per_second.count() == 0;
  const double p50 = pooled ? HistPercentile(w.latency, 50)
                            : w.latency_p50_per_second.Percentile(50);
  const double p99 = pooled ? HistPercentile(w.latency, 99)
                            : w.latency_p99_per_second.Percentile(50);
  report->Set("event_latency_p50_ms", p50 / 1e6, "ms", w.latency.count);
  report->Set("event_latency_p99_ms", p99 / 1e6, "ms", w.latency.count);
}

void FoldDataflow(const JobSampler::Window& w, double rate,
                  const std::vector<sq::dataflow::OperatorStats>& ops_before,
                  const std::vector<sq::dataflow::OperatorStats>& ops_after,
                  const MetricsSnapshot& after, const MetricsSnapshot& before,
                  Report* report) {
  auto& l = report->layers;
  // p99 of the schedule backlog above the warm-up baseline, in milliseconds
  // of schedule at the workload's rate.
  const double lag_events = std::max(
      0.0, w.lag_events.Percentile(99) - static_cast<double>(w.lag_baseline));
  l["dataflow.source_lag_ms"] = rate > 0 ? lag_events / rate * 1e3 : 0.0;
  l["dataflow.channel_depth_p99"] =
      HistPercentile(after.Hist(before, mn::kDataflowChannelDepth), 99);

  std::map<std::string, int64_t> records_before;
  for (const sq::dataflow::OperatorStats& s : ops_before) {
    records_before[s.vertex] += s.records_in;
  }
  std::map<std::string, int64_t> records;
  std::map<std::string, std::pair<int64_t, int64_t>> latency;  // slowest instance
  for (const sq::dataflow::OperatorStats& s : ops_after) {
    records[s.vertex] += s.records_in;
    auto& lat = latency[s.vertex];
    lat.first = std::max(lat.first, s.p50_nanos);
    lat.second = std::max(lat.second, s.p99_nanos);
  }
  for (const auto& [vertex, n] : records) {
    if (n == 0) continue;  // sources consume nothing and are never timed
    l["dataflow.records_in." + vertex] =
        static_cast<double>(n - records_before[vertex]);
    l["dataflow.op_p50_us." + vertex] =
        static_cast<double>(latency[vertex].first) / 1e3;
    l["dataflow.op_p99_us." + vertex] =
        static_cast<double>(latency[vertex].second) / 1e3;
  }
  for (const auto& [vertex, f] : w.full) {
    if (records[vertex] == 0) continue;
    l["dataflow.queue_full_share." + vertex] =
        f.second == 0 ? 0.0
                      : static_cast<double>(f.first) /
                            static_cast<double>(f.second);
  }
}

void FoldCheckpoints(const std::vector<sq::dataflow::CheckpointRow>& rows,
                     const MetricsSnapshot& after,
                     const MetricsSnapshot& before, Report* report) {
  Samples two_pc;
  Samples phase1;
  Samples commit;
  int64_t aborted = 0;
  for (const sq::dataflow::CheckpointRow& row : rows) {
    if (!row.committed) {
      ++aborted;
      continue;
    }
    two_pc.Add(static_cast<double>(row.phase2_nanos));
    phase1.Add(static_cast<double>(row.phase1_nanos));
    commit.Add(static_cast<double>(row.phase2_nanos - row.phase1_nanos));
  }
  // p90, not p99: a window holds a few hundred checkpoints, so p90 is the
  // highest percentile with at least ten samples beyond it.
  report->SetLatency("checkpoint", two_pc, 90, "ms");
  report->attempted += static_cast<int64_t>(rows.size());
  report->failed += aborted;

  auto& l = report->layers;
  const sq::Histogram::State align =
      after.Hist(before, mn::kCheckpointAlignNanos);
  l["checkpoint.align_ms_p50"] = HistPercentile(align, 50) / 1e6;
  l["checkpoint.align_ms_p99"] = HistPercentile(align, 99) / 1e6;
  l["checkpoint.phase1_ms_p50"] = phase1.Percentile(50) / 1e6;
  l["checkpoint.commit_ms_p50"] = commit.Percentile(50) / 1e6;
  l["checkpoint.committed"] = static_cast<double>(two_pc.count());
  l["checkpoint.aborted"] = static_cast<double>(aborted);
}

void FoldStateAndStorage(const MetricsSnapshot& after,
                         const MetricsSnapshot& before, int64_t checkpoints,
                         Report* report) {
  const double per = static_cast<double>(std::max<int64_t>(1, checkpoints));
  auto& l = report->layers;
  l["state.snapshot_entries_per_ckpt"] =
      static_cast<double>(after.Delta(before, mn::kStateSnapshotEntries)) / per;
  l["state.snapshot_bytes_per_ckpt"] =
      static_cast<double>(after.Delta(before, mn::kStateSnapshotBytes)) / per;
  l["state.delta_ratio_pct"] =
      HistMean(after.Hist(before, mn::kStateSnapshotDeltaRatioPct));
  l["state.pruned_entries"] =
      static_cast<double>(after.Delta(before, mn::kStatePrunedEntries));
  l["storage.bytes_per_ckpt"] =
      static_cast<double>(after.Delta(before, mn::kStoragePersistedBytes)) /
      per;
  const sq::Histogram::State fsync = after.Hist(before, mn::kStorageFsyncNanos);
  l["storage.fsync_ms_p50"] = HistPercentile(fsync, 50) / 1e6;
  l["storage.fsync_ms_p99"] = HistPercentile(fsync, 99) / 1e6;
}

}  // namespace

void MeasureJobWindow(sq::dataflow::Job* job,
                      const sq::MetricsRegistry& metrics, JobSampler* sampler,
                      const std::function<void()>& body, Report* report) {
  const MetricsSnapshot before = MetricsSnapshot::Take(metrics);
  const auto ops_before = job->CollectOperatorStats();
  sampler->BeginWindow();
  const int64_t t0 = NowNanos();
  body();
  const int64_t t1 = NowNanos();
  const JobSampler::Window w = sampler->EndWindow();
  const MetricsSnapshot after = MetricsSnapshot::Take(metrics);
  const auto ops_after = job->CollectOperatorStats();

  FoldEventLatency(w, report);
  report->attempted += sampler->ScheduledAt(t1) - sampler->ScheduledAt(t0);
  report->failed += UndeliveredAfterGrace(*sampler, t1, /*grace_ms=*/1000);
  FoldCheckpoints(w.checkpoints, after, before, report);
  FoldDataflow(w, sampler->rate(), ops_before, ops_after, after, before,
               report);
  FoldStateAndStorage(after, before,
                      static_cast<int64_t>(w.checkpoints.size()), report);
  if (w.checkpoints.size() < 100) {
    report->notes.push_back("only " + std::to_string(w.checkpoints.size()) +
                            " checkpoints in the window (want >= 100)");
  }
}

void SqlCounts::Add(const SqlCounts& o) {
  queries += o.queries;
  rows_scanned += o.rows_scanned;
  rows_returned += o.rows_returned;
  batch_rows += o.batch_rows;
  vectorized += o.vectorized;
}

void FoldSqlCounts(const SqlCounts& c, Report* report) {
  const double q = static_cast<double>(std::max<int64_t>(1, c.queries));
  auto& l = report->layers;
  l["sql.queries"] = static_cast<double>(c.queries);
  l["sql.rows_scanned_per_query"] = static_cast<double>(c.rows_scanned) / q;
  l["sql.rows_returned_per_query"] = static_cast<double>(c.rows_returned) / q;
  l["sql.batch_rows_per_query"] = static_cast<double>(c.batch_rows) / q;
  l["sql.vectorized_share"] = static_cast<double>(c.vectorized) / q;
}

// --- Spans -----------------------------------------------------------------

namespace {

using sq::trace::TraceSpan;

/// Nanoseconds of [span.start, span.end] covered by the union of `others`.
int64_t Covered(const TraceSpan& span, const std::vector<const TraceSpan*>& others) {
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const TraceSpan* o : others) {
    if (o == &span) continue;
    const int64_t b = std::max(o->start_nanos, span.start_nanos);
    const int64_t e = std::min(o->end_nanos, span.end_nanos);
    if (e > b) iv.emplace_back(b, e);
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur_b = 0;
  int64_t cur_e = -1;
  for (const auto& [b, e] : iv) {
    if (b > cur_e) {
      if (cur_e > cur_b) covered += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_b) covered += cur_e - cur_b;
  return covered;
}

/// The engine trace id a bench span carries: none for a direct-object call
/// (the engine records no tree for it), 0 for a SQL call the engine sampled
/// out.
std::optional<uint64_t> LinkedTrace(const TraceSpan& span) {
  for (const sq::trace::Attr& a : span.attrs) {
    if (std::string(a.key) == "trace_id") return std::stoull(a.value);
  }
  return std::nullopt;
}

}  // namespace

void FoldSpans(int64_t window_start, int64_t dropped_before, Report* report) {
  const std::vector<TraceSpan> journal = sq::trace::SnapshotSpans();
  std::vector<const TraceSpan*> spans;
  for (const TraceSpan& s : journal) {
    if (s.start_nanos >= window_start) spans.push_back(&s);
  }
  std::unordered_map<uint64_t, std::vector<const TraceSpan*>> children;
  std::unordered_map<uint64_t, std::vector<const TraceSpan*>> by_trace;
  for (const TraceSpan* s : spans) {
    children[s->parent_id].push_back(s);
    by_trace[s->trace_id].push_back(s);
  }
  auto self_nanos = [&](const TraceSpan& s) {
    auto it = children.find(s.span_id);
    return s.duration_nanos() -
           (it == children.end() ? 0 : Covered(s, it->second));
  };

  struct Agg {
    int64_t count = 0;
    int64_t total = 0;
    int64_t self = 0;
    Samples self_samples;  // sql spans only
  };
  std::map<std::string, Agg> by_name;
  Samples bench_query_self;
  Samples bench_lookup_self;
  Samples rpcs_per_query_call;
  Samples rpcs_per_lookup_call;
  for (const TraceSpan* s : spans) {
    const std::string name = s->name;
    Agg& a = by_name[name];
    ++a.count;
    a.total += s->duration_nanos();
    a.self += self_nanos(*s);
    if (name == kBenchQuery || name == kBenchLookup) {
      // The bench span's own share: its duration minus every engine span
      // of the call's own trace (ssid resolution, source opening and result
      // building are what is left). A SQL call the engine sampled out has
      // no tree to subtract and is skipped; a direct-object lookup has no
      // engine root at all.
      const std::optional<uint64_t> linked = LinkedTrace(*s);
      std::vector<const TraceSpan*> engine;
      if (linked.has_value()) {
        auto it = by_trace.find(*linked);
        if (*linked == 0 || it == by_trace.end()) continue;
        engine = it->second;
      }
      const bool is_query = name == kBenchQuery;
      (is_query ? bench_query_self : bench_lookup_self)
          .Add(static_cast<double>(s->duration_nanos() - Covered(*s, engine)));
      if (linked.has_value()) {
        (is_query ? rpcs_per_query_call : rpcs_per_lookup_call)
            .Add(static_cast<double>(std::count_if(
                engine.begin(), engine.end(), [](const TraceSpan* e) {
                  return std::string(e->name) == "rpc.call";
                })));
      }
    }
  }

  // sql spans count only inside complete query trees: when the engine
  // samples a query root out, inner spans can still start trees of their
  // own, which would inflate the per-query numbers.
  std::map<std::string, Agg> sql;
  int64_t queries = 0;
  for (const TraceSpan* root : spans) {
    if (root->parent_id != 0 || std::string(root->name) != "query") continue;
    ++queries;
    for (const TraceSpan* s : by_trace[root->trace_id]) {
      Agg& a = sql[s->name];
      const int64_t self = self_nanos(*s);
      ++a.count;
      a.self += self;
      a.self_samples.Add(static_cast<double>(self));
    }
  }
  auto& l = report->layers;
  const double per_query = static_cast<double>(std::max<int64_t>(1, queries));
  l["sql.traced_queries"] = static_cast<double>(queries);
  for (const char* name : {"parse", "plan", "scan", "partition_scan",
                           "partition_aggregate", "join", "filter",
                           "aggregate", "merge", "sort_limit"}) {
    l[std::string("sql.") + name + "_self_us_per_query"] =
        static_cast<double>(sql[name].self) / per_query / 1e3;
  }
  l["sql.partition_scan_self_us_p99"] =
      sql["partition_scan"].self_samples.Percentile(99) / 1e3;
  l["sql.partition_scans_per_query"] =
      static_cast<double>(sql["partition_scan"].count) / per_query;
  // On `cluster` the bench's SQL calls are the scans: rpcs per scan is the
  // count one request per node instead of one per partition would cut.
  l["net.rpcs_per_scan"] = rpcs_per_query_call.Mean();
  l["net.rpcs_per_lookup"] = rpcs_per_lookup_call.Mean();

  l["query.bench_self_us"] = bench_query_self.Mean() / 1e3;
  l["query.lookup_self_us"] = bench_lookup_self.Mean() / 1e3;

  l["kv.lock_wait_ms_total"] =
      static_cast<double>(by_name["lock_wait"].total) / 1e6;
  l["kv.lock_wait_count"] = static_cast<double>(by_name["lock_wait"].count);

  const double ckpts =
      std::max<double>(1.0, static_cast<double>(by_name["checkpoint"].count));
  l["checkpoint.capture_self_ms_per_ckpt"] =
      static_cast<double>(by_name["phase1_capture"].self) / ckpts / 1e6;
  auto mean_ms = [&](const char* name) {
    const Agg& a = by_name[name];
    return a.count == 0 ? 0.0
                        : static_cast<double>(a.total) /
                              static_cast<double>(a.count) / 1e6;
  };
  l["state.prune_ms"] = mean_ms("prune");
  l["storage.log_append_ms"] = mean_ms("log_append");
  l["storage.log_commit_ms"] = mean_ms("log_commit");
  l["storage.compaction_ms"] = mean_ms("compaction");

  l["trace.spans"] = static_cast<double>(spans.size());
  l["trace.dropped_spans"] =
      static_cast<double>(sq::trace::DroppedSpans() - dropped_before);
}

}  // namespace sqb
