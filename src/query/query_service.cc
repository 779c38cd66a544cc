#include "query/query_service.h"

#include <cctype>
#include <cstdio>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/metric_names.h"
#include "dataflow/execution.h"
#include "kv/columnar.h"
#include "sql/parser.h"
#include "sql/scan_source.h"
#include "state/squery_state_store.h"
#include "storage/snapshot_log.h"
#include "trace/trace.h"

namespace sq::query {

namespace {

constexpr std::string_view kSnapshotPrefix = "snapshot_";
constexpr std::string_view kVersionsSuffix = "__versions";

bool IsSnapshotTableName(std::string_view name) {
  return name.substr(0, kSnapshotPrefix.size()) == kSnapshotPrefix;
}

bool HasVersionsSuffix(std::string_view name) {
  return name.size() > kVersionsSuffix.size() &&
         name.substr(name.size() - kVersionsSuffix.size()) ==
             kVersionsSuffix;
}

// Metric-name fragment for an isolation level: lowercased, spaces collapsed
// to '_' ("read committed*" -> "read_committed").
std::string IsolationSlug(state::IsolationLevel level) {
  std::string slug;
  for (char c : std::string_view(state::IsolationLevelToString(level))) {
    slug.push_back(c == ' ' ? '_'
                            : static_cast<char>(std::tolower(
                                  static_cast<unsigned char>(c))));
  }
  return slug;
}

/// BatchReader over one prebuilt columnar view: yields it once, then ends.
class SingleBatchReader : public sql::BatchReader {
 public:
  explicit SingleBatchReader(sql::ScanBatch batch)
      : batch_(std::move(batch)) {}

  Result<bool> NextBatch(sql::ScanBatch* out) override {
    if (done_) return false;
    done_ = true;
    if (batch_.rows == nullptr) return false;
    *out = std::move(batch_);
    return true;
  }

 private:
  sql::ScanBatch batch_;
  bool done_ = false;
};

/// Partition-addressable scan over a live map. Live scans carry no ssid
/// column; point lookups go through the key-level locks, exactly like the
/// direct object interface.
class LiveTableSource : public sql::TableSource {
 public:
  explicit LiveTableSource(const kv::LiveMap* live) : live_(live) {}

  int32_t partition_count() const override {
    return live_->partition_count();
  }

  Status ScanPartition(int32_t partition, const RowFn& fn) const override {
    live_->ForEachInPartition(
        partition, [&fn](const kv::Value& key, const kv::Object& value) {
          fn(key, /*ssid=*/nullptr, value);
        });
    return Status::OK();
  }

  Status ScanKeys(const std::vector<kv::Value>& keys,
                  const RowFn& fn) const override {
    for (const kv::Value& key : keys) {
      if (auto value = live_->Get(key); value.has_value()) {
        fn(key, /*ssid=*/nullptr, *value);
      }
    }
    return Status::OK();
  }

  int32_t PartitionOfKey(const kv::Value& key) const override {
    return live_->partitioner().PartitionOf(key);
  }

  std::unique_ptr<sql::BatchReader> OpenBatchReader(
      int32_t partition) const override {
    // Live maps have no maintained columnar view (they mutate per record);
    // the batch is built here, under the same partition iteration the row
    // scan uses, so both engines see identical rows in identical order.
    auto batch = std::make_shared<kv::ColumnBatch>();
    live_->ForEachInPartition(
        partition, [&batch](const kv::Value& key, const kv::Object& value) {
          batch->AppendRow(key, /*ssid=*/0, value);
        });
    return std::make_unique<SingleBatchReader>(
        sql::ScanBatch{std::move(batch), std::nullopt});
  }

  bool SupportsBatches() const override { return true; }

 private:
  const kv::LiveMap* live_;
};

/// Partition-addressable scan of the reconstructed snapshot view at one
/// resolved version. Every row reports the *resolved* ssid (not the possibly
/// older entry that supplied the value), matching the materializing scan.
class SnapshotTableSource : public sql::TableSource {
 public:
  SnapshotTableSource(const kv::SnapshotTable* snap, int64_t ssid)
      : snap_(snap), ssid_(ssid), ssid_value_(ssid) {}

  int32_t partition_count() const override {
    return snap_->partition_count();
  }

  Status ScanPartition(int32_t partition, const RowFn& fn) const override {
    snap_->ScanPartitionAt(
        partition, ssid_,
        [this, &fn](const kv::Value& key, int64_t /*entry_ssid*/,
                    const kv::Object& value) { fn(key, &ssid_value_, value); });
    return Status::OK();
  }

  Status ScanKeys(const std::vector<kv::Value>& keys,
                  const RowFn& fn) const override {
    for (const kv::Value& key : keys) {
      if (auto value = snap_->GetAt(key, ssid_); value.has_value()) {
        fn(key, &ssid_value_, *value);
      }
    }
    return Status::OK();
  }

  int32_t PartitionOfKey(const kv::Value& key) const override {
    return snap_->partitioner().PartitionOf(key);
  }

  std::unique_ptr<sql::BatchReader> OpenBatchReader(
      int32_t partition) const override {
    // The incrementally maintained columnar view of this partition at the
    // resolved version (cached across queries; see SnapshotTable).
    std::shared_ptr<const kv::ColumnBatch> view =
        snap_->ColumnarPartitionAt(partition, ssid_);
    if (view == nullptr) return nullptr;
    return std::make_unique<SingleBatchReader>(
        sql::ScanBatch{std::move(view), ssid_value_});
  }

  bool SupportsBatches() const override { return true; }

 private:
  const kv::SnapshotTable* snap_;
  const int64_t ssid_;
  const kv::Value ssid_value_;
};

/// Partition-addressable scan of `snapshot_<op>__versions`: one reconstructed
/// view per retained version, the `ssid` column telling versions apart. The
/// version list is pinned at open so every partition scans the same set.
class VersionsTableSource : public sql::TableSource {
 public:
  VersionsTableSource(const kv::SnapshotTable* snap,
                      std::vector<int64_t> versions)
      : snap_(snap) {
    version_values_.reserve(versions.size());
    for (int64_t version : versions) {
      version_values_.emplace_back(version);
    }
  }

  int32_t partition_count() const override {
    return snap_->partition_count();
  }

  Status ScanPartition(int32_t partition, const RowFn& fn) const override {
    for (const kv::Value& version : version_values_) {
      snap_->ScanPartitionAt(
          partition, version.int64_value(),
          [&fn, &version](const kv::Value& key, int64_t /*entry_ssid*/,
                          const kv::Object& value) {
            fn(key, &version, value);
          });
    }
    return Status::OK();
  }

  Status ScanKeys(const std::vector<kv::Value>& keys,
                  const RowFn& fn) const override {
    // Keys outermost, versions innermost: the order the cluster's scattered
    // lookups are replayed in, so both paths agree row for row.
    for (const kv::Value& key : keys) {
      for (const kv::Value& version : version_values_) {
        if (auto value = snap_->GetAt(key, version.int64_value());
            value.has_value()) {
          fn(key, &version, *value);
        }
      }
    }
    return Status::OK();
  }

  int32_t PartitionOfKey(const kv::Value& key) const override {
    return snap_->partitioner().PartitionOf(key);
  }

  std::unique_ptr<sql::BatchReader> OpenBatchReader(
      int32_t partition) const override {
    // One batch per retained version, in pinned version order — the same
    // (version-major, key order) sequence the row scan emits.
    class Reader : public sql::BatchReader {
     public:
      Reader(const kv::SnapshotTable* snap, int32_t partition,
             const std::vector<kv::Value>* versions)
          : snap_(snap), partition_(partition), versions_(versions) {}

      Result<bool> NextBatch(sql::ScanBatch* out) override {
        while (next_ < versions_->size()) {
          const kv::Value& version = (*versions_)[next_++];
          std::shared_ptr<const kv::ColumnBatch> view =
              snap_->ColumnarPartitionAt(partition_, version.int64_value());
          if (view == nullptr || view->row_count() == 0) continue;
          *out = sql::ScanBatch{std::move(view), version};
          return true;
        }
        return false;
      }

     private:
      const kv::SnapshotTable* snap_;
      const int32_t partition_;
      const std::vector<kv::Value>* versions_;  // owned by the source
      size_t next_ = 0;
    };
    return std::make_unique<Reader>(snap_, partition, &version_values_);
  }

  bool SupportsBatches() const override { return true; }

 private:
  const kv::SnapshotTable* snap_;
  std::vector<kv::Value> version_values_;
};

/// Binds per-call options to the resolver interface so concurrent Execute
/// calls do not share mutable state.
class BoundResolver : public sql::TableResolver {
 public:
  BoundResolver(QueryService* service, const QueryOptions& options)
      : service_(service), options_(options) {}

  Result<std::unique_ptr<sql::TableSource>> OpenTableSource(
      const std::string& table,
      std::optional<int64_t> requested_ssid) override {
    return service_->OpenTableSource(table, requested_ssid, options_);
  }

 private:
  QueryService* service_;
  QueryOptions options_;
};

/// One `plan` row per line (the shape EXPLAIN returns).
sql::ResultSet PlanResultSet(std::vector<std::string> lines) {
  sql::ResultSet rs;
  rs.columns = {"plan"};
  rs.rows.reserve(lines.size());
  for (std::string& line : lines) {
    rs.rows.push_back({kv::Value(std::move(line))});
  }
  return rs;
}

std::string FormatMicros(int64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(nanos) / 1e3);
  return buf;
}

/// The measured-timings tail of EXPLAIN ANALYZE: this query's recorded spans
/// as an indented tree with durations and attributes, capped so a wide
/// fan-out cannot flood the result.
void AppendSpanTimings(uint64_t trace_id, std::vector<std::string>* lines) {
  std::vector<trace::TraceSpan> spans;
  for (trace::TraceSpan& s : trace::SnapshotSpans()) {
    if (s.trace_id == trace_id) spans.push_back(std::move(s));
  }
  lines->push_back("Trace: " + std::to_string(spans.size()) +
                   " spans (trace_id=" + std::to_string(trace_id) + ")");
  // sq-lint: unordered-ok(lookup-only depth walk; output follows spans vec)
  std::unordered_map<uint64_t, const trace::TraceSpan*> by_id;
  for (const trace::TraceSpan& s : spans) by_id[s.span_id] = &s;
  constexpr size_t kMaxLines = 16;
  size_t shown = 0;
  for (const trace::TraceSpan& s : spans) {
    if (shown == kMaxLines) {
      lines->push_back("  ... +" + std::to_string(spans.size() - shown) +
                       " more spans (see __spans)");
      break;
    }
    int depth = 1;
    for (const trace::TraceSpan* p = &s;
         p->parent_id != 0 && depth < 8;) {
      auto it = by_id.find(p->parent_id);
      if (it == by_id.end()) break;
      p = it->second;
      ++depth;
    }
    std::string line(static_cast<size_t>(depth) * 2, ' ');
    line += s.name;
    line += ": ";
    line += FormatMicros(s.duration_nanos());
    line += " us";
    for (const trace::Attr& attr : s.attrs) {
      line += " ";
      line += attr.key;
      line += "=";
      line += attr.value;
    }
    lines->push_back(std::move(line));
    ++shown;
  }
}

/// The system tables a coordinator federates cluster-wide. Everything else
/// (`__nodes`, embedder-registered tables) stays local: `__nodes` already
/// describes the whole cluster, and the coordinator cannot know an embedder
/// table's merge semantics.
bool IsFederatedSystemTable(std::string_view table) {
  return table == "__metrics" || table == "__operators" ||
         table == "__checkpoints" || table == "__spans";
}

/// Rebuilds the percentile columns of remote `__metrics` histogram rows from
/// the raw bucket state that travelled with them. The percentile columns a
/// remote node computed are advisory — the federation rule (DESIGN.md §11)
/// is that bucket counts cross processes and percentile math happens where
/// the rows are consumed, so percentiles are never merged or relayed.
void RebuildHistogramColumns(RemoteSystemTable* fetch) {
  for (kv::Object& row : fetch->rows) {
    const kv::Value& kind = row.Get("kind");
    if (!kind.is_string() || kind.string_value() != "histogram") continue;
    const kv::Value& name = row.Get("name");
    if (!name.is_string()) continue;
    const Histogram::State* state = nullptr;
    for (const auto& [hist_name, hist_state] : fetch->histograms) {
      if (hist_name == name.string_value()) {
        state = &hist_state;
        break;
      }
    }
    if (state == nullptr) continue;
    Histogram h;
    h.MergeState(*state);
    const Histogram::Summary s = h.Summarize();
    row.Set("value", kv::Value(s.count));
    row.Set("count", kv::Value(s.count));
    row.Set("mean", kv::Value(s.mean));
    row.Set("p50", kv::Value(s.p50));
    row.Set("p90", kv::Value(s.p90));
    row.Set("p99", kv::Value(s.p99));
    row.Set("p999", kv::Value(s.p999));
    row.Set("max", kv::Value(s.max));
  }
}

int64_t RowInt(const kv::Object& row, std::string_view column) {
  const kv::Value& v = row.Get(column);
  return v.is_int64() ? v.int64_value() : 0;
}

std::string RowString(const kv::Object& row, std::string_view column) {
  const kv::Value& v = row.Get(column);
  return v.is_string() ? v.string_value() : std::string();
}

/// A federated `__spans` row as a merged-export span (origin-clock times;
/// the exporter applies the process offset).
trace::MergedSpan RowToMergedSpan(const kv::Object& row) {
  trace::MergedSpan s;
  s.trace_id = static_cast<uint64_t>(RowInt(row, "trace_id"));
  s.span_id = static_cast<uint64_t>(RowInt(row, "span_id"));
  s.parent_id = static_cast<uint64_t>(RowInt(row, "parent_id"));
  s.category = RowString(row, "category");
  s.name = RowString(row, "name");
  s.start_micros = RowInt(row, "start_micros");
  s.duration_nanos = RowInt(row, "duration_nanos");
  s.tid = static_cast<int32_t>(RowInt(row, "thread"));
  if (std::string attrs = RowString(row, "attrs"); !attrs.empty()) {
    s.attrs.emplace_back("attrs", std::move(attrs));
  }
  return s;
}

trace::MergedSpan LocalToMergedSpan(const trace::TraceSpan& span) {
  trace::MergedSpan s;
  s.trace_id = span.trace_id;
  s.span_id = span.span_id;
  s.parent_id = span.parent_id;
  s.category = trace::CategoryToString(span.category);
  s.name = span.name;
  s.start_micros = SteadyToUnixMicros(span.start_nanos);
  s.duration_nanos = span.duration_nanos();
  s.tid = span.tid;
  for (const trace::Attr& attr : span.attrs) {
    s.attrs.emplace_back(attr.key, attr.value);
  }
  return s;
}

}  // namespace

QueryService::QueryService(kv::Grid* grid, state::SnapshotRegistry* registry,
                           Clock* clock, MetricsRegistry* metrics)
    : grid_(grid),
      registry_(registry),
      clock_(clock != nullptr ? clock : SystemClock::Default()),
      metrics_(metrics) {
  // The span journal as a table: every retained span, engine-wide. Rows are
  // computed at scan time (`SELECT * FROM __spans WHERE category = ...`).
  catalog_.RegisterVirtualTable(
      "__spans", [this]() -> Result<std::vector<kv::Object>> {
        const int64_t node = node_id();
        std::vector<kv::Object> rows;
        for (const trace::TraceSpan& s : trace::SnapshotSpans()) {
          kv::Object row;
          const std::string key = std::to_string(s.trace_id) + "/" +
                                  std::to_string(s.span_id);
          row.Set("key", kv::Value(key));
          row.Set("partitionKey", kv::Value(key));
          row.Set("node", kv::Value(node));
          row.Set("trace_id", kv::Value(static_cast<int64_t>(s.trace_id)));
          row.Set("span_id", kv::Value(static_cast<int64_t>(s.span_id)));
          row.Set("parent_id", kv::Value(static_cast<int64_t>(s.parent_id)));
          row.Set("category",
                  kv::Value(std::string(trace::CategoryToString(s.category))));
          row.Set("name", kv::Value(std::string(s.name)));
          row.Set("start_nanos", kv::Value(s.start_nanos));
          row.Set("duration_nanos", kv::Value(s.duration_nanos()));
          row.Set("start_micros", kv::Value(SteadyToUnixMicros(s.start_nanos)));
          row.Set("thread", kv::Value(static_cast<int64_t>(s.tid)));
          std::string attrs;
          for (const trace::Attr& attr : s.attrs) {
            if (!attrs.empty()) attrs += " ";
            attrs += attr.key;
            attrs += "=";
            attrs += attr.value;
          }
          row.Set("attrs", kv::Value(std::move(attrs)));
          rows.push_back(std::move(row));
        }
        return rows;
      });
  // The cluster health registry. Registered unconditionally so the table
  // always exists (dashboards need not special-case single-node); without an
  // attached router it is simply empty.
  catalog_.RegisterVirtualTable(
      "__nodes", [this]() -> Result<std::vector<kv::Object>> {
        ClusterRouter* cluster = cluster_.load(std::memory_order_acquire);
        if (cluster == nullptr) return std::vector<kv::Object>{};
        return cluster->NodeHealthRows();
      });
}

ThreadPool* QueryService::Pool() {
  std::call_once(pool_once_,
                 [this] { pool_ = std::make_unique<ThreadPool>(); });
  return pool_.get();
}

Result<sql::ResultSet> QueryService::Execute(const std::string& sql,
                                             const QueryOptions& options) {
  SQ_ASSIGN_OR_RETURN(QueryResult qr, ExecuteWithStats(sql, options));
  return std::move(qr.result);
}

Result<QueryResult> QueryService::ExecuteWithStats(
    const std::string& sql, const QueryOptions& options) {
  const int64_t start_nanos = clock_->NowNanos();
  BoundResolver resolver(this, options);
  sql::ExecOptions exec_options;
  exec_options.local_timestamp_micros = UnixMicros();
  exec_options.enable_pushdown = options.pushdown;
  exec_options.enable_vectorized = !options.force_row_scan;
  sql::ExecStats stats;
  exec_options.stats = &stats;
  if (options.parallelism != 1) {
    // The pool is shared across queries; each scan is capped separately.
    exec_options.pool = Pool();
    exec_options.parallelism = options.parallelism <= 0
                                   ? exec_options.pool->thread_count()
                                   : options.parallelism;
  }

  QueryResult out;
  Result<sql::ResultSet> result = [&]() -> Result<sql::ResultSet> {
    const int64_t parse_t0 = trace::NowNanos();
    SQ_ASSIGN_OR_RETURN(sql::ParsedStatement parsed,
                        sql::ParseStatement(sql));
    const int64_t parse_t1 = trace::NowNanos();
    if (parsed.explain && !parsed.analyze) {
      // Plan only: probe the resolver for the scan strategy, execute nothing.
      SQ_ASSIGN_OR_RETURN(
          std::vector<std::string> lines,
          sql::ExplainPlanLines(*parsed.select, &resolver, exec_options));
      return PlanResultSet(std::move(lines));
    }

    // Root span of this query's trace. EXPLAIN ANALYZE forces recording
    // regardless of sampling so its timing tail is never empty.
    uint64_t trace_id = trace::NewTraceId();
    Result<sql::ResultSet> exec = [&]() -> Result<sql::ResultSet> {
      trace::ScopedSpan query_span(
          trace::Category::kQuery, "query",
          trace::RootContext(trace_id, /*forced=*/parsed.analyze));
      if (!query_span.recording()) trace_id = 0;
      query_span.AddAttr("isolation",
                         state::IsolationLevelToString(options.isolation));
      trace::RecordSpan(trace::Category::kQuery, "parse",
                        query_span.context(), parse_t0, parse_t1);
      Result<sql::ResultSet> r =
          sql::ExecuteSelect(*parsed.select, &resolver, exec_options);
      if (!r.ok()) query_span.AddAttr("error", true);
      return r;
    }();  // query_span closed: the full tree is recorded now.
    out.trace_id = trace_id;
    if (!parsed.analyze) return exec;
    SQ_RETURN_IF_ERROR(exec.status());

    SQ_ASSIGN_OR_RETURN(
        std::vector<std::string> lines,
        sql::ExplainPlanLines(*parsed.select, &resolver, exec_options));
    std::string execution =
        "Execution: " + std::to_string(exec->rows.size()) + " rows, scanned " +
        std::to_string(stats.rows_scanned) + ", returned " +
        std::to_string(stats.rows_returned) + ", partitions " +
        std::to_string(stats.partitions_scanned) + ", parallelism " +
        std::to_string(stats.parallelism);
    if (stats.used_vectorized) {
      execution += ", engine vectorized (" +
                   std::to_string(stats.batches_scanned) + " batches, " +
                   std::to_string(stats.batch_rows) + " rows)";
    } else {
      execution += ", engine row";
    }
    lines.push_back(std::move(execution));
    AppendSpanTimings(trace_id, &lines);
    return PlanResultSet(std::move(lines));
  }();
  if (metrics_ != nullptr) {
    metrics_->GetCounter(metric_names::kQueryCount)->Increment();
    if (!result.ok()) metrics_->GetCounter(metric_names::kQueryErrors)->Increment();
    metrics_
        ->GetHistogram(std::string(metric_names::kQueryLatencyNanosPrefix) +
                       IsolationSlug(options.isolation))
        ->Record(clock_->NowNanos() - start_nanos);
    metrics_->GetCounter(metric_names::kQueryRowsScanned)->Increment(stats.rows_scanned);
    metrics_->GetCounter(metric_names::kQueryRowsReturned)
        ->Increment(stats.rows_returned);
    if (stats.used_pushdown) {
      metrics_->GetCounter(metric_names::kQueryPushdownScans)->Increment();
    }
    if (stats.used_point_lookup) {
      metrics_->GetCounter(metric_names::kQueryPointLookupScans)->Increment();
    }
    if (stats.used_vectorized) {
      metrics_->GetCounter(metric_names::kQueryVectorizedScans)->Increment();
    }
    metrics_->GetCounter(metric_names::kQueryBatchesScanned)
        ->Increment(stats.batches_scanned);
    metrics_->GetCounter(metric_names::kQueryBatchRows)->Increment(stats.batch_rows);
    metrics_->GetHistogram(metric_names::kQueryScanParallelism)
        ->Record(stats.parallelism);
  }
  SQ_RETURN_IF_ERROR(result.status());
  out.result = *std::move(result);
  out.stats = stats;
  return out;
}

void QueryService::RegisterEngineIntrospection(dataflow::Job* job,
                                               MetricsRegistry* metrics) {
  if (metrics == nullptr) metrics = metrics_;
  if (metrics != nullptr) {
    catalog_.RegisterVirtualTable(
        "__metrics", [this, metrics]() -> Result<std::vector<kv::Object>> {
          // `node` is read at scan time so a later set_node_id (cluster
          // join) is reflected without re-registering.
          const int64_t node = node_id();
          std::vector<kv::Object> rows;
          for (const MetricSample& s : metrics->Collect()) {
            kv::Object row;
            row.Set("key", kv::Value(s.name));
            row.Set("partitionKey", kv::Value(s.name));
            row.Set("node", kv::Value(node));
            row.Set("name", kv::Value(s.name));
            row.Set("kind", kv::Value(MetricKindToString(s.kind)));
            row.Set("value", kv::Value(s.value));
            row.Set("count", kv::Value(s.summary.count));
            row.Set("mean", kv::Value(s.summary.mean));
            row.Set("p50", kv::Value(s.summary.p50));
            row.Set("p90", kv::Value(s.summary.p90));
            row.Set("p99", kv::Value(s.summary.p99));
            row.Set("p999", kv::Value(s.summary.p999));
            row.Set("max", kv::Value(s.summary.max));
            rows.push_back(std::move(row));
          }
          return rows;
        });
  }
  if (job != nullptr) {
    catalog_.RegisterVirtualTable(
        "__operators", [this, job]() -> Result<std::vector<kv::Object>> {
          const int64_t node = node_id();
          std::vector<kv::Object> rows;
          for (const dataflow::OperatorStats& s :
               job->CollectOperatorStats()) {
            kv::Object row;
            const kv::Value key(s.vertex + "[" + std::to_string(s.instance) +
                                "]");
            row.Set("key", key);
            row.Set("partitionKey", key);
            row.Set("node", kv::Value(node));
            row.Set("vertex", kv::Value(s.vertex));
            row.Set("instance", kv::Value(static_cast<int64_t>(s.instance)));
            row.Set("worker_id",
                    kv::Value(static_cast<int64_t>(s.worker_id)));
            row.Set("finished", kv::Value(s.finished));
            row.Set("records_in", kv::Value(s.records_in));
            row.Set("records_out", kv::Value(s.records_out));
            row.Set("queue_depth",
                    kv::Value(static_cast<int64_t>(s.queue_depth)));
            row.Set("queue_capacity",
                    kv::Value(static_cast<int64_t>(s.queue_capacity)));
            row.Set("state_entries",
                    kv::Value(static_cast<int64_t>(s.state_entries)));
            row.Set("p50_nanos", kv::Value(s.p50_nanos));
            row.Set("p99_nanos", kv::Value(s.p99_nanos));
            rows.push_back(std::move(row));
          }
          return rows;
        });
    catalog_.RegisterVirtualTable(
        "__checkpoints", [this, job]() -> Result<std::vector<kv::Object>> {
          const int64_t node = node_id();
          std::vector<kv::Object> rows;
          storage::SnapshotLog* log =
              durable_log_.load(std::memory_order_acquire);
          storage::LogStats log_stats;
          if (log != nullptr) log_stats = log->Stats();
          for (const dataflow::CheckpointRow& c : job->RecentCheckpoints()) {
            kv::Object row;
            // Column is `id`, not `ssid`: an `ssid = n` WHERE conjunct would
            // be captured by the executor's snapshot-pinning logic instead
            // of filtering rows.
            row.Set("key", kv::Value(c.id));
            row.Set("partitionKey", kv::Value(c.id));
            row.Set("node", kv::Value(node));
            row.Set("id", kv::Value(c.id));
            row.Set("state", kv::Value(c.committed ? "committed" : "aborted"));
            row.Set("committed", kv::Value(c.committed));
            row.Set("mode",
                    kv::Value(dataflow::CheckpointModeToString(c.mode)));
            row.Set("overtaken_records", kv::Value(c.overtaken_records));
            row.Set("phase1_nanos", kv::Value(c.phase1_nanos));
            row.Set("phase2_nanos", kv::Value(c.phase2_nanos));
            row.Set("started_micros", kv::Value(c.started_unix_micros));
            if (log != nullptr) {
              row.Set("durable", kv::Value(log->IsDurable(c.id)));
              row.Set("persisted_bytes",
                      kv::Value(log->PersistedBytes(c.id)));
              row.Set("segments", kv::Value(log_stats.segments));
              row.Set("fsync_p99_nanos",
                      kv::Value(log_stats.fsync_p99_nanos));
            }
            rows.push_back(std::move(row));
          }
          return rows;
        });
  }
}

Result<std::vector<kv::Object>> QueryService::ScanSystemObjects(
    const std::string& table) {
  return catalog_.ScanVirtualTable(table);
}

void QueryService::AppendFederatedRows(ClusterRouter* router,
                                       const std::string& table,
                                       std::vector<kv::Object>* rows) {
  trace::ScopedSpan span(trace::Category::kQuery, "federate",
                         trace::CurrentContext());
  span.AddAttr("table", table);
  int64_t reached = 0;
  int64_t skipped = 0;
  // Merge order is deterministic: local rows are already in `rows`, remote
  // rows follow in ascending node-id order. Each fetch is bounded by the
  // router's RPC deadline; a node that cannot answer is skipped — the
  // result degrades to the reachable subset (why is visible in `__nodes`)
  // rather than erroring or hanging the whole scan.
  for (int32_t node : router->RemoteNodeIds()) {
    Result<RemoteSystemTable> fetch = router->FetchSystemTable(table, node);
    if (!fetch.ok()) {
      ++skipped;
      continue;
    }
    ++reached;
    if (table == "__metrics" && !fetch->histograms.empty()) {
      RebuildHistogramColumns(&*fetch);
    }
    for (kv::Object& row : fetch->rows) {
      rows->push_back(std::move(row));
    }
  }
  span.AddAttr("nodes_reached", reached);
  span.AddAttr("nodes_skipped", skipped);
}

Status QueryService::ExportClusterTrace(const std::string& path) {
  std::vector<trace::MergedProcess> processes;
  // The coordinator's own journal defines the timeline (offset 0).
  trace::MergedProcess local;
  local.node = node_id();
  for (const trace::TraceSpan& s : trace::SnapshotSpans()) {
    local.spans.push_back(LocalToMergedSpan(s));
  }
  processes.push_back(std::move(local));
  if (ClusterRouter* cluster = cluster_.load(std::memory_order_acquire);
      cluster != nullptr) {
    for (int32_t node : cluster->RemoteNodeIds()) {
      Result<RemoteSystemTable> fetch =
          cluster->FetchSystemTable("__spans", node);
      if (!fetch.ok()) continue;  // partial export, same degradation rule
      trace::MergedProcess proc;
      proc.node = node;
      proc.clock_offset_micros = fetch->clock_offset_micros;
      proc.spans.reserve(fetch->rows.size());
      for (const kv::Object& row : fetch->rows) {
        proc.spans.push_back(RowToMergedSpan(row));
      }
      processes.push_back(std::move(proc));
    }
  }
  return trace::ExportChromeJsonMerged(path, processes);
}

Result<std::unique_ptr<sql::TableSource>> QueryService::OpenTableSource(
    const std::string& table, std::optional<int64_t> requested_ssid,
    const QueryOptions& options) {
  // System tables first: engine introspection is observational (not stream
  // state), so it is readable at every isolation level. With a cluster
  // attached, the federatable tables merge every reachable node's rows
  // behind the local ones. Rows are computed (and fetched) at scan time.
  if (catalog_.HasVirtualTable(table)) {
    ClusterRouter* cluster = IsFederatedSystemTable(table)
                                 ? cluster_.load(std::memory_order_acquire)
                                 : nullptr;
    return std::unique_ptr<sql::TableSource>(new sql::ScanFnSource(
        [this, table, cluster](const sql::TableSource::RowFn& fn) -> Status {
          SQ_ASSIGN_OR_RETURN(std::vector<kv::Object> rows,
                              catalog_.ScanVirtualTable(table));
          if (cluster != nullptr) AppendFederatedRows(cluster, table, &rows);
          return sql::EmitKeyedRows(rows, fn);
        }));
  }

  const bool snapshot = IsSnapshotTableName(table);
  if (!snapshot && state::ReadsSnapshots(options.isolation)) {
    return Status::InvalidArgument(
        "live table \"" + table + "\" cannot be read at isolation level '" +
        state::IsolationLevelToString(options.isolation) +
        "'; query snapshot_" + table +
        " instead, or lower the isolation level");
  }

  // Cluster-attached: grid tables live on remote nodes, not here.
  if (ClusterRouter* cluster = cluster_.load(std::memory_order_acquire);
      cluster != nullptr) {
    return OpenClusterSource(cluster, table, requested_ssid, options);
  }

  if (!snapshot) {
    kv::LiveMap* live = grid_->GetLiveMap(table);
    if (live == nullptr) {
      return Status::NotFound("no live table named " + table);
    }
    return std::unique_ptr<sql::TableSource>(new LiveTableSource(live));
  }

  const bool all_versions = HasVersionsSuffix(table);
  const std::string base =
      all_versions ? table.substr(0, table.size() - kVersionsSuffix.size())
                   : table;
  kv::SnapshotTable* snap = grid_->GetSnapshotTable(base);
  if (all_versions) {
    if (snap == nullptr) {
      return Status::NotFound("no snapshot table named " + base);
    }
    return std::unique_ptr<sql::TableSource>(
        new VersionsTableSource(snap, registry_->RetainedVersions()));
  }
  Result<int64_t> resolved = ResolveSsid(requested_ssid, options);
  if (resolved.ok() && snap != nullptr) {
    return std::unique_ptr<sql::TableSource>(
        new SnapshotTableSource(snap, *resolved));
  }
  // Time travel beyond the in-memory retention window, or a cold restart
  // before replay (the grid lost the table): the durable log may still hold
  // the snapshot.
  if (std::unique_ptr<sql::TableSource> durable = OpenDurableSource(
          base, resolved,
          requested_ssid.has_value() ? requested_ssid : options.snapshot_id);
      durable != nullptr) {
    return durable;
  }
  SQ_RETURN_IF_ERROR(resolved.status());
  return Status::NotFound("no snapshot table named " + base);
}

std::unique_ptr<sql::TableSource> QueryService::OpenDurableSource(
    const std::string& table, const Result<int64_t>& resolved,
    std::optional<int64_t> explicit_id) {
  storage::SnapshotLog* log = durable_log_.load(std::memory_order_acquire);
  const std::optional<int64_t> id =
      resolved.ok() ? std::optional<int64_t>(*resolved) : explicit_id;
  if (log == nullptr || !id.has_value() || !log->IsDurable(*id)) {
    return nullptr;
  }
  return std::make_unique<sql::ScanFnSource>(
      [this, log, table, ssid = kv::Value(*id)](
          const sql::TableSource::RowFn& fn) -> Status {
        if (metrics_ != nullptr) {
          metrics_->GetCounter(metric_names::kQueryDurableFallbacks)
              ->Increment();
        }
        return log->ScanSnapshot(
            table, ssid.int64_value(),
            [&fn, &ssid](int32_t /*partition*/, const kv::Value& key,
                         int64_t /*entry_ssid*/, const kv::Object& value) {
              fn(key, &ssid, value);
            });
      });
}

Result<std::unique_ptr<sql::TableSource>> QueryService::OpenClusterSource(
    ClusterRouter* router, const std::string& table,
    std::optional<int64_t> requested_ssid, const QueryOptions& options) {
  if (IsSnapshotTableName(table)) {
    if (HasVersionsSuffix(table)) {
      return router->OpenRemoteSource(table, std::nullopt,
                                      /*all_versions=*/true);
    }
    // Resolve once, coordinator-side, so every node serves the same version.
    // The local registry answers when this process participates in
    // checkpoints; a pure client asks the cluster.
    Result<int64_t> resolved = ResolveSsid(requested_ssid, options);
    if (!resolved.ok()) {
      const std::optional<int64_t> wanted =
          requested_ssid.has_value() ? requested_ssid : options.snapshot_id;
      resolved = router->ResolveSsid(wanted);
    }
    SQ_RETURN_IF_ERROR(resolved.status());
    return router->OpenRemoteSource(table, *resolved, /*all_versions=*/false);
  }
  return router->OpenRemoteSource(table, std::nullopt, /*all_versions=*/false);
}

Result<int64_t> QueryService::ResolveSsid(std::optional<int64_t> requested,
                                          const QueryOptions& options) {
  const int64_t start = clock_->NowNanos();
  Result<int64_t> resolved =
      registry_->Resolve(requested.has_value() ? requested
                                               : options.snapshot_id);
  last_resolve_nanos_.store(clock_->NowNanos() - start);
  return resolved;
}

Result<std::vector<std::pair<kv::Value, kv::Object>>>
QueryService::GetLiveObjects(const std::string& operator_name,
                             const std::vector<kv::Value>& keys) {
  kv::LiveMap* live =
      grid_->GetLiveMap(state::LiveTableName(operator_name));
  if (live == nullptr) {
    return Status::NotFound("no live table for operator " + operator_name);
  }
  std::vector<std::pair<kv::Value, kv::Object>> out;
  out.reserve(keys.size());
  for (const kv::Value& key : keys) {
    if (auto value = live->Get(key); value.has_value()) {
      out.emplace_back(key, std::move(*value));
    }
  }
  return out;
}

Result<std::vector<std::pair<kv::Value, kv::Object>>>
QueryService::GetSnapshotObjects(const std::string& operator_name,
                                 const std::vector<kv::Value>& keys,
                                 std::optional<int64_t> ssid) {
  const std::string table = state::SnapshotTableName(operator_name);
  kv::SnapshotTable* snap = grid_->GetSnapshotTable(table);
  Result<int64_t> resolved = ResolveSsid(ssid, QueryOptions{});
  std::vector<std::pair<kv::Value, kv::Object>> out;
  if (resolved.ok() && snap != nullptr) {
    out.reserve(keys.size());
    for (const kv::Value& key : keys) {
      if (auto value = snap->GetAt(key, *resolved); value.has_value()) {
        out.emplace_back(key, std::move(*value));
      }
    }
    return out;
  }
  // Same fall-through as SQL scans: an id outside the in-memory window (or
  // a lost table) is served from the durable log if present there.
  std::unique_ptr<sql::TableSource> durable =
      OpenDurableSource(table, resolved, ssid);
  if (durable == nullptr) {
    SQ_RETURN_IF_ERROR(resolved.status());
    return Status::NotFound("no snapshot table for operator " +
                            operator_name);
  }
  SQ_RETURN_IF_ERROR(durable->ScanKeys(
      keys, [&out](const kv::Value& key, const kv::Value* /*ssid*/,
                   const kv::Object& value) { out.emplace_back(key, value); }));
  return out;
}

Result<std::vector<std::pair<kv::Value, kv::Object>>>
QueryService::ScanLiveObjects(const std::string& operator_name) {
  kv::LiveMap* live =
      grid_->GetLiveMap(state::LiveTableName(operator_name));
  if (live == nullptr) {
    return Status::NotFound("no live table for operator " + operator_name);
  }
  std::vector<std::pair<kv::Value, kv::Object>> out;
  live->ForEach([&out](const kv::Value& key, const kv::Object& value) {
    out.emplace_back(key, value);
  });
  return out;
}

}  // namespace sq::query
