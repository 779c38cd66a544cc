#include "sql/executor.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "kv/columnar.h"
#include "sql/aggregate.h"
#include "sql/eval.h"
#include "sql/group_table.h"
#include "sql/parser.h"
#include "sql/plan.h"
#include "sql/vectorized.h"
#include "trace/trace.h"

namespace sq::sql {

namespace {

using kv::Object;
using kv::Value;

/// Collects `ssid = <int literal>` equality conjuncts from the WHERE tree:
/// unqualified ones apply to every snapshot table; `t.ssid = n` applies to
/// table (alias) `t`. Only top-level AND conjuncts are considered — an OR
/// over ssids is not a version pin.
void CollectSsidFilters(const Expr* where,
                        std::map<std::string, int64_t>* per_table,
                        std::optional<int64_t>* global) {
  if (where == nullptr) return;
  if (where->kind == ExprKind::kBinary &&
      where->binary_op == BinaryOp::kAnd) {
    CollectSsidFilters(where->children[0].get(), per_table, global);
    CollectSsidFilters(where->children[1].get(), per_table, global);
    return;
  }
  if (where->kind != ExprKind::kBinary ||
      where->binary_op != BinaryOp::kEq) {
    return;
  }
  const Expr* lhs = where->children[0].get();
  const Expr* rhs = where->children[1].get();
  if (lhs->kind != ExprKind::kColumnRef) std::swap(lhs, rhs);
  if (lhs->kind != ExprKind::kColumnRef ||
      rhs->kind != ExprKind::kLiteral || !rhs->literal.is_int64()) {
    return;
  }
  if (lhs->column != "ssid") return;
  if (lhs->table.empty()) {
    *global = rhs->literal.int64_value();
  } else {
    (*per_table)[lhs->table] = rhs->literal.int64_value();
  }
}

/// Merges a joined tuple: right-side fields are added; on a name conflict
/// the left value wins and the right value is preserved under
/// "<right alias>.<field>".
Object MergeTuples(const Object& left, const Object& right,
                   const std::string& right_name) {
  Object out = left;
  for (const auto& [name, value] : right.fields()) {
    if (out.Has(name)) {
      out.Set(right_name + "." + name, value);
    } else {
      out.Set(name, value);
    }
  }
  return out;
}

struct AggregateSpec {
  const Expr* call = nullptr;  // points into the statement
  std::string id;              // canonical text, used as substitution key
};

/// Finds all aggregate calls in an expression tree.
void CollectAggregates(const Expr* expr, std::vector<AggregateSpec>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kFuncCall && IsAggregateFunction(expr->column)) {
    const std::string id = expr->ToString();
    for (const auto& spec : *out) {
      if (spec.id == id) return;
    }
    out->push_back(AggregateSpec{expr, id});
    return;  // aggregates do not nest
  }
  for (const auto& child : expr->children) {
    CollectAggregates(child.get(), out);
  }
}

/// Evaluates an expression where aggregate subtrees are replaced by their
/// precomputed values (keyed by canonical text).
Result<Value> EvalWithAggregates(
    const Expr& expr, const Object& tuple,
    // sq-lint: unordered-ok(lookup-only; never iterated, no order leaks)
    const std::unordered_map<std::string, Value>& agg_values,
    const EvalContext& ctx) {
  if (expr.kind == ExprKind::kFuncCall && IsAggregateFunction(expr.column)) {
    auto it = agg_values.find(expr.ToString());
    if (it == agg_values.end()) {
      return Status::Internal("aggregate not precomputed: " +
                              expr.ToString());
    }
    return it->second;
  }
  if (expr.children.empty()) {
    return EvalScalar(expr, tuple, ctx);
  }
  // Rebuild the node with aggregate children replaced by literals, then
  // evaluate normally.
  auto clone = expr.Clone();
  for (auto& child : clone->children) {
    SQ_ASSIGN_OR_RETURN(Value v,
                        EvalWithAggregates(*child, tuple, agg_values, ctx));
    child = Expr::MakeLiteral(std::move(v));
  }
  // All children are now literals; EvalScalar handles the rest.
  return EvalScalar(*clone, tuple, ctx);
}

/// Folds one row into `table`: evaluates the group key and every aggregate
/// argument against the (possibly unmaterialized) row. `materialize` is
/// called once, on the first row of a new group.
template <typename TupleT, typename MaterializeFn>
Status AccumulateRow(const SelectStatement& stmt,
                     const std::vector<AggregateSpec>& aggregates,
                     const TupleT& row, const MaterializeFn& materialize,
                     const EvalContext& ctx, GroupTable* table) {
  std::vector<Value> key;
  key.reserve(stmt.group_by.size());
  for (const auto& expr : stmt.group_by) {
    SQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*expr, row, ctx));
    key.push_back(std::move(v));
  }
  auto [it, inserted] = table->index.try_emplace(key, table->groups.size());
  if (inserted) {
    GroupData group;
    group.key = std::move(key);
    group.representative = materialize();
    group.aggs.resize(aggregates.size());
    table->groups.push_back(std::move(group));
  }
  GroupData& group = table->groups[it->second];
  static const Value kCountStarArg(int64_t{1});
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const Expr& call = *aggregates[a].call;
    if (call.star || call.children.empty()) {
      SQ_RETURN_IF_ERROR(
          AccumulateAggregate(call, kCountStarArg, &group.aggs[a]));
      continue;
    }
    SQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*call.children[0], row, ctx));
    SQ_RETURN_IF_ERROR(AccumulateAggregate(call, v, &group.aggs[a]));
  }
  return Status::OK();
}

/// Merges per-partition group tables into `dst` in partition order, so
/// representatives and MIN/MAX ties resolve exactly as a sequential
/// partition-major scan would.
void MergeGroupTables(const std::vector<AggregateSpec>& aggregates,
                      GroupTable&& src, GroupTable* dst) {
  for (GroupData& group : src.groups) {
    auto [it, inserted] = dst->index.try_emplace(group.key,
                                                 dst->groups.size());
    if (inserted) {
      dst->groups.push_back(std::move(group));
      continue;
    }
    GroupData& into = dst->groups[it->second];
    for (size_t a = 0; a < aggregates.size(); ++a) {
      MergeAggregate(*aggregates[a].call, group.aggs[a], &into.aggs[a]);
    }
  }
}

/// Concurrent executors for a fan-out over `partitions`.
int32_t ScanWorkers(const ExecOptions& options, int32_t partitions) {
  if (options.pool == nullptr || options.parallelism <= 1) return 1;
  return std::min(options.parallelism, partitions);
}

/// Runs `task(p)` for every partition, parallel when configured.
void RunPartitioned(const ExecOptions& options, int32_t partitions,
                    int32_t workers, const std::function<void(int32_t)>& task) {
  if (workers > 1) {
    options.pool->ParallelFor(partitions, workers, task);
  } else {
    for (int32_t p = 0; p < partitions; ++p) task(p);
  }
}

/// Per-partition scan outcome shared by the materialize and aggregate scans.
struct PartitionOutcome {
  Status status;
  int64_t scanned = 0;
  int64_t returned = 0;
  int64_t batches = 0;     // columnar batches consumed (0 = row engine)
  int64_t batch_rows = 0;  // rows those batches carried
};

Status FirstError(const std::vector<PartitionOutcome>& outcomes,
                  ExecStats* stats) {
  for (const PartitionOutcome& outcome : outcomes) {
    stats->rows_scanned += outcome.scanned;
    stats->rows_returned += outcome.returned;
    stats->batches_scanned += outcome.batches;
    stats->batch_rows += outcome.batch_rows;
    if (outcome.batches > 0) stats->used_vectorized = true;
    if (!outcome.status.ok()) return outcome.status;
  }
  return Status::OK();
}

/// Drains one partition's batch reader through `consume_batch`. Returns
/// false (leaving the outcome untouched) when the source declines to serve
/// this partition as batches — the caller then streams rows instead.
template <typename BatchConsumer>
bool ScanPartitionBatches(const TableSource& source, int32_t partition,
                          const ExecOptions& options,
                          PartitionOutcome* outcome,
                          const BatchConsumer& consume_batch) {
  if (!options.enable_vectorized) return false;
  std::unique_ptr<BatchReader> reader = source.OpenBatchReader(partition);
  if (reader == nullptr) return false;
  ScanBatch batch;
  while (outcome->status.ok()) {
    Result<bool> more = reader->NextBatch(&batch);
    if (!more.ok()) {
      outcome->status = more.status();
      break;
    }
    if (!*more) break;
    if (batch.rows == nullptr) continue;
    const int64_t rows = static_cast<int64_t>(batch.rows->row_count());
    outcome->scanned += rows;
    ++outcome->batches;
    outcome->batch_rows += rows;
    outcome->status = consume_batch(batch);
    batch = ScanBatch{};
  }
  return true;
}

/// Point-lookup scan (pushed-down key equalities): visits only `keys`,
/// still applying the pushed predicate so the result matches a full scan
/// exactly.
template <typename RowConsumer>
Status ScanByKeys(const TableSource& source, const std::vector<Value>& keys,
                  const CompiledScan& scan, const EvalContext& ctx,
                  ExecStats* stats, const RowConsumer& consume) {
  trace::ScopedSpan span(trace::Category::kQuery, "point_lookup");
  span.AddAttr("keys", static_cast<int64_t>(keys.size()));
  Status status;
  std::set<int32_t> partitions;
  Status scan_status =
      source.ScanKeys(keys, [&](const Value& key, const Value* ssid,
                                const Object& value) {
        if (!status.ok()) return;
        ++stats->rows_scanned;
        partitions.insert(source.PartitionOfKey(key));
        const ScanRowView row{&key, ssid, &value};
        if (scan.has_predicate()) {
          Result<bool> pass = scan.PredicatePasses(row, ctx);
          if (!pass.ok()) {
            status = pass.status();
            return;
          }
          if (!*pass) return;
        }
        ++stats->rows_returned;
        status = consume(row);
      });
  if (status.ok() && !scan_status.ok()) status = std::move(scan_status);
  stats->partitions_scanned += static_cast<int32_t>(partitions.size());
  stats->used_point_lookup = true;
  stats->used_pushdown = stats->used_pushdown || scan.has_predicate();
  return status;
}

/// Partition-parallel materializing scan with predicate/key pushdown. Rows
/// rejected by the pushed predicate are never copied out of the store.
Result<std::vector<Object>> MaterializeFromSource(
    const TableSource& source, const Expr* predicate,
    const std::vector<Value>* keys, const EvalContext& ctx,
    const ExecOptions& options, ExecStats* stats) {
  // Compiled once per scan, shared read-only by all workers: resolves the
  // predicate's column references at plan time instead of per row.
  const CompiledScan scan(predicate, {}, {});
  std::vector<Object> tuples;
  if (keys != nullptr) {
    SQ_RETURN_IF_ERROR(ScanByKeys(
        source, *keys, scan, ctx, stats,
        [&tuples](const ScanRowView& row) {
          tuples.push_back(MaterializeRow(*row.key, row.ssid, *row.value));
          return Status::OK();
        }));
    return tuples;
  }
  const int32_t partitions = source.partition_count();
  const int32_t workers = ScanWorkers(options, partitions);
  std::vector<std::vector<Object>> per_partition(partitions);
  std::vector<PartitionOutcome> outcomes(partitions);
  // Captured before the fan-out: ParallelFor workers have no thread-local
  // scope, so per-partition spans parent on the scan span explicitly.
  const trace::SpanContext scan_ctx = trace::CurrentContext();
  RunPartitioned(options, partitions, workers, [&](int32_t p) {
    const int64_t span_t0 = trace::NowNanos();
    PartitionOutcome& outcome = outcomes[p];
    std::vector<Object>& local = per_partition[p];
    if (ScanPartitionBatches(source, p, options, &outcome,
                             [&](const ScanBatch& batch) {
                               return scan.FilterBatch(batch, ctx, &local,
                                                       &outcome.returned);
                             })) {
      trace::RecordSpan(trace::Category::kQuery, "partition_scan", scan_ctx,
                        span_t0, trace::NowNanos(),
                        {{"partition", p},
                         {"columnar", true},
                         {"scanned", outcome.scanned},
                         {"returned", outcome.returned}});
      return;
    }
    Status scan_status =
        source.ScanPartition(p, [&](const Value& key, const Value* ssid,
                                    const Object& value) {
          if (!outcome.status.ok()) return;
          ++outcome.scanned;
          if (scan.has_predicate()) {
            const ScanRowView row{&key, ssid, &value};
            Result<bool> pass = scan.PredicatePasses(row, ctx);
            if (!pass.ok()) {
              outcome.status = pass.status();
              return;
            }
            if (!*pass) return;
          }
          ++outcome.returned;
          local.push_back(MaterializeRow(key, ssid, value));
        });
    if (outcome.status.ok() && !scan_status.ok()) {
      outcome.status = std::move(scan_status);
    }
    trace::RecordSpan(trace::Category::kQuery, "partition_scan", scan_ctx,
                      span_t0, trace::NowNanos(),
                      {{"partition", p},
                       {"scanned", outcome.scanned},
                       {"returned", outcome.returned}});
  });
  stats->partitions_scanned += partitions;
  stats->parallelism = std::max(stats->parallelism, workers);
  stats->used_pushdown = stats->used_pushdown || predicate != nullptr;
  SQ_RETURN_IF_ERROR(FirstError(outcomes, stats));
  size_t total = 0;
  for (const auto& local : per_partition) total += local.size();
  tuples.reserve(total);
  for (auto& local : per_partition) {
    for (Object& tuple : local) tuples.push_back(std::move(tuple));
  }
  return tuples;
}

/// Fused scan + partial aggregation: each worker filters and folds its
/// partitions into a local group table; partials merge on the coordinating
/// thread. Rows are never materialized (except one representative per
/// group), so full-scan aggregates scale with cores.
Status ScanAggregate(const TableSource& source, const Expr* predicate,
                     const std::vector<Value>* keys,
                     const SelectStatement& stmt,
                     const std::vector<AggregateSpec>& aggregates,
                     const EvalContext& ctx, const ExecOptions& options,
                     ExecStats* stats, GroupTable* out) {
  std::vector<const Expr*> group_by_exprs;
  group_by_exprs.reserve(stmt.group_by.size());
  for (const auto& expr : stmt.group_by) {
    group_by_exprs.push_back(expr.get());
  }
  std::vector<const Expr*> aggregate_calls;
  aggregate_calls.reserve(aggregates.size());
  for (const AggregateSpec& agg : aggregates) {
    aggregate_calls.push_back(agg.call);
  }
  const CompiledScan scan(predicate, group_by_exprs, aggregate_calls);
  if (keys != nullptr) {
    return ScanByKeys(source, *keys, scan, ctx, stats,
                      [&](const ScanRowView& row) {
                        return AccumulateRow(
                            stmt, aggregates, row,
                            [&row] {
                              return MaterializeRow(*row.key, row.ssid,
                                                    *row.value);
                            },
                            ctx, out);
                      });
  }
  const int32_t partitions = source.partition_count();
  const int32_t workers = ScanWorkers(options, partitions);
  std::vector<GroupTable> per_partition(partitions);
  std::vector<PartitionOutcome> outcomes(partitions);
  const trace::SpanContext scan_ctx = trace::CurrentContext();
  RunPartitioned(options, partitions, workers, [&](int32_t p) {
    const int64_t span_t0 = trace::NowNanos();
    PartitionOutcome& outcome = outcomes[p];
    GroupTable& local = per_partition[p];
    if (ScanPartitionBatches(source, p, options, &outcome,
                             [&](const ScanBatch& batch) {
                               return scan.AccumulateBatch(batch, ctx, &local,
                                                           &outcome.returned);
                             })) {
      trace::RecordSpan(trace::Category::kQuery, "partition_aggregate",
                        scan_ctx, span_t0, trace::NowNanos(),
                        {{"partition", p},
                         {"columnar", true},
                         {"scanned", outcome.scanned},
                         {"returned", outcome.returned},
                         {"groups",
                          static_cast<int64_t>(local.groups.size())}});
      return;
    }
    Status scan_status =
        source.ScanPartition(p, [&](const Value& key, const Value* ssid,
                                    const Object& value) {
          if (!outcome.status.ok()) return;
          ++outcome.scanned;
          const ScanRowView row{&key, ssid, &value};
          if (scan.has_predicate()) {
            Result<bool> pass = scan.PredicatePasses(row, ctx);
            if (!pass.ok()) {
              outcome.status = pass.status();
              return;
            }
            if (!*pass) return;
          }
          ++outcome.returned;
          outcome.status = AccumulateRow(
              stmt, aggregates, row,
              [&key, ssid, &value] {
                return MaterializeRow(key, ssid, value);
              },
              ctx, &local);
        });
    if (outcome.status.ok() && !scan_status.ok()) {
      outcome.status = std::move(scan_status);
    }
    trace::RecordSpan(trace::Category::kQuery, "partition_aggregate",
                      scan_ctx, span_t0, trace::NowNanos(),
                      {{"partition", p},
                       {"scanned", outcome.scanned},
                       {"returned", outcome.returned},
                       {"groups", static_cast<int64_t>(local.groups.size())}});
  });
  stats->partitions_scanned += partitions;
  stats->parallelism = std::max(stats->parallelism, workers);
  stats->used_pushdown = stats->used_pushdown || predicate != nullptr;
  SQ_RETURN_IF_ERROR(FirstError(outcomes, stats));
  {
    trace::ScopedSpan merge_span(trace::Category::kQuery, "merge");
    for (GroupTable& local : per_partition) {
      MergeGroupTables(aggregates, std::move(local), out);
    }
    merge_span.AddAttr("groups", static_cast<int64_t>(out->groups.size()));
  }
  return Status::OK();
}

/// Opens one table and copies out every row (a join input).
Result<std::vector<Object>> MaterializeTable(
    TableResolver* resolver, const std::string& table,
    std::optional<int64_t> requested_ssid, const EvalContext& ctx,
    const ExecOptions& options, ExecStats* stats) {
  SQ_ASSIGN_OR_RETURN(std::unique_ptr<TableSource> source,
                      resolver->OpenTableSource(table, requested_ssid));
  return MaterializeFromSource(*source, nullptr, nullptr, ctx, options,
                               stats);
}

}  // namespace

Result<ResultSet> ExecuteSelect(const SelectStatement& stmt,
                                TableResolver* resolver,
                                const ExecOptions& options) {
  EvalContext ctx;
  ctx.local_timestamp_micros = options.local_timestamp_micros;
  ExecStats local_stats;
  ExecStats* stats = options.stats != nullptr ? options.stats : &local_stats;
  *stats = ExecStats{};

  // --- Resolve snapshot-version pins from the WHERE clause.
  std::map<std::string, int64_t> ssid_by_table;
  std::optional<int64_t> global_ssid;
  CollectSsidFilters(stmt.where.get(), &ssid_by_table, &global_ssid);
  auto ssid_for = [&](const TableRef& ref) -> std::optional<int64_t> {
    auto it = ssid_by_table.find(ref.effective_name());
    if (it != ssid_by_table.end()) return it->second;
    return global_ssid;
  };

  // --- Aggregation analysis.
  std::vector<AggregateSpec> aggregates;
  for (const SelectItem& item : stmt.items) {
    CollectAggregates(item.expr.get(), &aggregates);
  }
  for (const auto& [expr, desc] : stmt.order_by) {
    CollectAggregates(expr.get(), &aggregates);
  }
  CollectAggregates(stmt.having.get(), &aggregates);
  const bool aggregating = !aggregates.empty() || !stmt.group_by.empty();
  if (stmt.having != nullptr && !aggregating) {
    return Status::InvalidArgument("HAVING requires aggregation");
  }
  if (aggregating && stmt.select_star) {
    return Status::InvalidArgument("SELECT * cannot be combined with "
                                   "aggregation");
  }

  // --- Pushdown plan (join-free statements only).
  const int64_t plan_t0 = trace::NowNanos();
  const ScanPlan plan = BuildScanPlan(stmt, options.enable_pushdown);
  trace::RecordSpan(trace::Category::kQuery, "plan", trace::CurrentContext(),
                    plan_t0, trace::NowNanos(),
                    {{"pushdown", plan.predicate != nullptr},
                     {"point_lookup", plan.keys.has_value()}});

  // --- Scan + joins. The FROM scan goes through the table's source:
  // partitions fan out over the pool, the pushed-down predicate filters rows
  // before they are copied, and pushed-down key equalities route to point
  // lookups. Aggregating join-free statements fuse the scan with
  // per-partition partial aggregation.
  GroupTable groups;
  std::vector<Object> tuples;
  bool where_applied = false;
  bool partial_aggregated = false;

  {
    trace::ScopedSpan scan_span(trace::Category::kQuery, "scan");
    scan_span.AddAttr("table", stmt.from.name);
    SQ_ASSIGN_OR_RETURN(
        std::unique_ptr<TableSource> source,
        resolver->OpenTableSource(stmt.from.name, ssid_for(stmt.from)));
    const Expr* pushed = plan.predicate;
    const std::vector<Value>* keys =
        plan.keys.has_value() ? &*plan.keys : nullptr;
    scan_span.AddAttr("pushdown", pushed != nullptr);
    scan_span.AddAttr("point_lookup", keys != nullptr);
    if (aggregating && stmt.joins.empty() &&
        (stmt.where == nullptr || pushed != nullptr)) {
      SQ_RETURN_IF_ERROR(ScanAggregate(*source, pushed, keys, stmt,
                                       aggregates, ctx, options, stats,
                                       &groups));
      where_applied = true;
      partial_aggregated = true;
    } else {
      SQ_ASSIGN_OR_RETURN(tuples,
                          MaterializeFromSource(*source, pushed, keys, ctx,
                                                options, stats));
      where_applied = pushed != nullptr;
    }
  }
  for (const JoinClause& join : stmt.joins) {
    trace::ScopedSpan join_span(trace::Category::kQuery, "join");
    join_span.AddAttr("table", join.table.name);
    join_span.AddAttr("using", join.using_column);
    SQ_ASSIGN_OR_RETURN(
        std::vector<Object> right,
        MaterializeTable(resolver, join.table.name, ssid_for(join.table),
                         ctx, options, stats));
    // Build side: hash the (smaller, typically right) input on the USING
    // column; S-QUERY's extension of the IMDG SQL interface (Section VI-A).
    // sq-lint: unordered-ok(probe-only; output order follows the left input)
    std::unordered_map<Value, std::vector<const Object*>, kv::ValueHash>
        index;
    index.reserve(right.size());
    for (const Object& tuple : right) {
      const Value& key = tuple.Get(join.using_column);
      if (key.is_null()) continue;
      index[key].push_back(&tuple);
    }
    std::vector<Object> joined;
    joined.reserve(tuples.size());
    for (const Object& left : tuples) {
      const Value& key = left.Get(join.using_column);
      if (key.is_null()) continue;
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (const Object* match : it->second) {
        joined.push_back(
            MergeTuples(left, *match, join.table.effective_name()));
      }
    }
    tuples = std::move(joined);
  }

  // --- Filter (unless already evaluated inside the scan).
  if (stmt.where != nullptr && !where_applied) {
    trace::ScopedSpan filter_span(trace::Category::kQuery, "filter");
    filter_span.AddAttr("input_rows", static_cast<int64_t>(tuples.size()));
    std::vector<Object> kept;
    kept.reserve(tuples.size());
    for (Object& tuple : tuples) {
      SQ_ASSIGN_OR_RETURN(Value pass, EvalScalar(*stmt.where, tuple, ctx));
      if (pass.Truthy()) kept.push_back(std::move(tuple));
    }
    tuples = std::move(kept);
    filter_span.AddAttr("output_rows", static_cast<int64_t>(tuples.size()));
  }

  // --- Build output column list.
  std::vector<std::string> columns;
  if (stmt.select_star) {
    std::set<std::string> names;
    for (const Object& tuple : tuples) {
      for (const auto& [name, value] : tuple.fields()) {
        names.insert(name);
      }
    }
    columns.assign(names.begin(), names.end());
  } else {
    for (const SelectItem& item : stmt.items) {
      columns.push_back(item.OutputName());
    }
  }

  struct OutRow {
    Row values;
    std::vector<Value> sort_key;
    size_t seq = 0;  // input order, the ORDER BY tiebreak (stability)
  };
  std::vector<OutRow> out_rows;

  auto emit_row = [&](const Object& tuple,
                      // sq-lint: unordered-ok(lookup-only; never iterated)
                      const std::unordered_map<std::string, Value>& aggs)
      -> Status {
    OutRow out;
    if (stmt.select_star) {
      out.values.reserve(columns.size());
      for (const std::string& name : columns) {
        out.values.push_back(tuple.Get(name));
      }
    } else {
      for (const SelectItem& item : stmt.items) {
        SQ_ASSIGN_OR_RETURN(
            Value v, EvalWithAggregates(*item.expr, tuple, aggs, ctx));
        out.values.push_back(std::move(v));
      }
    }
    for (const auto& [expr, desc] : stmt.order_by) {
      // ORDER BY an output alias refers to the projected value; otherwise
      // evaluate against the tuple.
      if (expr->kind == ExprKind::kColumnRef && expr->table.empty()) {
        bool found = false;
        for (size_t c = 0; c < columns.size(); ++c) {
          if (columns[c] == expr->column) {
            out.sort_key.push_back(out.values[c]);
            found = true;
            break;
          }
        }
        if (found) continue;
      }
      SQ_ASSIGN_OR_RETURN(Value v,
                          EvalWithAggregates(*expr, tuple, aggs, ctx));
      out.sort_key.push_back(std::move(v));
    }
    out.seq = out_rows.size();
    out_rows.push_back(std::move(out));
    return Status::OK();
  };

  if (!aggregating) {
    for (const Object& tuple : tuples) {
      SQ_RETURN_IF_ERROR(emit_row(tuple, {}));
    }
  } else {
    trace::ScopedSpan agg_span(trace::Category::kQuery, "aggregate");
    agg_span.AddAttr("fused", partial_aggregated);
    if (!partial_aggregated) {
      for (const Object& tuple : tuples) {
        SQ_RETURN_IF_ERROR(AccumulateRow(
            stmt, aggregates, tuple, [&tuple] { return tuple; }, ctx,
            &groups));
      }
    }
    // An aggregate without GROUP BY yields one row even over no input.
    if (stmt.group_by.empty() && groups.groups.empty()) {
      GroupData empty;
      empty.aggs.resize(aggregates.size());
      groups.groups.push_back(std::move(empty));
    }
    for (GroupData& group : groups.groups) {
      // sq-lint: unordered-ok(lookup-only; rows follow groups vector order)
      std::unordered_map<std::string, Value> agg_values;
      for (size_t a = 0; a < aggregates.size(); ++a) {
        SQ_ASSIGN_OR_RETURN(
            Value v, FinalizeAggregate(*aggregates[a].call, group.aggs[a]));
        agg_values[aggregates[a].id] = std::move(v);
      }
      if (stmt.having != nullptr) {
        SQ_ASSIGN_OR_RETURN(
            Value keep, EvalWithAggregates(*stmt.having, group.representative,
                                           agg_values, ctx));
        if (!keep.Truthy()) continue;
      }
      SQ_RETURN_IF_ERROR(emit_row(group.representative, agg_values));
    }
    agg_span.AddAttr("groups", static_cast<int64_t>(groups.groups.size()));
  }

  // --- DISTINCT.
  if (stmt.distinct) {
    std::set<Row> seen;
    std::vector<OutRow> unique;
    unique.reserve(out_rows.size());
    for (OutRow& row : out_rows) {
      if (seen.insert(row.values).second) {
        unique.push_back(std::move(row));
      }
    }
    out_rows = std::move(unique);
  }

  // --- ORDER BY (+ bounded top-K under LIMIT). The seq tiebreak makes the
  // comparator a total order, so partial_sort/sort reproduce a stable sort.
  const int64_t sort_t0 = trace::NowNanos();
  const size_t sort_input_rows = out_rows.size();
  if (!stmt.order_by.empty()) {
    const auto before = [&stmt](const OutRow& a, const OutRow& b) {
      for (size_t i = 0; i < stmt.order_by.size(); ++i) {
        const bool desc = stmt.order_by[i].second;
        const Value& x = a.sort_key[i];
        const Value& y = b.sort_key[i];
        if (x < y) return !desc;
        if (y < x) return desc;
      }
      return a.seq < b.seq;
    };
    if (stmt.limit >= 0 &&
        static_cast<size_t>(stmt.limit) < out_rows.size()) {
      std::partial_sort(out_rows.begin(),
                        out_rows.begin() + static_cast<size_t>(stmt.limit),
                        out_rows.end(), before);
      out_rows.resize(static_cast<size_t>(stmt.limit));
    } else {
      std::sort(out_rows.begin(), out_rows.end(), before);
    }
  }

  // --- LIMIT.
  if (stmt.limit >= 0 &&
      out_rows.size() > static_cast<size_t>(stmt.limit)) {
    out_rows.resize(static_cast<size_t>(stmt.limit));
  }
  if (!stmt.order_by.empty() || stmt.limit >= 0) {
    trace::RecordSpan(trace::Category::kQuery, "sort_limit",
                      trace::CurrentContext(), sort_t0, trace::NowNanos(),
                      {{"input_rows", static_cast<int64_t>(sort_input_rows)},
                       {"output_rows", static_cast<int64_t>(out_rows.size())}});
  }

  ResultSet result;
  result.columns = std::move(columns);
  result.rows.reserve(out_rows.size());
  for (OutRow& row : out_rows) {
    result.rows.push_back(std::move(row.values));
  }
  return result;
}

Result<ResultSet> ExecuteSql(const std::string& sql, TableResolver* resolver,
                             const ExecOptions& options) {
  SQ_ASSIGN_OR_RETURN(auto stmt, ParseSelect(sql));
  return ExecuteSelect(*stmt, resolver, options);
}

Result<std::vector<std::string>> ExplainPlanLines(
    const SelectStatement& stmt, TableResolver* resolver,
    const ExecOptions& options) {
  std::vector<std::string> lines;

  // Mirror ExecuteSelect's analysis exactly, without scanning anything.
  std::map<std::string, int64_t> ssid_by_table;
  std::optional<int64_t> global_ssid;
  CollectSsidFilters(stmt.where.get(), &ssid_by_table, &global_ssid);
  auto ssid_for = [&](const TableRef& ref) -> std::optional<int64_t> {
    auto it = ssid_by_table.find(ref.effective_name());
    if (it != ssid_by_table.end()) return it->second;
    return global_ssid;
  };

  std::vector<AggregateSpec> aggregates;
  for (const SelectItem& item : stmt.items) {
    CollectAggregates(item.expr.get(), &aggregates);
  }
  for (const auto& [expr, desc] : stmt.order_by) {
    CollectAggregates(expr.get(), &aggregates);
  }
  CollectAggregates(stmt.having.get(), &aggregates);
  const bool aggregating = !aggregates.empty() || !stmt.group_by.empty();

  const ScanPlan plan = BuildScanPlan(stmt, options.enable_pushdown);

  SQ_ASSIGN_OR_RETURN(
      std::unique_ptr<TableSource> source,
      resolver->OpenTableSource(stmt.from.name, ssid_for(stmt.from)));
  const bool pushed = plan.predicate != nullptr;
  const bool point = plan.keys.has_value();
  const bool fused =
      aggregating && stmt.joins.empty() && (stmt.where == nullptr || pushed);

  std::string scan;
  if (point) {
    scan = "Scan: point lookup on " + stmt.from.name + " (" +
           std::to_string(plan.keys->size()) + " keys";
    const size_t shown = std::min<size_t>(plan.keys->size(), 4);
    for (size_t i = 0; i < shown; ++i) {
      scan += i == 0 ? ": " : ", ";
      scan += (*plan.keys)[i].ToString();
    }
    if (plan.keys->size() > shown) scan += ", ...";
    scan += ")";
  } else {
    const int32_t partitions = source->partition_count();
    const int32_t workers = ScanWorkers(options, partitions);
    scan = "Scan: partitioned fan-out over " + stmt.from.name + " (" +
           std::to_string(partitions) + " partitions, " +
           std::to_string(workers) + " workers)";
  }
  if (std::optional<int64_t> pin = ssid_for(stmt.from); pin.has_value()) {
    scan += " @ ssid=" + std::to_string(*pin);
  }
  lines.push_back(std::move(scan));
  if (!point && options.enable_vectorized && source->SupportsBatches()) {
    lines.push_back("  engine: vectorized (columnar batches)");
  }
  if (fused) {
    lines.push_back("  fused per-partition partial aggregation (" +
                    std::to_string(aggregates.size()) + " aggregates)");
  }
  if (pushed) {
    lines.push_back("  pushed filter: " + plan.predicate->ToString());
  }

  for (const JoinClause& join : stmt.joins) {
    lines.push_back("Join: hash join " + join.table.name + " USING (" +
                    join.using_column + ")");
  }
  if (stmt.where != nullptr && !pushed && !point) {
    lines.push_back("Filter: " + stmt.where->ToString());
  }
  if (aggregating) {
    std::string agg = "Aggregate: " + std::to_string(aggregates.size()) +
                      " aggregates";
    if (!stmt.group_by.empty()) {
      agg += ", GROUP BY " + std::to_string(stmt.group_by.size()) + " exprs";
    }
    lines.push_back(std::move(agg));
    if (stmt.having != nullptr) {
      lines.push_back("  HAVING: " + stmt.having->ToString());
    }
  }
  if (stmt.distinct) lines.push_back("Distinct");
  if (!stmt.order_by.empty()) {
    std::string order = "OrderBy: " + std::to_string(stmt.order_by.size()) +
                        " keys";
    if (stmt.limit >= 0) {
      order += " (top-" + std::to_string(stmt.limit) + ")";
    }
    lines.push_back(std::move(order));
  }
  if (stmt.limit >= 0) {
    lines.push_back("Limit: " + std::to_string(stmt.limit));
  }
  return lines;
}

}  // namespace sq::sql
