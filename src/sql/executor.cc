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

/// The row engine's fold of one row into `table`: evaluates the group key
/// and every aggregate argument against the (possibly unmaterialized) row.
/// `materialize` is called once, on the first row of a new group, for its
/// representative.
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
  const auto [group, inserted] =
      table->FindOrInsert(key.data(), key.size(), aggregates.size());
  if (inserted) table->SetRepresentative(group, materialize());
  AggState* states = table->aggs(group);
  static const Value kCountStarArg(int64_t{1});
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const Expr& call = *aggregates[a].call;
    if (call.star || call.children.empty()) {
      SQ_RETURN_IF_ERROR(
          AccumulateAggregate(call, kCountStarArg, &states[a]));
      continue;
    }
    SQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*call.children[0], row, ctx));
    SQ_RETURN_IF_ERROR(AccumulateAggregate(call, v, &states[a]));
  }
  return Status::OK();
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
  int64_t batches = 0;     // batches the vectorized engine evaluated
  int64_t batch_rows = 0;  // rows those batches carried
};

Status FirstError(const std::vector<PartitionOutcome>& outcomes,
                  ExecStats* stats) {
  for (const PartitionOutcome& outcome : outcomes) {
    stats->rows_scanned += outcome.scanned;
    stats->rows_returned += outcome.returned;
    stats->batches_scanned += outcome.batches;
    stats->batch_rows += outcome.batch_rows;
    if (!outcome.status.ok()) return outcome.status;
  }
  return Status::OK();
}

/// The row evaluator: runs the pushed predicate over one unmaterialized row
/// and hands the row to `consume` if it passes.
template <typename RowConsumer>
Status EvaluateRow(const ScanRowView& row, const CompiledScan& scan,
                   const EvalContext& ctx, int64_t* returned,
                   const RowConsumer& consume) {
  if (scan.has_predicate()) {
    SQ_ASSIGN_OR_RETURN(const bool pass, scan.PredicatePasses(row, ctx));
    if (!pass) return Status::OK();
  }
  ++*returned;
  return consume(row);
}

/// Reads partition `p` of `source` batch by batch into `fn(batch)`, adding
/// each batch's rows to `*scanned`. Stops at the first error.
template <typename Fn>
Status ReadPartition(const TableSource& source, int32_t p, int64_t* scanned,
                     const Fn& fn) {
  std::unique_ptr<BatchReader> reader = source.OpenBatchReader(p);
  ScanBatch batch;
  while (true) {
    SQ_ASSIGN_OR_RETURN(const bool more, reader->NextBatch(&batch));
    if (!more) return Status::OK();
    *scanned += static_cast<int64_t>(batch.rows->row_count());
    SQ_RETURN_IF_ERROR(fn(batch));
  }
}

/// Reads every partition of `source` as batches, fanned out over the pool,
/// into one `Local` per partition. The vectorized engine hands each batch to
/// `fold_batch(batch, &local, &returned)`; the row engine materializes each
/// row of it and runs it through the row evaluator into
/// `fold_row(row, &local)`. Records one `span_name` span per partition and
/// folds the outcomes into `stats`.
template <typename Local, typename BatchFold, typename RowFold>
Result<std::vector<Local>> ScanPartitions(
    const TableSource& source, const char* span_name,
    const CompiledScan& scan, const EvalContext& ctx,
    const ExecOptions& options, ExecStats* stats,
    const BatchFold& fold_batch, const RowFold& fold_row) {
  const int32_t partitions = source.partition_count();
  const int32_t workers = ScanWorkers(options, partitions);
  std::vector<Local> per_partition(partitions);
  std::vector<PartitionOutcome> outcomes(partitions);
  // Captured before the fan-out: ParallelFor workers have no thread-local
  // scope, so per-partition spans parent on the scan span explicitly.
  const trace::SpanContext scan_ctx = trace::CurrentContext();
  RunPartitioned(options, partitions, workers, [&](int32_t p) {
    const int64_t span_t0 = trace::NowNanos();
    PartitionOutcome& outcome = outcomes[p];
    Local& local = per_partition[p];
    outcome.status = ReadPartition(
        source, p, &outcome.scanned, [&](const ScanBatch& batch) -> Status {
          if (options.enable_vectorized) {
            ++outcome.batches;
            outcome.batch_rows +=
                static_cast<int64_t>(batch.rows->row_count());
            return fold_batch(batch, &local, &outcome.returned);
          }
          const Value* ssid = batch.ssid.has_value() ? &*batch.ssid : nullptr;
          for (size_t r = 0; r < batch.rows->row_count(); ++r) {
            const Object value = batch.rows->MaterializeRow(r);
            SQ_RETURN_IF_ERROR(EvaluateRow(
                ScanRowView{&batch.rows->keys()[r], ssid, &value}, scan, ctx,
                &outcome.returned,
                [&](const ScanRowView& row) { return fold_row(row, &local); }));
          }
          return Status::OK();
        });
    trace::RecordSpan(trace::Category::kQuery, span_name, scan_ctx, span_t0,
                      trace::NowNanos(),
                      {{"partition", p},
                       {"columnar", options.enable_vectorized},
                       {"scanned", outcome.scanned},
                       {"returned", outcome.returned}});
  });
  stats->partitions_scanned += partitions;
  stats->parallelism = std::max(stats->parallelism, workers);
  stats->used_pushdown = stats->used_pushdown || scan.has_predicate();
  stats->used_vectorized = stats->used_vectorized || options.enable_vectorized;
  SQ_RETURN_IF_ERROR(FirstError(outcomes, stats));
  return per_partition;
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
        status = EvaluateRow(ScanRowView{&key, ssid, &value}, scan, ctx,
                             &stats->rows_returned, consume);
      });
  if (status.ok() && !scan_status.ok()) status = std::move(scan_status);
  stats->partitions_scanned += static_cast<int32_t>(partitions.size());
  stats->used_point_lookup = true;
  stats->used_pushdown = stats->used_pushdown || scan.has_predicate();
  return status;
}

/// Materialized rows in partition order, with the end of each partition's
/// run (a point lookup's rows are one run).
struct PartitionedTuples {
  std::vector<Object> rows;
  std::vector<size_t> ends;
};

/// Concatenates per-partition row lists in partition order.
PartitionedTuples ConcatPartitions(
    std::vector<std::vector<Object>>&& per_partition) {
  size_t total = 0;
  for (const auto& local : per_partition) total += local.size();
  PartitionedTuples tuples;
  tuples.rows.reserve(total);
  tuples.ends.reserve(per_partition.size());
  for (auto& local : per_partition) {
    for (Object& tuple : local) tuples.rows.push_back(std::move(tuple));
    tuples.ends.push_back(tuples.rows.size());
  }
  return tuples;
}

std::vector<const Expr*> GroupByExprs(const SelectStatement& stmt) {
  std::vector<const Expr*> exprs;
  exprs.reserve(stmt.group_by.size());
  for (const auto& expr : stmt.group_by) exprs.push_back(expr.get());
  return exprs;
}

std::vector<const Expr*> AggregateCalls(
    const std::vector<AggregateSpec>& aggregates) {
  std::vector<const Expr*> calls;
  calls.reserve(aggregates.size());
  for (const AggregateSpec& agg : aggregates) calls.push_back(agg.call);
  return calls;
}

/// Merges per-partition partial group tables into `out` in partition order,
/// so representatives and MIN/MAX ties resolve exactly as a sequential
/// partition-major scan would.
void MergePartials(const std::vector<AggregateSpec>& aggregates,
                   std::vector<GroupTable>&& per_partition, GroupTable* out) {
  trace::ScopedSpan merge_span(trace::Category::kQuery, "merge");
  const std::vector<const Expr*> calls = AggregateCalls(aggregates);
  int64_t partials = 0;
  for (GroupTable& local : per_partition) {
    partials += static_cast<int64_t>(local.size());
    out->MergeFrom(std::move(local), calls);
  }
  merge_span.AddAttr("partials", partials);
  merge_span.AddAttr("groups", static_cast<int64_t>(out->size()));
}

/// Partition-parallel materializing scan with predicate/key pushdown. Rows
/// rejected by the pushed predicate are never copied out.
Result<PartitionedTuples> MaterializeFromSource(
    const TableSource& source, const Expr* predicate,
    const std::vector<Value>* keys, const EvalContext& ctx,
    const ExecOptions& options, ExecStats* stats) {
  // Compiled once per scan, shared read-only by all workers: resolves the
  // predicate's column references at plan time instead of per row.
  const CompiledScan scan(predicate, {}, {});
  const auto materialize = [](const ScanRowView& row,
                              std::vector<Object>* out) {
    out->push_back(MaterializeRow(*row.key, row.ssid, *row.value));
    return Status::OK();
  };
  if (keys != nullptr) {
    PartitionedTuples tuples;
    SQ_RETURN_IF_ERROR(ScanByKeys(source, *keys, scan, ctx, stats,
                                  [&](const ScanRowView& row) {
                                    return materialize(row, &tuples.rows);
                                  }));
    tuples.ends.push_back(tuples.rows.size());
    return tuples;
  }
  SQ_ASSIGN_OR_RETURN(
      std::vector<std::vector<Object>> per_partition,
      ScanPartitions<std::vector<Object>>(
          source, "partition_scan", scan, ctx, options, stats,
          [&](const ScanBatch& batch, std::vector<Object>* local,
              int64_t* returned) {
            return scan.FilterBatch(batch, ctx, local, returned);
          },
          materialize));
  return ConcatPartitions(std::move(per_partition));
}

/// Fused scan + partial aggregation: each worker filters and folds its
/// partitions into a local group table; partials merge on the coordinating
/// thread. The vectorized engine materializes no row: a group keeps its
/// first row as a reference, built into a tuple only if the group reaches
/// the output. Full-scan aggregates therefore scale with cores.
Status ScanAggregate(const TableSource& source, const Expr* predicate,
                     const std::vector<Value>* keys,
                     const SelectStatement& stmt,
                     const std::vector<AggregateSpec>& aggregates,
                     const EvalContext& ctx, const ExecOptions& options,
                     ExecStats* stats, GroupTable* out) {
  const CompiledScan scan(predicate, GroupByExprs(stmt),
                          AggregateCalls(aggregates));
  const auto accumulate = [&](const ScanRowView& row, GroupTable* groups) {
    return AccumulateRow(
        stmt, aggregates, row,
        [&row] { return MaterializeRow(*row.key, row.ssid, *row.value); },
        ctx, groups);
  };
  if (keys != nullptr) {
    return ScanByKeys(
        source, *keys, scan, ctx, stats,
        [&](const ScanRowView& row) { return accumulate(row, out); });
  }
  SQ_ASSIGN_OR_RETURN(
      std::vector<GroupTable> per_partition,
      ScanPartitions<GroupTable>(
          source, "partition_aggregate", scan, ctx, options, stats,
          [&](const ScanBatch& batch, GroupTable* local, int64_t* returned) {
            return scan.AccumulateBatch(batch, ctx, local, returned);
          },
          accumulate));
  MergePartials(aggregates, std::move(per_partition), out);
  return Status::OK();
}

/// What ExecuteSelect decides before it reads a row, and EXPLAIN renders:
/// the version pins, the aggregates, the pushdown plan and whether the FROM
/// scan fuses with aggregation.
struct SelectAnalysis {
  std::map<std::string, int64_t> ssid_by_table;
  std::optional<int64_t> global_ssid;
  std::vector<AggregateSpec> aggregates;
  bool aggregating = false;
  ScanPlan plan;
  /// The FROM scan (with its joins) folds rows into per-partition partial
  /// aggregates.
  bool fused = false;

  std::optional<int64_t> SsidFor(const TableRef& ref) const {
    auto it = ssid_by_table.find(ref.effective_name());
    if (it != ssid_by_table.end()) return it->second;
    return global_ssid;
  }
};

Result<SelectAnalysis> AnalyzeSelect(const SelectStatement& stmt,
                                     const ExecOptions& options) {
  SelectAnalysis analysis;
  CollectSsidFilters(stmt.where.get(), &analysis.ssid_by_table,
                     &analysis.global_ssid);
  for (const SelectItem& item : stmt.items) {
    CollectAggregates(item.expr.get(), &analysis.aggregates);
  }
  for (const auto& [expr, desc] : stmt.order_by) {
    CollectAggregates(expr.get(), &analysis.aggregates);
  }
  CollectAggregates(stmt.having.get(), &analysis.aggregates);
  analysis.aggregating =
      !analysis.aggregates.empty() || !stmt.group_by.empty();
  if (stmt.having != nullptr && !analysis.aggregating) {
    return Status::InvalidArgument("HAVING requires aggregation");
  }
  if (analysis.aggregating && stmt.select_star) {
    return Status::InvalidArgument("SELECT * cannot be combined with "
                                   "aggregation");
  }
  analysis.plan = BuildScanPlan(stmt, options.enable_pushdown);
  analysis.fused =
      analysis.aggregating &&
      (stmt.where == nullptr || analysis.plan.predicate != nullptr);
  return analysis;
}

/// One JOIN of the statement with its table opened. A colocated join runs
/// partition p of the FROM table against partition p of the JOIN table
/// only: its USING column is the state key, both tables split keys over the
/// same number of partitions, and every source places key k in
/// kv::Partitioner(partition_count()).PartitionOf(k) (TableSource's
/// contract). Any other join builds over the whole JOIN table once.
struct OpenedJoin {
  const JoinClause* clause = nullptr;
  std::unique_ptr<TableSource> source;
  bool colocated = false;
};

Result<std::vector<OpenedJoin>> OpenJoins(const SelectStatement& stmt,
                                          const SelectAnalysis& analysis,
                                          const TableSource& from,
                                          TableResolver* resolver) {
  std::vector<OpenedJoin> joins;
  joins.reserve(stmt.joins.size());
  for (const JoinClause& clause : stmt.joins) {
    OpenedJoin join;
    join.clause = &clause;
    SQ_ASSIGN_OR_RETURN(join.source,
                        resolver->OpenTableSource(
                            clause.table.name, analysis.SsidFor(clause.table)));
    join.colocated = (clause.using_column == "key" ||
                      clause.using_column == "partitionKey") &&
                     join.source->partition_count() == from.partition_count();
    joins.push_back(std::move(join));
  }
  return joins;
}

/// The build side of one JOIN: rows of the JOIN table (one partition of it,
/// or all of them) chained by USING value in scan order, as joined-row
/// cells. NULL USING values match nothing and are left out. Every batch is
/// added before the first probe: cells point into the bound batches.
class JoinBuild {
 public:
  /// Adds the rows of `batch`, the build side of join `join` of `scan`. The
  /// row engine takes each row's USING value from its materialized tuple.
  void Add(const CompiledScan& scan, size_t join,
           const std::string& using_column, const ScanBatch& batch,
           bool vectorized) {
    const kv::ColumnBatch& rows = *batch.rows;
    const auto batch_index = static_cast<uint32_t>(batches_.size());
    batches_.push_back(scan.BindJoinInput(join + 1, batch));
    const Value* ssid = batch.ssid.has_value() ? &*batch.ssid : nullptr;
    for (uint32_t r = 0; r < rows.row_count(); ++r) {
      if (rows.tombstone(r)) continue;
      Value key = vectorized
                      ? scan.BuildKey(join, batches_.back(), r)
                      : MaterializeRow(rows.keys()[r], ssid,
                                       rows.MaterializeRow(r))
                            .Get(using_column);
      if (key.is_null()) continue;
      const auto entry = static_cast<int32_t>(entries_.size());
      entries_.push_back(Entry{batch_index, r, -1});
      auto [it, inserted] =
          chains_.try_emplace(std::move(key), Chain{entry, entry});
      if (!inserted) {
        entries_[static_cast<size_t>(it->second.last)].next = entry;
        it->second.last = entry;
      }
    }
  }

  /// Calls `fn(cell)` for every row whose USING value equals `key`, in scan
  /// order.
  template <typename Fn>
  Status ForEachMatch(const Value& key, const Fn& fn) const {
    const auto it = chains_.find(key);
    if (it == chains_.end()) return Status::OK();
    for (int32_t e = it->second.first; e >= 0;) {
      const Entry& entry = entries_[static_cast<size_t>(e)];
      SQ_RETURN_IF_ERROR(
          fn(CompiledScan::JoinCell{&batches_[entry.batch], entry.row}));
      e = entry.next;
    }
    return Status::OK();
  }

 private:
  struct Entry {
    uint32_t batch;
    uint32_t row;
    int32_t next;  // next entry with the same USING value, or -1
  };
  struct Chain {
    int32_t first;
    int32_t last;
  };
  std::vector<CompiledScan::JoinBatch> batches_;
  std::vector<Entry> entries_;
  // sq-lint: unordered-ok(probe-only; matches follow the build's scan order)
  std::unordered_map<Value, Chain, kv::ValueHash> chains_;
};

/// Builds a non-colocated join's side over every partition of its table, in
/// partition order.
Status BuildWholeTable(const OpenedJoin& join, size_t index,
                       const CompiledScan& scan, const ExecOptions& options,
                       ExecStats* stats, JoinBuild* build) {
  const TableSource& source = *join.source;
  for (int32_t p = 0; p < source.partition_count(); ++p) {
    SQ_RETURN_IF_ERROR(ReadPartition(
        source, p, &stats->rows_scanned, [&](const ScanBatch& batch) {
          if (options.enable_vectorized) {
            ++stats->batches_scanned;
            stats->batch_rows +=
                static_cast<int64_t>(batch.rows->row_count());
          }
          build->Add(scan, index, join.clause->using_column, batch,
                     options.enable_vectorized);
          return Status::OK();
        }));
  }
  stats->partitions_scanned += source.partition_count();
  return Status::OK();
}

/// Point lookups of a join's FROM table: the rows of `keys`, grouped into
/// batches by the partition they live in (consecutive rows that share a
/// version share a batch), so each partition joins them like scanned rows.
Result<std::vector<std::vector<ScanBatch>>> LookUpByPartition(
    const TableSource& source, const std::vector<Value>& keys,
    ExecStats* stats) {
  trace::ScopedSpan span(trace::Category::kQuery, "point_lookup");
  span.AddAttr("keys", static_cast<int64_t>(keys.size()));
  struct Building {
    std::shared_ptr<kv::ColumnBatch> rows;
    std::optional<Value> ssid;
  };
  std::vector<std::vector<Building>> building(
      static_cast<size_t>(source.partition_count()));
  SQ_RETURN_IF_ERROR(source.ScanKeys(
      keys, [&](const Value& key, const Value* ssid, const Object& value) {
        ++stats->rows_scanned;
        std::vector<Building>& batches =
            building[static_cast<size_t>(source.PartitionOfKey(key))];
        const std::optional<Value> version =
            ssid != nullptr ? std::optional<Value>(*ssid) : std::nullopt;
        if (batches.empty() || batches.back().ssid != version) {
          batches.push_back(
              Building{std::make_shared<kv::ColumnBatch>(), version});
        }
        batches.back().rows->AppendRow(key, /*ssid=*/0, value);
      }));
  std::vector<std::vector<ScanBatch>> out(building.size());
  for (size_t p = 0; p < building.size(); ++p) {
    if (!building[p].empty()) ++stats->partitions_scanned;
    for (Building& batch : building[p]) {
      out[p].push_back(ScanBatch{std::move(batch.rows), batch.ssid});
    }
  }
  stats->used_point_lookup = true;
  return out;
}

/// Runs a statement's joins partition by partition. Partition p builds each
/// colocated join from that join table's partition p (other joins share
/// `whole[j]`), then reads the FROM table's partition p (or the rows point
/// lookups found in it, `looked_up[p]`) and probes the joins in turn, left
/// order first, each row's matches in build scan order. Every complete
/// joined row that passes `predicate` (the pushed WHERE, or null) goes into
/// p's `Local`: the vectorized engine evaluates it in place and calls
/// `fold_joined(row, &local)`; the row engine merges the materialized rows
/// with MergeTuples, runs the row evaluator, and calls
/// `fold_merged(tuple, &local)`. Records one `partition_join` span per
/// partition; returns the Locals in partition order.
template <typename Local, typename JoinedFold, typename MergedFold>
Result<std::vector<Local>> JoinPartitions(
    const TableSource& from,
    const std::vector<std::vector<ScanBatch>>* looked_up,
    const std::vector<OpenedJoin>& joins, const std::vector<JoinBuild>& whole,
    const CompiledScan& scan, const Expr* predicate, const EvalContext& ctx,
    const ExecOptions& options, ExecStats* stats,
    const JoinedFold& fold_joined, const MergedFold& fold_merged) {
  const bool vectorized = options.enable_vectorized;
  std::vector<int32_t> partitions;
  for (int32_t p = 0; p < from.partition_count(); ++p) {
    if (looked_up == nullptr || !(*looked_up)[static_cast<size_t>(p)].empty()) {
      partitions.push_back(p);
    }
  }
  const auto count = static_cast<int32_t>(partitions.size());
  const int32_t workers = ScanWorkers(options, count);
  std::vector<Local> per_partition(partitions.size());
  std::vector<PartitionOutcome> outcomes(partitions.size());
  const trace::SpanContext join_ctx = trace::CurrentContext();
  RunPartitioned(options, count, workers, [&](int32_t i) {
    const int64_t span_t0 = trace::NowNanos();
    const int32_t p = partitions[static_cast<size_t>(i)];
    PartitionOutcome& outcome = outcomes[static_cast<size_t>(i)];
    Local& local = per_partition[static_cast<size_t>(i)];
    int64_t left_scanned = 0;
    int64_t right_scanned = 0;
    int64_t matched = 0;
    const auto count_batch = [&](const ScanBatch& batch) {
      if (!vectorized) return;
      ++outcome.batches;
      outcome.batch_rows += static_cast<int64_t>(batch.rows->row_count());
    };

    std::vector<JoinBuild> own(joins.size());
    std::vector<const JoinBuild*> builds(joins.size());
    for (size_t j = 0; j < joins.size() && outcome.status.ok(); ++j) {
      builds[j] = &whole[j];
      if (!joins[j].colocated) continue;
      builds[j] = &own[j];
      outcome.status = ReadPartition(
          *joins[j].source, p, &right_scanned, [&](const ScanBatch& batch) {
            count_batch(batch);
            own[j].Add(scan, j, joins[j].clause->using_column, batch,
                       vectorized);
            return Status::OK();
          });
    }

    const auto fold = [&](const CompiledScan::JoinRow& row) -> Status {
      ++matched;
      if (vectorized) {
        if (predicate != nullptr) {
          SQ_ASSIGN_OR_RETURN(const bool pass, scan.JoinedPasses(row, ctx));
          if (!pass) return Status::OK();
        }
        ++outcome.returned;
        return fold_joined(row, &local);
      }
      const Object merged = scan.MaterializeJoined(row, row.size());
      if (predicate != nullptr) {
        SQ_ASSIGN_OR_RETURN(const Value pass,
                            EvalScalar(*predicate, merged, ctx));
        if (!pass.Truthy()) return Status::OK();
      }
      ++outcome.returned;
      return fold_merged(merged, &local);
    };
    // Probes joins j.. for a joined row whose inputs 0..j are set.
    const auto probe = [&](const auto& self, size_t j,
                           CompiledScan::JoinRow* row) -> Status {
      if (j == joins.size()) return fold(*row);
      const Value key =
          vectorized ? scan.ProbeKey(j, *row)
                     : scan.MaterializeJoined(*row, j + 1)
                           .Get(joins[j].clause->using_column);
      if (key.is_null()) return Status::OK();
      return builds[j]->ForEachMatch(
          key, [&](const CompiledScan::JoinCell& cell) {
            (*row)[j + 1] = cell;
            return self(self, j + 1, row);
          });
    };
    const auto probe_batch = [&](const ScanBatch& batch) -> Status {
      const CompiledScan::JoinBatch left = scan.BindJoinInput(0, batch);
      CompiledScan::JoinRow row(joins.size() + 1);
      for (uint32_t r = 0; r < batch.rows->row_count(); ++r) {
        if (batch.rows->tombstone(r)) continue;
        row[0] = CompiledScan::JoinCell{&left, r};
        SQ_RETURN_IF_ERROR(probe(probe, 0, &row));
      }
      return Status::OK();
    };

    if (outcome.status.ok()) {
      if (looked_up != nullptr) {
        for (const ScanBatch& batch : (*looked_up)[static_cast<size_t>(p)]) {
          left_scanned += static_cast<int64_t>(batch.rows->row_count());
          outcome.status = probe_batch(batch);
          if (!outcome.status.ok()) break;
        }
      } else {
        outcome.status = ReadPartition(
            from, p, &left_scanned, [&](const ScanBatch& batch) {
              count_batch(batch);
              return probe_batch(batch);
            });
      }
    }
    // Looked-up rows were counted by the lookup.
    outcome.scanned =
        (looked_up == nullptr ? left_scanned : 0) + right_scanned;
    trace::RecordSpan(trace::Category::kQuery, "partition_join", join_ctx,
                      span_t0, trace::NowNanos(),
                      {{"partition", p},
                       {"columnar", vectorized},
                       {"left_scanned", left_scanned},
                       {"right_scanned", right_scanned},
                       {"matched", matched}});
  });
  int32_t colocated = 0;
  for (const OpenedJoin& join : joins) colocated += join.colocated ? 1 : 0;
  stats->partitions_scanned +=
      count * (colocated + (looked_up == nullptr ? 1 : 0));
  stats->parallelism = std::max(stats->parallelism, workers);
  stats->used_pushdown = stats->used_pushdown || predicate != nullptr;
  stats->used_vectorized = stats->used_vectorized || vectorized;
  SQ_RETURN_IF_ERROR(FirstError(outcomes, stats));
  return per_partition;
}

/// The FROM scan of a statement with joins: opens the JOIN tables, builds
/// the non-colocated ones whole, and joins partition by partition
/// (JoinPartitions), evaluating the pushed WHERE on every joined row. A
/// fused statement folds joined rows into per-partition partial aggregates
/// merged into `groups`; any other collects the merged tuples into `tuples`.
Status ScanJoins(const SelectStatement& stmt, const SelectAnalysis& analysis,
                 const TableSource& from, TableResolver* resolver,
                 const EvalContext& ctx, const ExecOptions& options,
                 ExecStats* stats, GroupTable* groups,
                 PartitionedTuples* tuples) {
  SQ_ASSIGN_OR_RETURN(const std::vector<OpenedJoin> joins,
                      OpenJoins(stmt, analysis, from, resolver));
  trace::ScopedSpan join_span(trace::Category::kQuery, "join");
  CompiledScan::JoinInputs inputs;
  inputs.names.push_back(stmt.from.effective_name());
  std::string tables;
  std::string columns;
  for (const OpenedJoin& join : joins) {
    inputs.names.push_back(join.clause->table.effective_name());
    inputs.using_columns.push_back(join.clause->using_column);
    tables += (tables.empty() ? "" : ",") + join.clause->table.name;
    columns += (columns.empty() ? "" : ",") + join.clause->using_column;
  }
  join_span.AddAttr("table", tables);
  join_span.AddAttr("using", columns);
  const ScanPlan& plan = analysis.plan;
  const std::vector<AggregateSpec>& aggregates = analysis.aggregates;
  const CompiledScan scan(
      plan.predicate,
      analysis.fused ? GroupByExprs(stmt) : std::vector<const Expr*>{},
      analysis.fused ? AggregateCalls(aggregates) : std::vector<const Expr*>{},
      &inputs);

  std::vector<JoinBuild> whole(joins.size());
  for (size_t j = 0; j < joins.size(); ++j) {
    if (joins[j].colocated) continue;
    SQ_RETURN_IF_ERROR(
        BuildWholeTable(joins[j], j, scan, options, stats, &whole[j]));
  }
  std::optional<std::vector<std::vector<ScanBatch>>> looked_up;
  if (plan.keys.has_value()) {
    SQ_ASSIGN_OR_RETURN(looked_up,
                        LookUpByPartition(from, *plan.keys, stats));
  }
  const std::vector<std::vector<ScanBatch>>* lookups =
      looked_up.has_value() ? &*looked_up : nullptr;
  if (analysis.fused) {
    SQ_ASSIGN_OR_RETURN(
        std::vector<GroupTable> per_partition,
        JoinPartitions<GroupTable>(
            from, lookups, joins, whole, scan, plan.predicate, ctx, options,
            stats,
            [&](const CompiledScan::JoinRow& row, GroupTable* local) {
              return scan.FoldJoined(row, ctx, local);
            },
            [&](const Object& tuple, GroupTable* local) {
              return AccumulateRow(
                  stmt, aggregates, tuple, [&tuple] { return tuple; }, ctx,
                  local);
            }));
    MergePartials(aggregates, std::move(per_partition), groups);
    return Status::OK();
  }
  SQ_ASSIGN_OR_RETURN(
      std::vector<std::vector<Object>> per_partition,
      JoinPartitions<std::vector<Object>>(
          from, lookups, joins, whole, scan, plan.predicate, ctx, options,
          stats,
          [&](const CompiledScan::JoinRow& row, std::vector<Object>* local) {
            local->push_back(scan.MaterializeJoined(row, row.size()));
            return Status::OK();
          },
          [](const Object& tuple, std::vector<Object>* local) {
            local->push_back(tuple);
            return Status::OK();
          }));
  *tuples = ConcatPartitions(std::move(per_partition));
  return Status::OK();
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

  const int64_t plan_t0 = trace::NowNanos();
  SQ_ASSIGN_OR_RETURN(const SelectAnalysis analysis,
                      AnalyzeSelect(stmt, options));
  const ScanPlan& plan = analysis.plan;
  const std::vector<AggregateSpec>& aggregates = analysis.aggregates;
  const bool aggregating = analysis.aggregating;
  trace::RecordSpan(trace::Category::kQuery, "plan", trace::CurrentContext(),
                    plan_t0, trace::NowNanos(),
                    {{"pushdown", plan.predicate != nullptr},
                     {"point_lookup", plan.keys.has_value()}});

  // --- Scan + joins. The FROM scan goes through the table's source:
  // partitions fan out over the pool, the pushed-down predicate filters rows
  // before they are copied, and pushed-down key equalities route to point
  // lookups. Joins run inside the same partition fan-out, evaluating the
  // pushed predicate on each joined row. Aggregating statements fuse the
  // scan with per-partition partial aggregation.
  GroupTable groups;
  PartitionedTuples tuples;

  {
    trace::ScopedSpan scan_span(trace::Category::kQuery, "scan");
    scan_span.AddAttr("table", stmt.from.name);
    SQ_ASSIGN_OR_RETURN(
        std::unique_ptr<TableSource> source,
        resolver->OpenTableSource(stmt.from.name,
                                  analysis.SsidFor(stmt.from)));
    const Expr* pushed = plan.predicate;
    const std::vector<Value>* keys =
        plan.keys.has_value() ? &*plan.keys : nullptr;
    scan_span.AddAttr("pushdown", pushed != nullptr);
    scan_span.AddAttr("point_lookup", keys != nullptr);
    if (!stmt.joins.empty()) {
      SQ_RETURN_IF_ERROR(ScanJoins(stmt, analysis, *source, resolver, ctx,
                                   options, stats, &groups, &tuples));
    } else if (analysis.fused) {
      SQ_RETURN_IF_ERROR(ScanAggregate(*source, pushed, keys, stmt,
                                       aggregates, ctx, options, stats,
                                       &groups));
    } else {
      SQ_ASSIGN_OR_RETURN(tuples,
                          MaterializeFromSource(*source, pushed, keys, ctx,
                                                options, stats));
    }
  }

  // --- Filter (unless already evaluated inside the scan; a fused scan
  // implies a pushed or absent WHERE).
  if (stmt.where != nullptr && plan.predicate == nullptr) {
    trace::ScopedSpan filter_span(trace::Category::kQuery, "filter");
    filter_span.AddAttr("input_rows",
                        static_cast<int64_t>(tuples.rows.size()));
    std::vector<Object> kept;
    kept.reserve(tuples.rows.size());
    size_t begin = 0;
    for (size_t& end : tuples.ends) {
      for (size_t i = begin; i < end; ++i) {
        SQ_ASSIGN_OR_RETURN(Value pass,
                            EvalScalar(*stmt.where, tuples.rows[i], ctx));
        if (pass.Truthy()) kept.push_back(std::move(tuples.rows[i]));
      }
      begin = end;
      end = kept.size();
    }
    tuples.rows = std::move(kept);
    filter_span.AddAttr("output_rows",
                        static_cast<int64_t>(tuples.rows.size()));
  }

  // --- Build output column list.
  std::vector<std::string> columns;
  if (stmt.select_star) {
    std::set<std::string> names;
    for (const Object& tuple : tuples.rows) {
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
    for (const Object& tuple : tuples.rows) {
      SQ_RETURN_IF_ERROR(emit_row(tuple, {}));
    }
  } else {
    trace::ScopedSpan agg_span(trace::Category::kQuery, "aggregate");
    agg_span.AddAttr("fused", analysis.fused);
    if (!analysis.fused) {
      // Partition by partition into partials merged in order, like the fused
      // scan, so float sums add up in the same association either way.
      std::vector<GroupTable> per_partition(tuples.ends.size());
      size_t begin = 0;
      for (size_t p = 0; p < tuples.ends.size(); ++p) {
        for (size_t i = begin; i < tuples.ends[p]; ++i) {
          const Object& tuple = tuples.rows[i];
          SQ_RETURN_IF_ERROR(AccumulateRow(
              stmt, aggregates, tuple, [&tuple] { return tuple; }, ctx,
              &per_partition[p]));
        }
        begin = tuples.ends[p];
      }
      MergePartials(aggregates, std::move(per_partition), &groups);
    }
    // An aggregate without GROUP BY yields one row even over no input (its
    // representative is the empty tuple).
    if (stmt.group_by.empty() && groups.size() == 0) {
      groups.FindOrInsert(nullptr, 0, aggregates.size());
    }
    for (uint32_t g = 0; g < groups.size(); ++g) {
      // sq-lint: unordered-ok(lookup-only; rows follow group id order)
      std::unordered_map<std::string, Value> agg_values;
      for (size_t a = 0; a < aggregates.size(); ++a) {
        SQ_ASSIGN_OR_RETURN(
            Value v, FinalizeAggregate(*aggregates[a].call, groups.aggs(g)[a]));
        agg_values[aggregates[a].id] = std::move(v);
      }
      // Only groups that survive the merge build their representative.
      const Object representative = groups.TakeRepresentative(g);
      if (stmt.having != nullptr) {
        SQ_ASSIGN_OR_RETURN(
            Value keep, EvalWithAggregates(*stmt.having, representative,
                                           agg_values, ctx));
        if (!keep.Truthy()) continue;
      }
      SQ_RETURN_IF_ERROR(emit_row(representative, agg_values));
    }
    agg_span.AddAttr("groups", static_cast<int64_t>(groups.size()));
    agg_span.AddAttr("materialized", groups.materialized());
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

  SQ_ASSIGN_OR_RETURN(const SelectAnalysis analysis,
                      AnalyzeSelect(stmt, options));
  const ScanPlan& plan = analysis.plan;
  const std::optional<int64_t> pin = analysis.SsidFor(stmt.from);
  SQ_ASSIGN_OR_RETURN(std::unique_ptr<TableSource> source,
                      resolver->OpenTableSource(stmt.from.name, pin));
  const bool pushed = plan.predicate != nullptr;
  const bool point = plan.keys.has_value();

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
  if (pin.has_value()) scan += " @ ssid=" + std::to_string(*pin);
  lines.push_back(std::move(scan));
  // Point lookups of a join-free scan evaluate the looked-up rows with the
  // row evaluator; a join evaluates its joined rows with the chosen engine.
  if (options.enable_vectorized && (!point || !stmt.joins.empty())) {
    lines.push_back("  engine: vectorized (columnar batches)");
  }
  if (analysis.fused) {
    lines.push_back("  fused per-partition partial aggregation (" +
                    std::to_string(analysis.aggregates.size()) +
                    " aggregates)");
  }
  if (pushed) {
    lines.push_back("  pushed filter: " + plan.predicate->ToString());
  }

  SQ_ASSIGN_OR_RETURN(const std::vector<OpenedJoin> joins,
                      OpenJoins(stmt, analysis, *source, resolver));
  for (const OpenedJoin& join : joins) {
    const JoinClause& clause = *join.clause;
    lines.push_back(
        std::string(join.colocated ? "Join: colocated hash join "
                                   : "Join: hash join ") +
        clause.table.name + " USING (" + clause.using_column + "), " +
        (join.colocated
             ? "per partition (" +
                   std::to_string(source->partition_count()) + ")"
             : "build over " +
                   std::to_string(join.source->partition_count()) +
                   " partitions"));
  }
  if (stmt.where != nullptr && !pushed && !point) {
    lines.push_back("Filter: " + stmt.where->ToString());
  }
  if (analysis.aggregating) {
    std::string agg = "Aggregate: " +
                      std::to_string(analysis.aggregates.size()) +
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
