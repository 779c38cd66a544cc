#ifndef SQUERY_SQL_VECTORIZED_H_
#define SQUERY_SQL_VECTORIZED_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "kv/object.h"
#include "sql/ast.h"
#include "sql/eval.h"
#include "sql/executor.h"
#include "sql/group_table.h"

namespace sq::sql {

/// One scan's scalar expressions compiled for the hot path, shared by the
/// row and the columnar engines.
///
/// Compilation resolves every column reference once, at plan time: whether
/// it names a pseudo-column (`key`/`partitionKey`/`ssid`), which qualified
/// field to probe first, and a reference slot that columnar evaluation binds
/// to a column ordinal once per batch. The row path then skips the per-row
/// pseudo-name string comparisons `ScanRowView` pays, and the columnar path
/// reads cells by ordinal from contiguous typed arrays.
///
/// The WHERE predicate is flattened into its top-level AND conjuncts, kept
/// in statement order. Conjuncts of the shape `column <cmp> literal` run as
/// branch-free selection-vector loops over typed columns; everything else
/// evaluates per surviving row through a compiled mirror of EvalScalar. A
/// conjunct whose subtree can raise an error only ever sees rows that passed
/// the conjuncts before it, so errors (and error *order*) match the row
/// engine's short-circuit evaluation exactly.
///
/// Instances are immutable after construction and safe to share across scan
/// worker threads; all per-batch state is local to the call.
class CompiledScan {
 public:
  /// Compiles the predicate (may be null), GROUP BY expressions, and
  /// aggregate calls of one scan. All Expr pointers must outlive this
  /// object; `aggregates` is the executor's aggregate list in collection
  /// order (fold results land in GroupData::aggs at the same indices).
  CompiledScan(const Expr* predicate,
               const std::vector<const Expr*>& group_by,
               const std::vector<const Expr*>& aggregates);
  ~CompiledScan();

  CompiledScan(const CompiledScan&) = delete;
  CompiledScan& operator=(const CompiledScan&) = delete;

  bool has_predicate() const { return !conjuncts_.empty(); }

  /// Row-path predicate over an unmaterialized scan row. Identical results
  /// and errors to `EvalScalar(*predicate, row, ctx).Truthy()`.
  Result<bool> PredicatePasses(const ScanRowView& row,
                               const EvalContext& ctx) const;

  /// Columnar path for aggregating scans: filters `batch` and folds the
  /// survivors into `groups` (the same GroupTable the row fold uses).
  /// `rows_returned` is incremented by the number of rows passing the
  /// filter.
  Status AccumulateBatch(const ScanBatch& batch, const EvalContext& ctx,
                         GroupTable* groups, int64_t* rows_returned) const;

  /// Columnar path for materializing scans: filters `batch` and appends the
  /// surviving rows — materialized with pseudo-columns, byte-identical to
  /// the row path's tuples — to `out`.
  Status FilterBatch(const ScanBatch& batch, const EvalContext& ctx,
                     std::vector<kv::Object>* out,
                     int64_t* rows_returned) const;

 private:
  struct Node;      // compiled expression node
  struct BatchCtx;  // per-batch ordinal bindings

  /// How one column reference resolves, decided at compile time.
  struct RefInfo {
    enum class Kind { kKey, kSsid, kField };
    Kind kind = Kind::kField;
    std::string qualified;  // nonempty: probe this stored field first
    std::string field;      // bare name (stored-field lookup / ssid fallback)
  };

  /// One top-level AND conjunct of the predicate.
  struct Conjunct {
    std::unique_ptr<Node> node;
    bool can_error = false;
    // `column <cmp> literal` fast path (op normalized to column-on-left).
    int cmp_slot = -1;
    BinaryOp cmp_op = BinaryOp::kEq;
    kv::Value cmp_literal;
  };

  /// One aggregate call's compiled argument.
  struct Agg {
    const Expr* call = nullptr;
    std::unique_ptr<Node> arg;  // null for COUNT(*)
    bool arg_can_error = false;
    int arg_slot = -1;  // bare column-ref argument, else -1
  };

  std::unique_ptr<Node> CompileNode(const Expr& expr, bool* can_error);
  BatchCtx Bind(const ScanBatch& batch) const;
  Status FilterRows(const BatchCtx& b, const EvalContext& ctx,
                    std::vector<uint32_t>* sel) const;
  Status FoldRowMajor(const BatchCtx& b, const EvalContext& ctx,
                      const std::vector<uint32_t>& sel,
                      GroupTable* groups) const;
  Status FoldColumnMajor(const Agg& agg, const BatchCtx& b,
                         const EvalContext& ctx,
                         const std::vector<uint32_t>& sel,
                         AggState* state) const;

  std::vector<RefInfo> refs_;  // slot table, indexed by Node::slot
  std::vector<Conjunct> conjuncts_;
  bool predicate_can_error_ = false;
  std::vector<std::unique_ptr<Node>> group_by_;
  bool group_by_can_error_ = false;
  std::vector<Agg> aggs_;
};

}  // namespace sq::sql

#endif  // SQUERY_SQL_VECTORIZED_H_
