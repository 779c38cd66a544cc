#ifndef SQUERY_SQL_VECTORIZED_H_
#define SQUERY_SQL_VECTORIZED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
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
/// A statement with JOINs compiles the same expressions over *joined rows*:
/// one row of each input (the FROM table, then each JOIN's table), whose
/// fields are those of the tuple MergeTuples would build from them. A
/// joined row resolves each column reference per row without building that
/// tuple: every name the statement reads is bound to a column ordinal of
/// each input once per batch, and a reference takes the left input's cell
/// when that row has the field, else the right input's (conflicting right
/// fields answer to `<right name>.<field>`). Only an emitted row or a new
/// group's representative is materialized.
///
/// Instances are immutable after construction and safe to share across scan
/// worker threads; all per-batch state is local to the call.
class CompiledScan {
 public:
  /// The inputs of a JOIN chain in statement order: the FROM table, then
  /// each JOIN's table. `names` are their effective names (alias or table
  /// name); `using_columns[j]` is the USING column of join j, which joins
  /// inputs 0..j with input j + 1.
  struct JoinInputs {
    std::vector<std::string> names;
    std::vector<std::string> using_columns;
  };

  /// Compiles the predicate (may be null), GROUP BY expressions, and
  /// aggregate calls of one scan, over the rows of one table or, when
  /// `join` is set, over the joined rows of its inputs. All Expr pointers
  /// must outlive this object; `aggregates` is the executor's aggregate list
  /// in collection order (fold results land in GroupData::aggs at the same
  /// indices).
  CompiledScan(const Expr* predicate,
               const std::vector<const Expr*>& group_by,
               const std::vector<const Expr*>& aggregates,
               const JoinInputs* join = nullptr);
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
  /// When every GROUP BY expression reads a pseudo-column or one column that
  /// is typed across the batch, and no aggregate can error, the survivors
  /// fold by group id: a column at a time, each distinct key of the batch
  /// looked up once, with a new group's first row kept as a reference, not
  /// materialized. Otherwise they fold row-major. `rows_returned` is
  /// incremented by the number of rows passing the filter.
  Status AccumulateBatch(const ScanBatch& batch, const EvalContext& ctx,
                         GroupTable* groups, int64_t* rows_returned) const;

  /// Columnar path for materializing scans: filters `batch` and appends the
  /// surviving rows — materialized with pseudo-columns, byte-identical to
  /// the row path's tuples — to `out`.
  Status FilterBatch(const ScanBatch& batch, const EvalContext& ctx,
                     std::vector<kv::Object>* out,
                     int64_t* rows_returned) const;

  // --- Joined rows (compiled with JoinInputs).

  /// One batch of one join input, with every name the statement can read
  /// from that input bound to a column ordinal (or a pseudo-column).
  class JoinBatch {
   private:
    friend class CompiledScan;
    struct Binding {
      enum class Kind { kAbsent, kKey, kSsid, kColumn };
      Kind kind = Kind::kAbsent;
      int column = -1;
    };
    bool Find(const Binding& b, uint32_t row, kv::Value* out) const;

    ScanBatch batch_;
    std::vector<Binding> bindings_;
    // A right input holding dotted field names: MergeTuples' renaming can
    // then collide with them, so rows through it resolve on the merged
    // tuple instead.
    bool dotted_ = false;
  };

  /// One input row of a joined row: its bound batch (which must outlive
  /// the cell) and row index.
  struct JoinCell {
    const JoinBatch* batch = nullptr;
    uint32_t row = 0;
  };
  /// A joined row: one cell per input, in statement order.
  using JoinRow = std::vector<JoinCell>;

  /// Binds a batch of join input `input` (0 = the FROM table).
  JoinBatch BindJoinInput(size_t input, ScanBatch batch) const;

  /// The USING value of join `join` on its build side: the field of input
  /// `join + 1` (a pseudo-column or a stored field; NULL when absent).
  kv::Value BuildKey(size_t join, const JoinBatch& batch, uint32_t row) const;

  /// The USING value of join `join` on its probe side: the field of the
  /// tuple merged from inputs 0..join of `row`.
  kv::Value ProbeKey(size_t join, const JoinRow& row) const;

  /// The predicate over a complete joined row. Identical results and errors
  /// to EvalScalar over the merged tuple.
  Result<bool> JoinedPasses(const JoinRow& row, const EvalContext& ctx) const;

  /// Folds a complete joined row into `groups`, exactly as the row engine's
  /// fold of the merged tuple would; a new group's representative is the
  /// merged tuple.
  Status FoldJoined(const JoinRow& row, const EvalContext& ctx,
                    GroupTable* groups) const;

  /// The tuple MergeTuples builds from the first `inputs` cells of `row`.
  kv::Object MaterializeJoined(const JoinRow& row, size_t inputs) const;

 private:
  struct Node;      // compiled expression node
  struct BatchCtx;  // per-batch ordinal bindings
  struct GroupIds;  // per-batch group ids of the selected rows
  struct JoinEnv;   // joined-row resolution
  struct TupleEnv;  // resolution over a materialized tuple

  /// One way a name of a joined row can resolve: the binding `binding` of
  /// input `input`, provided lookup `guard` (if >= 0) finds its name too.
  struct Candidate {
    int input = 0;
    int binding = 0;
    int guard = -1;
  };

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
  Status FoldRowMajor(const ScanBatch& batch, const BatchCtx& b,
                      const EvalContext& ctx,
                      const std::vector<uint32_t>& sel,
                      GroupTable* groups) const;
  bool FoldsByGroupId(const BatchCtx& b) const;
  void AssignGroupIds(const ScanBatch& batch, const BatchCtx& b,
                      const std::vector<uint32_t>& sel, GroupTable* groups,
                      GroupIds* ids) const;
  template <typename Env>
  Result<bool> PassesWith(const Env& env, const EvalContext& ctx) const;
  /// Folds one row; `represent(group)` sets a new group's representative.
  template <typename Env, typename RepresentFn>
  Status FoldWith(const Env& env, const EvalContext& ctx,
                  const RepresentFn& represent, GroupTable* groups) const;

  // Joined-row name resolution, compiled once (see JoinInputs).
  int Lookup(size_t input, const std::string& name);
  int BindingOf(size_t input, const std::string& name);
  bool FindJoined(int lookup, const JoinRow& row, kv::Value* out) const;
  bool HasDottedRight(const JoinRow& row, size_t inputs) const;
  Status FoldColumnMajor(const Agg& agg, size_t index, const BatchCtx& b,
                         const EvalContext& ctx,
                         const std::vector<uint32_t>& sel,
                         const GroupIds& ids, GroupTable* groups) const;

  std::vector<RefInfo> refs_;  // slot table, indexed by Node::slot
  std::vector<Conjunct> conjuncts_;
  bool predicate_can_error_ = false;
  std::vector<std::unique_ptr<Node>> group_by_;
  bool group_by_can_error_ = false;
  std::vector<Agg> aggs_;

  std::vector<std::string> join_names_;
  std::vector<std::string> using_columns_;
  // Per input: the names its batches bind, in binding order.
  std::vector<std::vector<std::string>> binding_names_;
  // Lookups: the candidates of one name, in priority order.
  std::vector<std::vector<Candidate>> lookups_;
  // Per reference slot: lookup of the qualified name (-1 if unqualified)
  // and of the bare name, over all inputs.
  std::vector<std::pair<int, int>> slot_lookups_;
  // Per join: the probe-side USING lookup and the build-side binding.
  std::vector<int> probe_key_lookups_;
  std::vector<int> build_key_bindings_;
};

}  // namespace sq::sql

#endif  // SQUERY_SQL_VECTORIZED_H_
