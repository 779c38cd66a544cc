#include "sql/vectorized.h"

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "common/hash.h"
#include "kv/columnar.h"

namespace sq::sql {

namespace {

using kv::Column;
using kv::ColumnBatch;
using kv::Object;
using kv::Value;
using kv::ValueType;

/// In-place selection-vector compaction: keeps rows where `pass(r)` is true,
/// preserving order. `pass` must be branch-predictable cheap; the compaction
/// itself is branch-free.
template <typename F>
void FilterSel(std::vector<uint32_t>* sel, const F& pass) {
  std::vector<uint32_t>& s = *sel;
  size_t n = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const uint32_t r = s[i];
    s[n] = r;
    n += static_cast<size_t>(pass(r));
  }
  s.resize(n);
}

/// Scalar comparison spelled exactly like eval's Value kernel (kLe as
/// !(rhs < lhs) etc.), so typed loops and Value comparisons agree.
template <typename T, typename U>
bool CmpScalar(BinaryOp op, const T& x, const U& y) {
  switch (op) {
    case BinaryOp::kEq:
      return x == y;
    case BinaryOp::kNe:
      return x != y;
    case BinaryOp::kLt:
      return x < y;
    case BinaryOp::kLe:
      return !(y < x);
    case BinaryOp::kGt:
      return y < x;
    case BinaryOp::kGe:
      return !(x < y);
    default:
      return false;
  }
}

/// Mirror-image op for `literal <op> column` conjuncts, so the fast path
/// can always keep the column on the left.
BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

}  // namespace

/// Compiled expression node: the Expr tree with column references resolved
/// to RefInfo slots and function names pre-classified.
struct CompiledScan::Node {
  ExprKind kind = ExprKind::kLiteral;
  Value literal;
  int slot = -1;  // kColumnRef: index into CompiledScan::refs_
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kEq;
  std::string func;  // kFuncCall
  bool is_aggregate = false;
  std::vector<std::unique_ptr<Node>> children;

  /// One evaluator for both engines: `env.Resolve(slot)` supplies column
  /// references, everything else mirrors EvalScalarImpl exactly (AND/OR
  /// short-circuit, two-valued NULL comparison, error texts).
  template <typename Env>
  Result<Value> Eval(const Env& env, const EvalContext& ctx) const {
    switch (kind) {
      case ExprKind::kLiteral:
        return literal;
      case ExprKind::kColumnRef:
        return env.Resolve(slot);
      case ExprKind::kUnary: {
        SQ_ASSIGN_OR_RETURN(Value operand, children[0]->Eval(env, ctx));
        if (unary_op == UnaryOp::kNot) {
          return Value(!operand.Truthy());
        }
        if (unary_op == UnaryOp::kIsNull) {
          return Value(operand.is_null());
        }
        if (unary_op == UnaryOp::kIsNotNull) {
          return Value(!operand.is_null());
        }
        if (operand.is_null()) return Value::Null();
        if (operand.is_int64()) return Value(-operand.int64_value());
        if (operand.is_double()) return Value(-operand.double_value());
        return Status::InvalidArgument("negation of non-numeric value");
      }
      case ExprKind::kBinary: {
        if (binary_op == BinaryOp::kAnd) {
          SQ_ASSIGN_OR_RETURN(Value lhs, children[0]->Eval(env, ctx));
          if (!lhs.Truthy()) return Value(false);
          SQ_ASSIGN_OR_RETURN(Value rhs, children[1]->Eval(env, ctx));
          return Value(rhs.Truthy());
        }
        if (binary_op == BinaryOp::kOr) {
          SQ_ASSIGN_OR_RETURN(Value lhs, children[0]->Eval(env, ctx));
          if (lhs.Truthy()) return Value(true);
          SQ_ASSIGN_OR_RETURN(Value rhs, children[1]->Eval(env, ctx));
          return Value(rhs.Truthy());
        }
        SQ_ASSIGN_OR_RETURN(Value lhs, children[0]->Eval(env, ctx));
        SQ_ASSIGN_OR_RETURN(Value rhs, children[1]->Eval(env, ctx));
        if (IsComparison(binary_op)) {
          return detail::CompareValues(binary_op, lhs, rhs);
        }
        return detail::ArithmeticValues(binary_op, lhs, rhs);
      }
      case ExprKind::kFuncCall: {
        if (func == "LOCALTIMESTAMP") {
          return Value(ctx.local_timestamp_micros);
        }
        if (is_aggregate) {
          return Status::InvalidArgument("aggregate function " + func +
                                         " in scalar context");
        }
        return Status::Unimplemented("unknown function " + func);
      }
    }
    return Status::Internal("unhandled expression kind");
  }
};

/// Per-batch state: column ordinals for every reference slot, resolved once
/// per batch, plus the batch's constant ssid pseudo-column (if any).
struct CompiledScan::BatchCtx {
  const CompiledScan* scan = nullptr;
  const ColumnBatch* rows = nullptr;
  const Value* ssid = nullptr;  // constant per-batch pseudo-column, or null
  struct Ref {
    int qual_col = -1;   // ordinal of the qualified stored field, or -1
    int field_col = -1;  // ordinal of the bare stored field, or -1
  };
  std::vector<Ref> refs;

  Result<Value> Resolve(int slot, size_t row) const {
    const RefInfo& info = scan->refs_[slot];
    const Ref& br = refs[slot];
    if (br.qual_col >= 0 && rows->column(br.qual_col).present(row)) {
      return rows->column(br.qual_col).At(row);
    }
    switch (info.kind) {
      case RefInfo::Kind::kKey:
        return rows->keys()[row];
      case RefInfo::Kind::kSsid:
        if (ssid != nullptr) return *ssid;
        break;
      case RefInfo::Kind::kField:
        break;
    }
    if (br.field_col < 0) return Value::Null();
    return rows->column(br.field_col).At(row);
  }

  /// Eval environment over one row of the batch.
  struct CellEnv {
    const BatchCtx* b;
    size_t row;
    Result<Value> Resolve(int slot) const { return b->Resolve(slot, row); }
  };

  Result<Value> Eval(const Node& node, size_t row,
                     const EvalContext& ctx) const {
    return node.Eval(CellEnv{this, row}, ctx);
  }

  /// `column <cmp> literal` over the selection vector as a tight typed loop.
  /// Returns false when this conjunct needs the generic evaluator (per-row
  /// qualified-field fallback, or a column/literal shape with no fast loop).
  bool ApplyCmp(const Conjunct& c, std::vector<uint32_t>* sel) const {
    const RefInfo& info = scan->refs_[c.cmp_slot];
    const Ref& br = refs[c.cmp_slot];
    // A qualified field that exists in this batch shadows the bare
    // resolution per row; keep the generic path for exactness.
    if (br.qual_col >= 0) return false;
    const Value& lit = c.cmp_literal;
    if (lit.is_null()) {
      // NULL compares false on either side, for every row.
      sel->clear();
      return true;
    }
    int field_col = -1;
    switch (info.kind) {
      case RefInfo::Kind::kKey: {
        const std::vector<Value>& keys = rows->keys();
        FilterSel(sel, [&](uint32_t r) {
          return detail::CompareValues(c.cmp_op, keys[r], lit).bool_value();
        });
        return true;
      }
      case RefInfo::Kind::kSsid:
        if (ssid != nullptr) {
          // Constant for the whole batch: keep all or drop all.
          if (!detail::CompareValues(c.cmp_op, *ssid, lit).bool_value()) {
            sel->clear();
          }
          return true;
        }
        field_col = br.field_col;
        break;
      case RefInfo::Kind::kField:
        field_col = br.field_col;
        break;
    }
    if (field_col < 0) {
      sel->clear();  // every cell NULL -> comparison false
      return true;
    }
    const Column& col = rows->column(field_col);
    if (col.mixed()) {
      const std::vector<Value>& vals = col.values();  // absent cells NULL
      FilterSel(sel, [&](uint32_t r) {
        return detail::CompareValues(c.cmp_op, vals[r], lit).bool_value();
      });
      return true;
    }
    const std::vector<uint8_t>& present = col.presence();
    // A typed column whose type cannot numerically or identically compare
    // with the literal compares by type order: value-independent, so the
    // whole column keeps or drops its present cells at once.
    const auto constant_by_type = [&](const Value& probe) {
      if (detail::CompareValues(c.cmp_op, probe, lit).bool_value()) {
        FilterSel(sel, [&](uint32_t r) { return present[r] != 0; });
      } else {
        sel->clear();
      }
    };
    switch (col.type()) {
      case ValueType::kNull:
        sel->clear();  // no present cells
        return true;
      case ValueType::kInt64: {
        const std::vector<int64_t>& v = col.ints();
        if (lit.is_int64()) {
          const int64_t x = lit.int64_value();
          FilterSel(sel, [&](uint32_t r) {
            return present[r] != 0 && CmpScalar(c.cmp_op, v[r], x);
          });
        } else if (lit.is_double()) {
          const double x = lit.double_value();
          FilterSel(sel, [&](uint32_t r) {
            return present[r] != 0 &&
                   CmpScalar(c.cmp_op, static_cast<double>(v[r]), x);
          });
        } else {
          constant_by_type(Value(int64_t{0}));
        }
        return true;
      }
      case ValueType::kDouble: {
        const std::vector<double>& v = col.doubles();
        if (lit.is_numeric()) {
          const double x = lit.AsDouble();
          FilterSel(sel, [&](uint32_t r) {
            return present[r] != 0 && CmpScalar(c.cmp_op, v[r], x);
          });
        } else {
          constant_by_type(Value(0.0));
        }
        return true;
      }
      case ValueType::kString: {
        const std::vector<std::string>& v = col.strings();
        if (lit.is_string()) {
          const std::string& x = lit.string_value();
          FilterSel(sel, [&](uint32_t r) {
            return present[r] != 0 && CmpScalar(c.cmp_op, v[r], x);
          });
        } else {
          constant_by_type(Value(std::string()));
        }
        return true;
      }
      case ValueType::kBool: {
        const std::vector<uint8_t>& v = col.bools();
        if (lit.is_bool()) {
          const bool x = lit.bool_value();
          FilterSel(sel, [&](uint32_t r) {
            return present[r] != 0 && CmpScalar(c.cmp_op, v[r] != 0, x);
          });
        } else {
          constant_by_type(Value(false));
        }
        return true;
      }
    }
    return false;
  }
};

CompiledScan::CompiledScan(const Expr* predicate,
                           const std::vector<const Expr*>& group_by,
                           const std::vector<const Expr*>& aggregates,
                           const JoinInputs* join) {
  if (predicate != nullptr) {
    // Flatten the top-level AND tree, preserving left-to-right order (the
    // order short-circuit evaluation visits conjuncts in).
    std::vector<const Expr*> flat;
    const std::function<void(const Expr*)> collect = [&](const Expr* e) {
      if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
        collect(e->children[0].get());
        collect(e->children[1].get());
        return;
      }
      flat.push_back(e);
    };
    collect(predicate);
    conjuncts_.reserve(flat.size());
    for (const Expr* e : flat) {
      Conjunct c;
      bool can_error = false;
      c.node = CompileNode(*e, &can_error);
      c.can_error = can_error;
      predicate_can_error_ = predicate_can_error_ || can_error;
      // `column <cmp> literal` fast path, normalized to column-on-left.
      if (e->kind == ExprKind::kBinary && IsComparison(e->binary_op)) {
        const Expr* lhs = e->children[0].get();
        const Expr* rhs = e->children[1].get();
        if (lhs->kind == ExprKind::kColumnRef &&
            rhs->kind == ExprKind::kLiteral) {
          c.cmp_slot = c.node->children[0]->slot;
          c.cmp_op = e->binary_op;
          c.cmp_literal = rhs->literal;
        } else if (rhs->kind == ExprKind::kColumnRef &&
                   lhs->kind == ExprKind::kLiteral) {
          c.cmp_slot = c.node->children[1]->slot;
          c.cmp_op = FlipComparison(e->binary_op);
          c.cmp_literal = lhs->literal;
        }
      }
      conjuncts_.push_back(std::move(c));
    }
  }
  group_by_.reserve(group_by.size());
  for (const Expr* g : group_by) {
    bool can_error = false;
    group_by_.push_back(CompileNode(*g, &can_error));
    group_by_can_error_ = group_by_can_error_ || can_error;
  }
  aggs_.reserve(aggregates.size());
  for (const Expr* call : aggregates) {
    Agg agg;
    agg.call = call;
    if (!call->star && !call->children.empty()) {
      bool can_error = false;
      agg.arg = CompileNode(*call->children[0], &can_error);
      agg.arg_can_error = can_error;
      if (agg.arg->kind == ExprKind::kColumnRef) {
        agg.arg_slot = agg.arg->slot;
      }
    }
    aggs_.push_back(std::move(agg));
  }
  if (join == nullptr) return;
  join_names_ = join->names;
  using_columns_ = join->using_columns;
  binding_names_.resize(join_names_.size());
  const size_t last = join_names_.size() - 1;
  slot_lookups_.reserve(refs_.size());
  for (const RefInfo& info : refs_) {
    const int qualified =
        info.qualified.empty() ? -1 : Lookup(last, info.qualified);
    slot_lookups_.emplace_back(qualified, Lookup(last, info.field));
  }
  for (size_t j = 0; j < using_columns_.size(); ++j) {
    probe_key_lookups_.push_back(Lookup(j, using_columns_[j]));
    build_key_bindings_.push_back(BindingOf(j + 1, using_columns_[j]));
  }
}

CompiledScan::~CompiledScan() = default;

int CompiledScan::BindingOf(size_t input, const std::string& name) {
  std::vector<std::string>& names = binding_names_[input];
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  names.push_back(name);
  return static_cast<int>(names.size() - 1);
}

int CompiledScan::Lookup(size_t input, const std::string& name) {
  // MergeTuples(merged of inputs 0..input-1, input, right_name): a name the
  // left side has keeps the left value, a name only the right side has
  // takes the right value, and "right_name.f" is the right value of a
  // field f both sides have. The last overwrites a left field of that name.
  std::vector<Candidate> candidates;
  const int self = static_cast<int>(input);
  if (input > 0) {
    const std::string& right_name = join_names_[input];
    if (name.size() > right_name.size() + 1 &&
        name.compare(0, right_name.size(), right_name) == 0 &&
        name[right_name.size()] == '.') {
      const std::string field = name.substr(right_name.size() + 1);
      const int guard = Lookup(input - 1, field);
      candidates.push_back(Candidate{self, BindingOf(input, field), guard});
    }
    const int prior = Lookup(input - 1, name);
    const std::vector<Candidate> left = lookups_[prior];
    candidates.insert(candidates.end(), left.begin(), left.end());
  }
  candidates.push_back(Candidate{self, BindingOf(input, name), -1});
  lookups_.push_back(std::move(candidates));
  return static_cast<int>(lookups_.size() - 1);
}

std::unique_ptr<CompiledScan::Node> CompiledScan::CompileNode(
    const Expr& expr, bool* can_error) {
  auto node = std::make_unique<Node>();
  node->kind = expr.kind;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      node->literal = expr.literal;
      break;
    case ExprKind::kColumnRef: {
      RefInfo info;
      if (!expr.table.empty()) {
        info.qualified = expr.table + "." + expr.column;
      }
      info.field = expr.column;
      if (expr.column == "key" || expr.column == "partitionKey") {
        info.kind = RefInfo::Kind::kKey;
      } else if (expr.column == "ssid") {
        info.kind = RefInfo::Kind::kSsid;
      }
      node->slot = static_cast<int>(refs_.size());
      refs_.push_back(std::move(info));
      break;
    }
    case ExprKind::kUnary:
      node->unary_op = expr.unary_op;
      node->children.push_back(CompileNode(*expr.children[0], can_error));
      if (expr.unary_op == UnaryOp::kNeg) *can_error = true;
      break;
    case ExprKind::kBinary:
      node->binary_op = expr.binary_op;
      node->children.push_back(CompileNode(*expr.children[0], can_error));
      node->children.push_back(CompileNode(*expr.children[1], can_error));
      if (!IsComparison(expr.binary_op) &&
          expr.binary_op != BinaryOp::kAnd &&
          expr.binary_op != BinaryOp::kOr) {
        *can_error = true;  // arithmetic errors on non-numeric operands
      }
      break;
    case ExprKind::kFuncCall:
      node->func = expr.column;
      node->is_aggregate = IsAggregateFunction(expr.column);
      if (expr.column != "LOCALTIMESTAMP") *can_error = true;
      break;
  }
  return node;
}

Result<bool> CompiledScan::PredicatePasses(const ScanRowView& row,
                                           const EvalContext& ctx) const {
  // Eval environment over an unmaterialized scan row (the row engine's
  // pushdown hot path): pseudo-column dispatch decided at compile time.
  struct RowEnv {
    const std::vector<RefInfo>* refs;
    const ScanRowView* row;

    Result<Value> Resolve(int slot) const {
      const RefInfo& info = (*refs)[slot];
      if (!info.qualified.empty() && row->value->Has(info.qualified)) {
        return row->value->Get(info.qualified);
      }
      switch (info.kind) {
        case RefInfo::Kind::kKey:
          return *row->key;
        case RefInfo::Kind::kSsid:
          if (row->ssid != nullptr) return *row->ssid;
          break;
        case RefInfo::Kind::kField:
          break;
      }
      return row->value->Get(info.field);
    }
  };
  return PassesWith(RowEnv{&refs_, &row}, ctx);
}

template <typename Env>
Result<bool> CompiledScan::PassesWith(const Env& env,
                                      const EvalContext& ctx) const {
  for (const Conjunct& c : conjuncts_) {
    SQ_ASSIGN_OR_RETURN(Value v, c.node->Eval(env, ctx));
    if (!v.Truthy()) return false;
  }
  return true;
}

CompiledScan::BatchCtx CompiledScan::Bind(const ScanBatch& batch) const {
  BatchCtx b;
  b.scan = this;
  b.rows = batch.rows.get();
  b.ssid = batch.ssid.has_value() ? &*batch.ssid : nullptr;
  b.refs.resize(refs_.size());
  for (size_t i = 0; i < refs_.size(); ++i) {
    const RefInfo& info = refs_[i];
    if (!info.qualified.empty()) {
      b.refs[i].qual_col = b.rows->FindColumn(info.qualified);
    }
    if (info.kind == RefInfo::Kind::kField ||
        (info.kind == RefInfo::Kind::kSsid && b.ssid == nullptr)) {
      b.refs[i].field_col = b.rows->FindColumn(info.field);
    }
  }
  return b;
}

Status CompiledScan::FilterRows(const BatchCtx& b, const EvalContext& ctx,
                                std::vector<uint32_t>* sel) const {
  const ColumnBatch& rows = *b.rows;
  const size_t n = rows.row_count();
  sel->clear();
  sel->reserve(n);
  if (rows.has_tombstones()) {
    // Scan batches from the query layer are tombstone-free (merged views);
    // skip deletion markers defensively should a raw log batch arrive.
    for (uint32_t r = 0; r < n; ++r) {
      if (!rows.tombstone(r)) sel->push_back(r);
    }
  } else {
    for (uint32_t r = 0; r < n; ++r) sel->push_back(r);
  }
  if (conjuncts_.empty()) return Status::OK();
  if (predicate_can_error_) {
    // A conjunct that can raise an error must see rows in scan order and
    // only rows that passed the conjuncts before it, or the surfaced error
    // could differ from the row engine's. Row-major short-circuit gives
    // exactly that.
    size_t kept = 0;
    for (const uint32_t r : *sel) {
      SQ_ASSIGN_OR_RETURN(const bool pass,
                          PassesWith(BatchCtx::CellEnv{&b, r}, ctx));
      if (pass) (*sel)[kept++] = r;
    }
    sel->resize(kept);
    return Status::OK();
  }
  // Error-free predicate: conjunct-at-a-time over the shrinking selection
  // vector. Evaluation order across rows does not matter without errors, so
  // each conjunct may run as one tight loop.
  for (const Conjunct& c : conjuncts_) {
    if (sel->empty()) break;
    if (c.cmp_slot >= 0 && b.ApplyCmp(c, sel)) continue;
    size_t kept = 0;
    for (const uint32_t r : *sel) {
      Result<Value> v = b.Eval(*c.node, r, ctx);
      if (!v.ok()) return v.status();  // unreachable: conjunct is error-free
      if (v->Truthy()) (*sel)[kept++] = r;
    }
    sel->resize(kept);
  }
  return Status::OK();
}

template <typename Env, typename RepresentFn>
Status CompiledScan::FoldWith(const Env& env, const EvalContext& ctx,
                              const RepresentFn& represent,
                              GroupTable* groups) const {
  static const Value kCountStarArg(int64_t{1});
  // Reused across rows, so a row of an existing group allocates no key.
  thread_local std::vector<Value> key;
  key.clear();
  for (const auto& expr : group_by_) {
    SQ_ASSIGN_OR_RETURN(Value v, expr->Eval(env, ctx));
    key.push_back(std::move(v));
  }
  const auto [group, inserted] =
      groups->FindOrInsert(key.data(), key.size(), aggs_.size());
  if (inserted) represent(group);
  AggState* states = groups->aggs(group);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const Agg& agg = aggs_[a];
    if (agg.call->star || agg.call->children.empty()) {
      SQ_RETURN_IF_ERROR(
          AccumulateAggregate(*agg.call, kCountStarArg, &states[a]));
      continue;
    }
    SQ_ASSIGN_OR_RETURN(Value v, agg.arg->Eval(env, ctx));
    SQ_RETURN_IF_ERROR(AccumulateAggregate(*agg.call, v, &states[a]));
  }
  return Status::OK();
}

Status CompiledScan::FoldRowMajor(const ScanBatch& batch, const BatchCtx& b,
                                  const EvalContext& ctx,
                                  const std::vector<uint32_t>& sel,
                                  GroupTable* groups) const {
  for (const uint32_t r : sel) {
    SQ_RETURN_IF_ERROR(FoldWith(
        BatchCtx::CellEnv{&b, r}, ctx,
        [&](uint32_t group) { groups->SetRepresentative(group, batch, r); },
        groups));
  }
  return Status::OK();
}

/// The group ids of one batch's selected rows. `codes[i]` numbers the
/// distinct keys among the selected rows in first-seen order; `first[c]` is
/// the selection index of key c's first row, and `groups[c]` its group in
/// the partition's GroupTable. Buffers are reused from batch to batch.
struct CompiledScan::GroupIds {
  static constexpr uint32_t kEmpty = UINT32_MAX;

  std::vector<uint32_t> codes;
  std::vector<uint32_t> first;
  std::vector<uint32_t> groups;
  // Recode's scratch: its hash table of new codes, and per new code the
  // first row, the code it refines and its hash.
  std::vector<uint32_t> table;
  std::vector<uint32_t> next_first;
  std::vector<uint32_t> prior;
  std::vector<uint64_t> hashes;

  /// Every selected row starts with the same (empty) key.
  void Start(size_t rows) {
    codes.assign(rows, 0);
    first.assign(1, 0);
  }

  /// Refines the codes by one more key column: rows keep one code iff they
  /// had one code and `eq` holds for their cells. `hash` must agree with
  /// `eq`; a cell unequal to itself (NaN) gets a code of its own.
  template <typename Hash, typename Eq>
  void Recode(const std::vector<uint32_t>& sel, const Hash& hash,
              const Eq& eq) {
    const size_t n = codes.size();
    size_t capacity = 16;
    while (capacity < 2 * n) capacity *= 2;
    table.assign(capacity, kEmpty);
    next_first.clear();
    prior.clear();
    hashes.clear();
    const size_t mask = capacity - 1;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = sel[i];
      const uint32_t old = codes[i];
      const uint64_t h = sq::CombineHashes(hash(r), old);
      for (size_t s = h & mask;; s = (s + 1) & mask) {
        uint32_t c = table[s];
        if (c == kEmpty) {
          c = static_cast<uint32_t>(next_first.size());
          table[s] = c;
          next_first.push_back(static_cast<uint32_t>(i));
          prior.push_back(old);
          hashes.push_back(h);
        } else if (hashes[c] != h || prior[c] != old ||
                   !eq(sel[next_first[c]], r)) {
          continue;
        }
        codes[i] = c;
        break;
      }
    }
    first.swap(next_first);
  }
};

namespace {

constexpr uint64_t kAbsentCellHash = 0x9e3779b97f4a7c15ULL;

/// Refines `ids` by a typed column: absent cells (NULL) form one key, and
/// present cells compare with `==`, as Value equality does within one type.
template <typename Ids, typename T, typename CellHash>
void RecodeTyped(const std::vector<uint8_t>& present, const std::vector<T>& v,
                 const CellHash& cell_hash, const std::vector<uint32_t>& sel,
                 Ids* ids) {
  ids->Recode(
      sel,
      [&](uint32_t r) {
        return present[r] != 0 ? cell_hash(v[r]) : kAbsentCellHash;
      },
      [&](uint32_t x, uint32_t y) {
        const bool px = present[x] != 0;
        return px == (present[y] != 0) && (!px || v[x] == v[y]);
      });
}

template <typename Ids>
void RecodeColumn(const Column& col, const std::vector<uint32_t>& sel,
                  Ids* ids) {
  const std::vector<uint8_t>& present = col.presence();
  switch (col.type()) {
    case ValueType::kNull:
      return;  // every cell absent: one key
    case ValueType::kBool:
      RecodeTyped(present, col.bools(),
                  [](uint8_t x) { return sq::HashInt64(x != 0 ? 1 : 0); },
                  sel, ids);
      return;
    case ValueType::kInt64:
      RecodeTyped(present, col.ints(),
                  [](int64_t x) { return sq::HashInt64(x); }, sel, ids);
      return;
    case ValueType::kDouble:
      RecodeTyped(present, col.doubles(),
                  [](double x) {
                    if (x == 0.0) return sq::HashInt64(0);  // -0.0 == 0.0
                    int64_t bits;
                    std::memcpy(&bits, &x, sizeof(bits));
                    return sq::HashInt64(bits);
                  },
                  sel, ids);
      return;
    case ValueType::kString:
      RecodeTyped(present, col.strings(),
                  [](const std::string& x) { return sq::HashString(x); }, sel,
                  ids);
      return;
  }
}

/// Folds a batch's best MIN/MAX cell per key into its group's state. Within
/// the batch the first of equal cells wins, as in a sequential scan; against
/// the state, the state (earlier rows) wins ties.
template <typename T>
void FoldBest(bool min, const std::vector<T>& v,
              const std::vector<uint8_t>& present,
              const std::vector<uint32_t>& sel,
              const std::vector<uint32_t>& codes,
              const std::vector<AggState*>& states) {
  constexpr int64_t kNone = -1;
  thread_local std::vector<int64_t> best;
  best.assign(states.size(), kNone);
  for (size_t i = 0; i < sel.size(); ++i) {
    const uint32_t r = sel[i];
    if (present[r] == 0) continue;
    ++states[codes[i]]->count;
    int64_t& b = best[codes[i]];
    if (b == kNone || (min ? v[r] < v[static_cast<size_t>(b)]
                           : v[static_cast<size_t>(b)] < v[r])) {
      b = r;
    }
  }
  for (size_t c = 0; c < states.size(); ++c) {
    if (best[c] == kNone) continue;
    const Value bv(v[static_cast<size_t>(best[c])]);
    AggState& state = *states[c];
    if (!state.has_best || (min ? bv < state.best : state.best < bv)) {
      state.best = bv;
    }
    state.has_best = true;
  }
}

}  // namespace

void CompiledScan::AssignGroupIds(const ScanBatch& batch, const BatchCtx& b,
                                  const std::vector<uint32_t>& sel,
                                  GroupTable* groups, GroupIds* ids) const {
  ids->Start(sel.size());
  for (const auto& node : group_by_) {
    const RefInfo& info = refs_[node->slot];
    if (info.kind == RefInfo::Kind::kKey) {
      const std::vector<Value>& keys = b.rows->keys();
      ids->Recode(
          sel, [&](uint32_t r) { return keys[r].Hash(); },
          [&](uint32_t x, uint32_t y) { return keys[x] == keys[y]; });
      continue;
    }
    if (info.kind == RefInfo::Kind::kSsid && b.ssid != nullptr) {
      continue;  // constant per batch
    }
    const int col = b.refs[node->slot].field_col;
    if (col >= 0) RecodeColumn(b.rows->column(col), sel, ids);
  }
  // One lookup per distinct key, in first-seen order: a new group's first
  // row is the batch's first selected row with that key.
  thread_local std::vector<Value> key;
  ids->groups.clear();
  for (const uint32_t i : ids->first) {
    const uint32_t r = sel[i];
    key.clear();
    for (const auto& node : group_by_) {
      key.push_back(b.Resolve(node->slot, r).value());
    }
    const auto [group, inserted] =
        groups->FindOrInsert(key.data(), key.size(), aggs_.size());
    if (inserted) groups->SetRepresentative(group, batch, r);
    ids->groups.push_back(group);
  }
}

Status CompiledScan::FoldColumnMajor(const Agg& agg, size_t index,
                                     const BatchCtx& b,
                                     const EvalContext& ctx,
                                     const std::vector<uint32_t>& sel,
                                     const GroupIds& ids,
                                     GroupTable* groups) const {
  static const Value kCountStarArg(int64_t{1});
  thread_local std::vector<AggState*> states;
  states.clear();
  for (const uint32_t group : ids.groups) {
    states.push_back(groups->aggs(group) + index);
  }
  const std::vector<uint32_t>& codes = ids.codes;
  if (agg.call->star) {
    for (size_t i = 0; i < sel.size(); ++i) ++states[codes[i]]->count;
    return Status::OK();
  }
  const std::string& fn = agg.call->column;
  if (!agg.call->distinct_arg && agg.arg_slot >= 0) {
    const RefInfo& info = refs_[agg.arg_slot];
    const BatchCtx::Ref& br = b.refs[agg.arg_slot];
    const bool bare_field =
        br.qual_col < 0 &&
        (info.kind == RefInfo::Kind::kField ||
         (info.kind == RefInfo::Kind::kSsid && b.ssid == nullptr));
    if (bare_field) {
      if (br.field_col < 0) return Status::OK();  // all NULL: skipped
      const Column& col = b.rows->column(br.field_col);
      if (!col.mixed()) {
        const std::vector<uint8_t>& present = col.presence();
        if (col.type() == ValueType::kNull) return Status::OK();
        const bool min = fn == "MIN";
        if (fn == "COUNT") {
          for (size_t i = 0; i < sel.size(); ++i) {
            states[codes[i]]->count += present[sel[i]] != 0 ? 1 : 0;
          }
          return Status::OK();
        }
        if (col.type() == ValueType::kInt64) {
          const std::vector<int64_t>& v = col.ints();
          if (fn == "SUM" || fn == "AVG") {
            for (size_t i = 0; i < sel.size(); ++i) {
              const uint32_t r = sel[i];
              if (present[r] == 0) continue;
              AggState& state = *states[codes[i]];
              ++state.count;
              state.isum += v[r];
              state.sum += static_cast<double>(v[r]);
            }
            return Status::OK();
          }
          if (min || fn == "MAX") {
            FoldBest(min, v, present, sel, codes, states);
            return Status::OK();
          }
        }
        if (col.type() == ValueType::kDouble) {
          const std::vector<double>& v = col.doubles();
          if (fn == "SUM" || fn == "AVG") {
            for (size_t i = 0; i < sel.size(); ++i) {
              const uint32_t r = sel[i];
              if (present[r] == 0) continue;
              AggState& state = *states[codes[i]];
              ++state.count;
              state.all_int = false;
              state.sum += v[r];
            }
            return Status::OK();
          }
          if (min || fn == "MAX") {
            FoldBest(min, v, present, sel, codes, states);
            return Status::OK();
          }
        }
        if (col.type() == ValueType::kString && (min || fn == "MAX")) {
          FoldBest(min, col.strings(), present, sel, codes, states);
          return Status::OK();
        }
      }
    }
  }
  // Generic cell loop (mixed columns, DISTINCT, computed arguments). Only
  // reached for folds classified error-free; within-group row order is
  // preserved, which is what float summation and MIN/MAX ties need.
  for (size_t i = 0; i < sel.size(); ++i) {
    Value v = kCountStarArg;
    if (agg.arg != nullptr) {
      SQ_ASSIGN_OR_RETURN(v, b.Eval(*agg.arg, sel[i], ctx));
    }
    SQ_RETURN_IF_ERROR(AccumulateAggregate(*agg.call, v, states[codes[i]]));
  }
  return Status::OK();
}

bool CompiledScan::FoldsByGroupId(const BatchCtx& b) const {
  // Group keys: one column each, typed across the batch (a mixed column
  // would need a Value per row anyway), or a pseudo-column. A qualified
  // field present in the batch shadows the bare one row by row.
  for (const auto& node : group_by_) {
    if (node->kind != ExprKind::kColumnRef) return false;
    const RefInfo& info = refs_[node->slot];
    const BatchCtx::Ref& br = b.refs[node->slot];
    if (br.qual_col >= 0) return false;
    if (info.kind == RefInfo::Kind::kKey ||
        (info.kind == RefInfo::Kind::kSsid && b.ssid != nullptr)) {
      continue;
    }
    if (br.field_col >= 0 && b.rows->column(br.field_col).mixed()) {
      return false;
    }
  }
  // Aggregates: folding a column at a time reorders evaluation across rows
  // and aggregates, which is only safe when no fold can error (an error's
  // row/aggregate position must match the row engine).
  for (const Agg& agg : aggs_) {
    if (agg.call->star) continue;
    if (agg.call->children.empty() ||
        (agg.call->column != "COUNT" && agg.call->children.size() != 1)) {
      return false;  // malformed call: per-row arity errors
    }
    if (agg.arg_can_error) return false;
    if ((agg.call->column == "SUM" || agg.call->column == "AVG") &&
        !agg.call->distinct_arg) {
      // SUM/AVG error on non-numeric input; prove the argument is
      // numeric-or-NULL or fold row-major.
      bool numeric = false;
      if (agg.arg->kind == ExprKind::kLiteral) {
        numeric = agg.arg->literal.is_null() || agg.arg->literal.is_numeric();
      } else if (agg.arg_slot >= 0) {
        const RefInfo& info = refs_[agg.arg_slot];
        const BatchCtx::Ref& br = b.refs[agg.arg_slot];
        if (br.qual_col < 0) {
          if (info.kind == RefInfo::Kind::kSsid && b.ssid != nullptr) {
            numeric = b.ssid->is_numeric();
          } else if (info.kind == RefInfo::Kind::kField ||
                     info.kind == RefInfo::Kind::kSsid) {
            if (br.field_col < 0) {
              numeric = true;  // all NULL: fold never runs
            } else {
              const Column& col = b.rows->column(br.field_col);
              numeric = !col.mixed() && (col.type() == ValueType::kNull ||
                                         col.type() == ValueType::kInt64 ||
                                         col.type() == ValueType::kDouble);
            }
          }
        }
      }
      if (!numeric) return false;
    }
  }
  return true;
}

Status CompiledScan::AccumulateBatch(const ScanBatch& batch,
                                     const EvalContext& ctx,
                                     GroupTable* groups,
                                     int64_t* rows_returned) const {
  const BatchCtx b = Bind(batch);
  std::vector<uint32_t> sel;
  SQ_RETURN_IF_ERROR(FilterRows(b, ctx, &sel));
  *rows_returned += static_cast<int64_t>(sel.size());
  if (sel.empty()) return Status::OK();
  if (!FoldsByGroupId(b)) {
    return FoldRowMajor(batch, b, ctx, sel, groups);
  }
  // By group id: keys first, a column at a time, then each aggregate over
  // the whole selection into its rows' groups.
  thread_local GroupIds ids;
  AssignGroupIds(batch, b, sel, groups, &ids);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    SQ_RETURN_IF_ERROR(
        FoldColumnMajor(aggs_[a], a, b, ctx, sel, ids, groups));
  }
  return Status::OK();
}

Status CompiledScan::FilterBatch(const ScanBatch& batch,
                                 const EvalContext& ctx,
                                 std::vector<kv::Object>* out,
                                 int64_t* rows_returned) const {
  const BatchCtx b = Bind(batch);
  std::vector<uint32_t> sel;
  SQ_RETURN_IF_ERROR(FilterRows(b, ctx, &sel));
  *rows_returned += static_cast<int64_t>(sel.size());
  out->reserve(out->size() + sel.size());
  for (const uint32_t r : sel) {
    out->push_back(
        MaterializeRow(b.rows->keys()[r], b.ssid, b.rows->MaterializeRow(r)));
  }
  return Status::OK();
}

// --- Joined rows.

/// Eval environment over a materialized tuple, resolving column references
/// exactly as EvalScalar does (a qualified name first, then the bare one).
struct CompiledScan::TupleEnv {
  const std::vector<RefInfo>* refs;
  const Object* tuple;

  Result<Value> Resolve(int slot) const {
    const RefInfo& info = (*refs)[slot];
    if (!info.qualified.empty() && tuple->Has(info.qualified)) {
      return tuple->Get(info.qualified);
    }
    return tuple->Get(info.field);
  }
};

/// Eval environment over a joined row whose right inputs hold no dotted
/// field names: each reference resolves through its compiled lookups.
struct CompiledScan::JoinEnv {
  const CompiledScan* scan;
  const JoinRow* row;

  Result<Value> Resolve(int slot) const {
    const auto [qualified, field] = scan->slot_lookups_[slot];
    Value v;
    if (qualified >= 0 && scan->FindJoined(qualified, *row, &v)) return v;
    if (scan->FindJoined(field, *row, &v)) return v;
    return Value::Null();
  }
};

bool CompiledScan::JoinBatch::Find(const Binding& b, uint32_t row,
                                   Value* out) const {
  switch (b.kind) {
    case Binding::Kind::kAbsent:
      return false;
    case Binding::Kind::kKey:
      if (out != nullptr) *out = batch_.rows->keys()[row];
      return true;
    case Binding::Kind::kSsid:
      if (out != nullptr) *out = *batch_.ssid;
      return true;
    case Binding::Kind::kColumn: {
      const Column& col = batch_.rows->column(static_cast<size_t>(b.column));
      if (!col.present(row)) return false;
      if (out != nullptr) *out = col.At(row);
      return true;
    }
  }
  return false;
}

CompiledScan::JoinBatch CompiledScan::BindJoinInput(size_t input,
                                                    ScanBatch batch) const {
  JoinBatch out;
  out.batch_ = std::move(batch);
  const ColumnBatch& rows = *out.batch_.rows;
  using Kind = JoinBatch::Binding::Kind;
  for (const std::string& name : binding_names_[input]) {
    JoinBatch::Binding b;
    if (name == "key" || name == "partitionKey") {
      b.kind = Kind::kKey;
    } else if (name == "ssid" && out.batch_.ssid.has_value()) {
      b.kind = Kind::kSsid;
    } else {
      b.column = rows.FindColumn(name);
      b.kind = b.column >= 0 ? Kind::kColumn : Kind::kAbsent;
    }
    out.bindings_.push_back(b);
  }
  if (input > 0) {
    for (const std::string& name : rows.names()) {
      if (name.find('.') != std::string::npos) out.dotted_ = true;
    }
  }
  return out;
}

bool CompiledScan::FindJoined(int lookup, const JoinRow& row,
                              Value* out) const {
  for (const Candidate& c : lookups_[static_cast<size_t>(lookup)]) {
    const JoinCell& cell = row[static_cast<size_t>(c.input)];
    const JoinBatch::Binding& b =
        cell.batch->bindings_[static_cast<size_t>(c.binding)];
    if (!cell.batch->Find(b, cell.row, nullptr)) continue;
    if (c.guard >= 0 && !FindJoined(c.guard, row, nullptr)) continue;
    if (out != nullptr) cell.batch->Find(b, cell.row, out);
    return true;
  }
  return false;
}

bool CompiledScan::HasDottedRight(const JoinRow& row, size_t inputs) const {
  for (size_t i = 1; i < inputs; ++i) {
    if (row[i].batch->dotted_) return true;
  }
  return false;
}

Value CompiledScan::BuildKey(size_t join, const JoinBatch& batch,
                             uint32_t row) const {
  Value v;
  const JoinBatch::Binding& b =
      batch.bindings_[static_cast<size_t>(build_key_bindings_[join])];
  return batch.Find(b, row, &v) ? v : Value::Null();
}

Value CompiledScan::ProbeKey(size_t join, const JoinRow& row) const {
  if (HasDottedRight(row, join + 1)) {
    return MaterializeJoined(row, join + 1).Get(using_columns_[join]);
  }
  Value v;
  return FindJoined(probe_key_lookups_[join], row, &v) ? v : Value::Null();
}

Result<bool> CompiledScan::JoinedPasses(const JoinRow& row,
                                        const EvalContext& ctx) const {
  if (HasDottedRight(row, row.size())) {
    const Object merged = MaterializeJoined(row, row.size());
    return PassesWith(TupleEnv{&refs_, &merged}, ctx);
  }
  return PassesWith(JoinEnv{this, &row}, ctx);
}

Status CompiledScan::FoldJoined(const JoinRow& row, const EvalContext& ctx,
                                GroupTable* groups) const {
  if (HasDottedRight(row, row.size())) {
    const Object merged = MaterializeJoined(row, row.size());
    return FoldWith(
        TupleEnv{&refs_, &merged}, ctx,
        [&](uint32_t group) { groups->SetRepresentative(group, merged); },
        groups);
  }
  return FoldWith(
      JoinEnv{this, &row}, ctx,
      [&](uint32_t group) {
        groups->SetRepresentative(group, MaterializeJoined(row, row.size()));
      },
      groups);
}

Object CompiledScan::MaterializeJoined(const JoinRow& row,
                                       size_t inputs) const {
  Object merged;
  for (size_t i = 0; i < inputs; ++i) {
    const ScanBatch& batch = row[i].batch->batch_;
    const uint32_t r = row[i].row;
    Object tuple = MaterializeRow(batch.rows->keys()[r],
                                  batch.ssid.has_value() ? &*batch.ssid
                                                         : nullptr,
                                  batch.rows->MaterializeRow(r));
    merged = i == 0 ? std::move(tuple)
                    : MergeTuples(merged, tuple, join_names_[i]);
  }
  return merged;
}

}  // namespace sq::sql
