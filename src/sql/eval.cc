#include "sql/eval.h"

namespace sq::sql {

namespace detail {

using kv::Value;

Value CompareValues(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value(false);
  switch (op) {
    case BinaryOp::kEq:
      return Value(lhs == rhs);
    case BinaryOp::kNe:
      return Value(lhs != rhs);
    case BinaryOp::kLt:
      return Value(lhs < rhs);
    case BinaryOp::kLe:
      return Value(!(rhs < lhs));
    case BinaryOp::kGt:
      return Value(rhs < lhs);
    case BinaryOp::kGe:
      return Value(!(lhs < rhs));
    default:
      return Value(false);
  }
}

Result<Value> ArithmeticValues(BinaryOp op, const Value& lhs,
                               const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (!lhs.is_numeric() || !rhs.is_numeric()) {
    if (op == BinaryOp::kAdd && lhs.is_string() && rhs.is_string()) {
      return Value(lhs.string_value() + rhs.string_value());
    }
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  if (lhs.is_int64() && rhs.is_int64() && op != BinaryOp::kDiv) {
    const int64_t a = lhs.int64_value();
    const int64_t b = rhs.int64_value();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(a + b);
      case BinaryOp::kSub:
        return Value(a - b);
      case BinaryOp::kMul:
        return Value(a * b);
      default:
        break;
    }
  }
  const double a = lhs.AsDouble();
  const double b = rhs.AsDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value(a + b);
    case BinaryOp::kSub:
      return Value(a - b);
    case BinaryOp::kMul:
      return Value(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Value::Null();
      return Value(a / b);
    default:
      break;
  }
  return Status::Internal("unhandled arithmetic operator");
}

}  // namespace detail

namespace {

using kv::Value;

// Shared over the materialized tuple (Object) and the scan-row view; both
// expose Get/Has with identical resolution semantics.
template <typename TupleT>
Result<Value> EvalScalarImpl(const Expr& expr, const TupleT& tuple,
                             const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      if (!expr.table.empty()) {
        const std::string qualified = expr.table + "." + expr.column;
        if (tuple.Has(qualified)) return tuple.Get(qualified);
      }
      return tuple.Get(expr.column);
    }
    case ExprKind::kUnary: {
      SQ_ASSIGN_OR_RETURN(Value operand,
                          EvalScalarImpl(*expr.children[0], tuple, ctx));
      if (expr.unary_op == UnaryOp::kNot) {
        return Value(!operand.Truthy());
      }
      if (expr.unary_op == UnaryOp::kIsNull) {
        return Value(operand.is_null());
      }
      if (expr.unary_op == UnaryOp::kIsNotNull) {
        return Value(!operand.is_null());
      }
      if (operand.is_null()) return Value::Null();
      if (operand.is_int64()) return Value(-operand.int64_value());
      if (operand.is_double()) return Value(-operand.double_value());
      return Status::InvalidArgument("negation of non-numeric value");
    }
    case ExprKind::kBinary: {
      // Short-circuit boolean connectives.
      if (expr.binary_op == BinaryOp::kAnd) {
        SQ_ASSIGN_OR_RETURN(Value lhs,
                            EvalScalarImpl(*expr.children[0], tuple, ctx));
        if (!lhs.Truthy()) return Value(false);
        SQ_ASSIGN_OR_RETURN(Value rhs,
                            EvalScalarImpl(*expr.children[1], tuple, ctx));
        return Value(rhs.Truthy());
      }
      if (expr.binary_op == BinaryOp::kOr) {
        SQ_ASSIGN_OR_RETURN(Value lhs,
                            EvalScalarImpl(*expr.children[0], tuple, ctx));
        if (lhs.Truthy()) return Value(true);
        SQ_ASSIGN_OR_RETURN(Value rhs,
                            EvalScalarImpl(*expr.children[1], tuple, ctx));
        return Value(rhs.Truthy());
      }
      SQ_ASSIGN_OR_RETURN(Value lhs,
                          EvalScalarImpl(*expr.children[0], tuple, ctx));
      SQ_ASSIGN_OR_RETURN(Value rhs,
                          EvalScalarImpl(*expr.children[1], tuple, ctx));
      switch (expr.binary_op) {
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return detail::CompareValues(expr.binary_op, lhs, rhs);
        default:
          return detail::ArithmeticValues(expr.binary_op, lhs, rhs);
      }
    }
    case ExprKind::kFuncCall: {
      if (expr.column == "LOCALTIMESTAMP") {
        return Value(ctx.local_timestamp_micros);
      }
      if (IsAggregateFunction(expr.column)) {
        // Aggregates are computed by the executor; if one reaches scalar
        // evaluation the statement used it outside an aggregation context.
        return Status::InvalidArgument("aggregate function " + expr.column +
                                       " in scalar context");
      }
      return Status::Unimplemented("unknown function " + expr.column);
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace

Result<kv::Value> EvalScalar(const Expr& expr, const kv::Object& tuple,
                             const EvalContext& ctx) {
  return EvalScalarImpl(expr, tuple, ctx);
}

Result<kv::Value> EvalScalar(const Expr& expr, const ScanRowView& row,
                             const EvalContext& ctx) {
  return EvalScalarImpl(expr, row, ctx);
}

kv::Object MaterializeRow(const kv::Value& key, const kv::Value* ssid,
                          const kv::Object& value) {
  kv::Object tuple = value;
  tuple.Set("key", key);
  tuple.Set("partitionKey", key);
  if (ssid != nullptr) {
    tuple.Set("ssid", *ssid);
  }
  return tuple;
}

}  // namespace sq::sql
