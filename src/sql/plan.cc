#include "sql/plan.h"

#include <algorithm>
#include <functional>
#include <set>

namespace sq::sql {

namespace {

using kv::Value;

/// True if `expr` is a reference to the state-key pseudo-column of the
/// scanned table: `key` / `partitionKey`, unqualified, or qualified with the
/// FROM table's effective name (`from_name`; empty when a JOIN table shares
/// that name, since its conflicting key then answers to the qualified
/// name). In a joined row the unqualified key is the FROM table's: on a
/// name conflict the left value wins.
bool IsKeyColumnRef(const Expr& expr, const std::string& from_name) {
  if (expr.kind != ExprKind::kColumnRef) return false;
  if (!expr.table.empty() && expr.table != from_name) return false;
  return expr.column == "key" || expr.column == "partitionKey";
}

/// If `expr` is `key = <literal>` (either operand order), appends the
/// literal and returns true.
bool CollectKeyEquality(const Expr& expr, const std::string& from_name,
                        std::set<Value>* out) {
  if (expr.kind != ExprKind::kBinary || expr.binary_op != BinaryOp::kEq) {
    return false;
  }
  const Expr* lhs = expr.children[0].get();
  const Expr* rhs = expr.children[1].get();
  if (!IsKeyColumnRef(*lhs, from_name)) std::swap(lhs, rhs);
  if (!IsKeyColumnRef(*lhs, from_name) || rhs->kind != ExprKind::kLiteral ||
      rhs->literal.is_null()) {
    return false;
  }
  out->insert(rhs->literal);
  return true;
}

/// If `expr` is a pure OR-chain of key equalities (the parser's desugaring
/// of `key IN (...)`), collects every literal and returns true.
bool CollectKeyRestriction(const Expr& expr, const std::string& from_name,
                           std::set<Value>* out) {
  if (expr.kind == ExprKind::kBinary && expr.binary_op == BinaryOp::kOr) {
    return CollectKeyRestriction(*expr.children[0], from_name, out) &&
           CollectKeyRestriction(*expr.children[1], from_name, out);
  }
  return CollectKeyEquality(expr, from_name, out);
}

/// Visits the top-level AND conjuncts of a WHERE tree.
void ForEachConjunct(const Expr& expr,
                     const std::function<void(const Expr&)>& fn) {
  if (expr.kind == ExprKind::kBinary && expr.binary_op == BinaryOp::kAnd) {
    ForEachConjunct(*expr.children[0], fn);
    ForEachConjunct(*expr.children[1], fn);
    return;
  }
  fn(expr);
}

}  // namespace

ScanPlan BuildScanPlan(const SelectStatement& stmt, bool enable_pushdown) {
  ScanPlan plan;
  if (!enable_pushdown || stmt.where == nullptr) return plan;
  plan.predicate = stmt.where.get();

  // Intersect the key sets of every key-restricting conjunct.
  std::optional<std::set<Value>> keys;
  std::string from_name = stmt.from.effective_name();
  for (const JoinClause& join : stmt.joins) {
    if (join.table.effective_name() == from_name) from_name.clear();
  }
  ForEachConjunct(*stmt.where, [&](const Expr& conjunct) {
    std::set<Value> restriction;
    if (!CollectKeyRestriction(conjunct, from_name, &restriction)) return;
    if (!keys.has_value()) {
      keys = std::move(restriction);
      return;
    }
    std::set<Value> intersection;
    std::set_intersection(keys->begin(), keys->end(), restriction.begin(),
                          restriction.end(),
                          std::inserter(intersection, intersection.begin()));
    keys = std::move(intersection);
  });
  if (keys.has_value()) {
    plan.keys.emplace(keys->begin(), keys->end());
  }
  return plan;
}

}  // namespace sq::sql
