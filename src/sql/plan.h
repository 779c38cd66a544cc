#ifndef SQUERY_SQL_PLAN_H_
#define SQUERY_SQL_PLAN_H_

#include <optional>
#include <vector>

#include "kv/value.h"
#include "sql/ast.h"

namespace sq::sql {

/// The push-down portion of a SELECT's base-table scan, computed once per
/// query.
struct ScanPlan {
  /// Filter to evaluate inside the scan callbacks (points into the
  /// statement's WHERE tree; null = nothing pushed). When set it is the
  /// *entire* WHERE clause, so the executor skips its post-scan filter. With
  /// joins it runs on each joined row, inside the partition that joins it.
  const Expr* predicate = nullptr;

  /// When set, the scan degenerates to point lookups of exactly these keys
  /// (routed through the partitioner — the paper's direct-object fast path
  /// for SQL). Extracted from `key = <literal>` / `partitionKey = <literal>`
  /// conjuncts and IN-lists of literals (parsed as OR-chains of equalities)
  /// on the FROM table's key; several such conjuncts intersect. Deduplicated and sorted; may be empty
  /// (provably no matching row). The conjuncts stay in `predicate`, so mixed
  /// value types still compare exactly as a full scan would.
  std::optional<std::vector<kv::Value>> keys;
};

/// Analyzes `stmt` for pushdown. Returns an empty plan when
/// `enable_pushdown` is false.
ScanPlan BuildScanPlan(const SelectStatement& stmt, bool enable_pushdown);

}  // namespace sq::sql

#endif  // SQUERY_SQL_PLAN_H_
