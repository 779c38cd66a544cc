#ifndef SQUERY_SQL_EVAL_H_
#define SQUERY_SQL_EVAL_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "kv/object.h"
#include "sql/ast.h"

namespace sq::sql {

/// Per-query evaluation environment.
struct EvalContext {
  /// Value of LOCALTIMESTAMP, fixed once per query so all rows see the same
  /// timestamp. Unix microseconds.
  int64_t local_timestamp_micros = 0;
};

/// Evaluates a scalar (non-aggregate) expression against one tuple. Column
/// references resolve against the tuple's fields: a qualified reference
/// `t.c` first tries the field "t.c" (kept on join-name conflicts), then
/// "c". Unknown columns evaluate to NULL.
Result<kv::Value> EvalScalar(const Expr& expr, const kv::Object& tuple,
                             const EvalContext& ctx);

/// A scan-time row: the raw state object plus the pseudo-columns (`key`,
/// `partitionKey`, and for snapshot scans `ssid`) resolved by reference,
/// without building the merged tuple. Field resolution mirrors the tuple the
/// query layer materializes (pseudo-columns shadow same-named object fields),
/// so a predicate pushed down to the scan sees exactly what a
/// post-materialization filter would — rows it rejects are never copied.
struct ScanRowView {
  const kv::Value* key = nullptr;    // also `partitionKey`
  const kv::Value* ssid = nullptr;   // null on live-table scans
  const kv::Object* value = nullptr;

  const kv::Value& Get(std::string_view name) const {
    if (name == "key" || name == "partitionKey") return *key;
    if (ssid != nullptr && name == "ssid") return *ssid;
    return value->Get(name);
  }
  bool Has(std::string_view name) const {
    if (name == "key" || name == "partitionKey") return true;
    if (ssid != nullptr && name == "ssid") return true;
    return value->Has(name);
  }
};

/// The tuple a scan row materializes to: the state object plus the
/// pseudo-columns `key` and `partitionKey` (both the state key) and, when
/// `ssid` is non-null, `ssid`. The one definition of the tuple shape, shared
/// by both engines, and in lockstep with ScanRowView's resolution.
kv::Object MaterializeRow(const kv::Value& key, const kv::Value* ssid,
                          const kv::Object& value);

/// The tuple a JOIN ... USING builds from a left and a right tuple: the left
/// tuple plus every right field; on a name conflict the left value wins and
/// the right value is kept as "<right_name>.<field>" (which a qualified
/// reference `right_name.field` then finds). Both engines join through this
/// definition: the row engine calls it per pair, the vectorized engine
/// resolves fields as it would and calls it only for rows it emits.
kv::Object MergeTuples(const kv::Object& left, const kv::Object& right,
                       const std::string& right_name);

/// EvalScalar over an unmaterialized scan row (predicate pushdown). SQL
/// three-valued logic is simplified to two-valued here: NULL compares
/// false, arithmetic on NULL yields NULL.
Result<kv::Value> EvalScalar(const Expr& expr, const ScanRowView& row,
                             const EvalContext& ctx);

namespace detail {

/// The comparison and arithmetic kernels EvalScalar dispatches to, exposed
/// so the vectorized executor's fused loops apply byte-identical semantics.
/// CompareValues never errors (NULL on either side compares false);
/// ArithmeticValues errors on non-numeric operands (except string + string).
kv::Value CompareValues(BinaryOp op, const kv::Value& lhs,
                        const kv::Value& rhs);
Result<kv::Value> ArithmeticValues(BinaryOp op, const kv::Value& lhs,
                                   const kv::Value& rhs);

}  // namespace detail

}  // namespace sq::sql

#endif  // SQUERY_SQL_EVAL_H_
