#ifndef SQUERY_SQL_EXECUTOR_H_
#define SQUERY_SQL_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "kv/object.h"
#include "kv/value.h"
#include "sql/ast.h"
#include "sql/result_set.h"

namespace sq::kv {
class ColumnBatch;
}  // namespace sq::kv

namespace sq::sql {

/// One columnar batch of scan rows: the column-chunked rows plus how the
/// `ssid` pseudo-column resolves for them. Live scans carry no ssid;
/// snapshot (and versions) scans report one constant resolved version per
/// batch.
struct ScanBatch {
  std::shared_ptr<const kv::ColumnBatch> rows;
  /// The `ssid` pseudo-column value of every row, or nullopt for live scans
  /// (the pseudo-column then falls through to a stored field of that name).
  std::optional<kv::Value> ssid;
};

/// Pull cursor over one partition's columnar batches. Obtained per partition
/// from `TableSource::OpenBatchReader`; distinct partitions may be read
/// concurrently.
class BatchReader {
 public:
  virtual ~BatchReader() = default;

  /// Fills `*out` with the next batch (its rows never null) and returns
  /// true, or returns false at end of partition. A non-OK status (e.g. an
  /// unreachable cluster node) fails the scan; rows already read from other
  /// partitions are discarded.
  virtual Result<bool> NextBatch(ScanBatch* out) = 0;
};

/// Partition-addressable access to one base table, opened for one scan. The
/// executor fans partitions out over a thread pool and reads each one as
/// columnar batches, which both engines evaluate: the vectorized engine with
/// typed-column loops, the row engine one materialized row at a time.
/// Pushed-down key equalities route to point lookups instead.
class TableSource {
 public:
  virtual ~TableSource() = default;

  /// Point-lookup row callback: the state key, the snapshot version the row
  /// is served at (null on live-table reads), and the stored object. The
  /// references are only valid for the duration of the call.
  using RowFn = std::function<void(const kv::Value& key,
                                   const kv::Value* ssid,
                                   const kv::Object& value)>;

  /// Number of scannable partitions.
  virtual int32_t partition_count() const = 0;

  /// Point lookups for pushed-down `key = <literal>` / IN-list conjuncts.
  /// Emits at most one row per (key, version); missing keys are skipped.
  virtual Status ScanKeys(const std::vector<kv::Value>& keys,
                          const RowFn& fn) const = 0;

  /// The partition that holds `key`. Contract: every source places key k
  /// in `kv::Partitioner(partition_count()).PartitionOf(k)`, and
  /// OpenBatchReader(p) serves only keys placed in p. Colocated joins rely
  /// on it (partition p of one table joins partition p of another on the
  /// state key), and point lookups group their rows by it.
  virtual int32_t PartitionOfKey(const kv::Value& key) const = 0;

  /// Serves `partition` as columnar batches, in the source's deterministic
  /// scan order (both engines read them, so their results agree row for
  /// row). Never null. Thread-safe: readers for distinct partitions may run
  /// concurrently.
  virtual std::unique_ptr<BatchReader> OpenBatchReader(
      int32_t partition) const = 0;
};

/// The executor's only way to read a table. The query layer implements this
/// over the KV grid (live tables scan the LiveMap through key-level locked
/// reads, snapshot tables the SnapshotTable view at a version resolved
/// through the SnapshotRegistry), the virtual-table catalog and the durable
/// snapshot log.
///
/// Every row a source emits carries its state key, which the executor
/// exposes as the pseudo-columns `key` and `partitionKey`, plus the `ssid`
/// pseudo-column for snapshot tables (see MaterializeRow).
class TableResolver {
 public:
  virtual ~TableResolver() = default;

  /// Opens `table` for one scan. `requested_ssid` is the version extracted
  /// from an `ssid = <n>` WHERE conjunct, if any (nullopt = latest
  /// committed). Returns a source or a typed error (a missing table, an
  /// isolation violation, an unresolvable version), never null. Opening
  /// reads no rows, so plan-only callers such as EXPLAIN may probe freely.
  virtual Result<std::unique_ptr<TableSource>> OpenTableSource(
      const std::string& table, std::optional<int64_t> requested_ssid) = 0;
};

/// Per-query scan instrumentation, filled in by the executor (the paper's
/// query-impact story needs "how much state did this query actually touch").
struct ExecStats {
  /// Rows visited by base-table scans (before pushed-down filters),
  /// counting every input of a join.
  int64_t rows_scanned = 0;
  /// Rows surviving pushed-down filters (for non-aggregated scans these are
  /// exactly the rows materialized; fused aggregation folds them without
  /// materializing). For a join: the joined rows that pass the pushed
  /// filter, or every joined row when nothing is pushed.
  int64_t rows_returned = 0;
  /// Partitions swept by fan-out scans, or partitions hit by point lookups.
  int32_t partitions_scanned = 0;
  /// Concurrent workers used by the widest scan of the query.
  int32_t parallelism = 1;
  /// True if a WHERE predicate was evaluated inside the scan.
  bool used_pushdown = false;
  /// True if a key-equality restriction routed to point lookups.
  bool used_point_lookup = false;
  /// True if a partitioned scan ran on the vectorized engine, including one
  /// whose partitions held no batches (EXPLAIN's engine line).
  bool used_vectorized = false;
  /// Batches the vectorized engine evaluated, and the rows they carried
  /// (those rows are also counted in rows_scanned). The row engine reads
  /// the same batches but counts none here.
  int64_t batches_scanned = 0;
  int64_t batch_rows = 0;
};

struct ExecOptions {
  /// Value of LOCALTIMESTAMP for this query (Unix micros).
  int64_t local_timestamp_micros = 0;

  /// Worker pool shared across queries; null = scan sequentially.
  ThreadPool* pool = nullptr;
  /// Maximum workers (including the calling thread) per scan; <= 1 keeps
  /// the scan on the calling thread.
  int32_t parallelism = 1;
  /// Push the WHERE clause into the scan (with joins: into each
  /// partition's join, on every joined row) and route key equalities to
  /// point lookups. Off = filter after materialization.
  bool enable_pushdown = true;
  /// Evaluate scanned batches with the vectorized engine (typed-column
  /// filter and aggregate loops). Off = the row evaluator, one materialized
  /// row at a time; results are identical either way.
  bool enable_vectorized = true;

  /// Optional out-param for scan instrumentation.
  ExecStats* stats = nullptr;
};

/// Executes a parsed SELECT against the resolver: scan (partition-parallel,
/// with predicate/key pushdown; each JOIN ... USING hash-joins inside the
/// partition fan-out, per partition when colocated on the state key; the
/// pushed WHERE runs on scanned or joined rows, which fold into
/// per-partition partial aggregates) → filter (when not pushed) →
/// group/aggregate → project → distinct → order → limit.
Result<ResultSet> ExecuteSelect(const SelectStatement& stmt,
                                TableResolver* resolver,
                                const ExecOptions& options);

/// Convenience: parse + execute.
Result<ResultSet> ExecuteSql(const std::string& sql, TableResolver* resolver,
                             const ExecOptions& options);

/// Renders the plan `ExecuteSelect` would pick for `stmt` as indented text
/// lines (the body of `EXPLAIN`): scan strategy (partitioned fan-out or
/// point lookup), engine, pushed-down predicate, parallelism, joins (each
/// with its scope: colocated per partition, or built over the whole JOIN
/// table), aggregation, and tail operators. Read-only: opens the FROM and
/// JOIN tables' sources to learn their shape but scans nothing; an error
/// opening one (the one ExecuteSelect would hit) is returned as is.
Result<std::vector<std::string>> ExplainPlanLines(const SelectStatement& stmt,
                                                  TableResolver* resolver,
                                                  const ExecOptions& options);

}  // namespace sq::sql

#endif  // SQUERY_SQL_EXECUTOR_H_
