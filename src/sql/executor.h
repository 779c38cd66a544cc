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
/// batch, matching what the row callbacks would have passed per row.
struct ScanBatch {
  std::shared_ptr<const kv::ColumnBatch> rows;
  /// The `ssid` pseudo-column value of every row, or nullopt for live scans
  /// (the pseudo-column then falls through to a stored field of that name,
  /// exactly like the row path).
  std::optional<kv::Value> ssid;
};

/// Pull cursor over one partition's columnar batches. Obtained per partition
/// from `TableSource::OpenBatchReader`; distinct partitions may be read
/// concurrently.
class BatchReader {
 public:
  virtual ~BatchReader() = default;

  /// Fills `*out` with the next batch and returns true, or returns false at
  /// end of partition. Batches must cover exactly the rows `ScanPartition`
  /// would emit, in the same order — the vectorized engine's results are
  /// differentially tested against the row engine row for row.
  virtual Result<bool> NextBatch(ScanBatch* out) = 0;
};

/// Partition-addressable access to one base table, opened for one scan. The
/// executor fans partitions out over a thread pool, evaluates pushed-down
/// predicates inside the row callbacks (rows that fail are never copied),
/// and routes pushed-down key equalities to point lookups.
class TableSource {
 public:
  virtual ~TableSource() = default;

  /// Row callback: the state key, the snapshot version the row is served at
  /// (null on live-table scans), and the stored object. The references are
  /// only valid for the duration of the call; the row is copied only if it
  /// survives the pushed-down filter.
  using RowFn = std::function<void(const kv::Value& key,
                                   const kv::Value* ssid,
                                   const kv::Object& value)>;

  /// Number of scannable partitions.
  virtual int32_t partition_count() const = 0;

  /// Scans one partition. Thread-safe: distinct partitions may be scanned
  /// concurrently. A non-OK status (e.g. an unreachable cluster node) fails
  /// the scan; rows already emitted for other partitions are discarded.
  virtual Status ScanPartition(int32_t partition, const RowFn& fn) const = 0;

  /// Point lookups for pushed-down `key = <literal>` / IN-list conjuncts.
  /// Emits at most one row per (key, version); missing keys are skipped.
  virtual Status ScanKeys(const std::vector<kv::Value>& keys,
                          const RowFn& fn) const = 0;

  /// Partition a key routes to (scan metrics only).
  virtual int32_t PartitionOfKey(const kv::Value& key) const = 0;

  /// Serves `partition` as columnar batches instead of row callbacks, or
  /// returns null when this source (or this partition) cannot — the
  /// executor then streams rows through `ScanPartition`. Like ScanPartition,
  /// readers for distinct partitions may run concurrently.
  virtual std::unique_ptr<BatchReader> OpenBatchReader(
      int32_t partition) const = 0;

  /// True if OpenBatchReader may return non-null (plan/EXPLAIN probing
  /// without building a batch).
  virtual bool SupportsBatches() const = 0;
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
  /// Rows visited by base-table scans (before pushed-down filters).
  int64_t rows_scanned = 0;
  /// Rows surviving pushed-down filters (for non-aggregated scans these are
  /// exactly the rows materialized; fused aggregation folds them without
  /// materializing).
  int64_t rows_returned = 0;
  /// Partitions swept by fan-out scans, or partitions hit by point lookups.
  int32_t partitions_scanned = 0;
  /// Concurrent workers used by the widest scan of the query.
  int32_t parallelism = 1;
  /// True if a WHERE predicate was evaluated inside the scan.
  bool used_pushdown = false;
  /// True if a key-equality restriction routed to point lookups.
  bool used_point_lookup = false;
  /// True if at least one partition was scanned as columnar batches.
  bool used_vectorized = false;
  /// Columnar batches consumed, and the rows they carried (those rows are
  /// also counted in rows_scanned).
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
  /// Push the WHERE clause (and key equalities) into base-table scans of
  /// join-free statements. Off = filter after materialization, as before.
  bool enable_pushdown = true;
  /// Scan sources that offer columnar batches through the vectorized engine
  /// (typed-column filter and aggregate loops). Off = row callbacks
  /// everywhere; results are identical either way.
  bool enable_vectorized = true;

  /// Optional out-param for scan instrumentation.
  ExecStats* stats = nullptr;
};

/// Executes a parsed SELECT against the resolver: scan (partition-parallel,
/// with predicate/key pushdown and per-partition partial aggregation) → hash
/// join (USING) → filter → group/aggregate → project → distinct → order →
/// limit.
Result<ResultSet> ExecuteSelect(const SelectStatement& stmt,
                                TableResolver* resolver,
                                const ExecOptions& options);

/// Convenience: parse + execute.
Result<ResultSet> ExecuteSql(const std::string& sql, TableResolver* resolver,
                             const ExecOptions& options);

/// Renders the plan `ExecuteSelect` would pick for `stmt` as indented text
/// lines (the body of `EXPLAIN`): scan strategy (partitioned fan-out or
/// point lookup), engine, pushed-down predicate, parallelism, joins,
/// aggregation, and tail operators. Read-only: opens the FROM table's source
/// to learn its shape but scans nothing; an error opening it (the one
/// ExecuteSelect would hit) is returned as is.
Result<std::vector<std::string>> ExplainPlanLines(const SelectStatement& stmt,
                                                  TableResolver* resolver,
                                                  const ExecOptions& options);

}  // namespace sq::sql

#endif  // SQUERY_SQL_EXECUTOR_H_
