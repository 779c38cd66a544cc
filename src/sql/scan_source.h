#ifndef SQUERY_SQL_SCAN_SOURCE_H_
#define SQUERY_SQL_SCAN_SOURCE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "kv/columnar.h"
#include "kv/object.h"
#include "kv/partitioner.h"
#include "kv/value.h"
#include "sql/executor.h"

namespace sq::sql {

/// Builds a whole table as one ColumnBatch per partition, each in table
/// order (the batches' per-row ssids are unused; see ScanFnSource).
using TableBatches = std::vector<std::shared_ptr<const kv::ColumnBatch>>;
using TableBatchFn = std::function<Result<TableBatches>()>;

/// Builds the result of TableSource::ScanKeys from looked-up rows added in
/// emission order: each row joins the last batch of its partition when it
/// is served at that batch's version, and starts a new batch otherwise.
class LookupBatchBuilder {
 public:
  /// The batch to append one looked-up row of `partition` to, served at
  /// `ssid` (null on live reads).
  kv::ColumnBatch* Row(int32_t partition, const kv::Value* ssid);

  /// The partitions with rows, in ascending order; the builder is spent.
  std::vector<PartitionLookup> Finish() && { return std::move(found_); }

 private:
  // Only the partitions rows were added to, in ascending order: sized by
  // the keys found, not the partition count.
  std::vector<PartitionLookup> found_;
  // The last batch of each of found_, which rows are appended to.
  std::vector<kv::ColumnBatch*> tails_;
};

/// A TableSource over a function that builds the whole table: virtual
/// (catalog) and in-memory test tables in one partition, snapshots read back
/// from the durable log in the grid's. Opening it does no work; the first
/// batch read or ScanKeys call builds the table, and every reader shares it.
class ScanFnSource final : public TableSource {
 public:
  /// `build` returns one batch per partition of `partitioner`, key k in
  /// batch `partitioner.PartitionOf(k)`. `ssid` is the version every row is
  /// served at (the `ssid` pseudo-column), or nullopt for rows without one.
  ScanFnSource(TableBatchFn build, std::optional<int64_t> ssid,
               kv::Partitioner partitioner = kv::Partitioner(1));

  int32_t partition_count() const override {
    return partitioner_.partition_count();
  }
  /// The table's rows whose key is in `keys`, one batch per partition, in
  /// table order.
  Result<std::vector<PartitionLookup>> ScanKeys(
      const std::vector<kv::Value>& keys) const override;
  int32_t PartitionOfKey(const kv::Value& key) const override {
    return partitioner_.PartitionOf(key);
  }
  std::unique_ptr<BatchReader> OpenBatchReader(
      int32_t partition) const override;

 private:
  /// The table, built by the first caller; later callers wait and share it.
  Result<const TableBatches*> Build() const;

  TableBatchFn build_;
  std::optional<kv::Value> ssid_;
  kv::Partitioner partitioner_;
  // Written once, inside the call_once, and read-only after it.
  mutable std::once_flag built_once_;
  mutable Status build_status_;
  mutable TableBatches batches_;
};

/// `rows` as one batch, in order, each keyed by its own `key` field (null
/// when the row has none).
std::shared_ptr<const kv::ColumnBatch> BatchOfKeyedRows(
    const std::vector<kv::Object>& rows);

/// A TableResolver over in-memory tables of keyed live rows (see
/// BatchOfKeyedRows), for executor tests and micro benchmarks. Unknown tables
/// are NotFound.
class MemoryResolver final : public TableResolver {
 public:
  Result<std::unique_ptr<TableSource>> OpenTableSource(
      const std::string& table,
      std::optional<int64_t> requested_ssid) override;

  /// Table name -> rows in table order. Must outlive the opened sources.
  std::map<std::string, std::vector<kv::Object>> tables;
  /// The version pin the executor passed to the latest open.
  std::optional<int64_t> last_requested_ssid;
};

}  // namespace sq::sql

#endif  // SQUERY_SQL_SCAN_SOURCE_H_
