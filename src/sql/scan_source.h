#ifndef SQUERY_SQL_SCAN_SOURCE_H_
#define SQUERY_SQL_SCAN_SOURCE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "kv/columnar.h"
#include "kv/object.h"
#include "kv/value.h"
#include "sql/executor.h"

namespace sq::sql {

/// Builds a whole table as one ColumnBatch, in table order (the batch's
/// per-row ssids are unused; see ScanFnSource).
using TableBatchFn =
    std::function<Result<std::shared_ptr<const kv::ColumnBatch>>()>;

/// Builds the result of TableSource::ScanKeys from looked-up rows added in
/// emission order: each row joins the last batch of its partition when it
/// is served at that batch's version, and starts a new batch otherwise.
class LookupBatchBuilder {
 public:
  /// Adds one looked-up row of `partition`, served at `ssid` (null on live
  /// reads).
  void Add(int32_t partition, const kv::Value& key, const kv::Value* ssid,
           const kv::Object& value);

  /// The partitions with rows, in ascending order; the builder is spent.
  std::vector<PartitionLookup> Finish() && { return std::move(found_); }

 private:
  // Only the partitions rows were added to, in ascending order: sized by
  // the keys found, not the partition count.
  std::vector<PartitionLookup> found_;
  // The last batch of each of found_, which rows are appended to.
  std::vector<kv::ColumnBatch*> tails_;
};

/// A one-partition TableSource over a function that builds the whole table,
/// for tables without partitioned storage: virtual (catalog) tables,
/// snapshots read back from the durable log, and in-memory test tables.
/// Opening it does no work; each batch read or ScanKeys call builds the
/// table once, and a read serves it as one batch.
class ScanFnSource final : public TableSource {
 public:
  /// `ssid` is the version every row is served at (the `ssid`
  /// pseudo-column), or nullopt for rows without one.
  ScanFnSource(TableBatchFn build, std::optional<int64_t> ssid);

  int32_t partition_count() const override { return 1; }
  /// The table's rows whose key is in `keys`, in table order, as one batch.
  Result<std::vector<PartitionLookup>> ScanKeys(
      const std::vector<kv::Value>& keys) const override;
  int32_t PartitionOfKey(const kv::Value& /*key*/) const override {
    return 0;
  }
  std::unique_ptr<BatchReader> OpenBatchReader(
      int32_t partition) const override;

 private:
  TableBatchFn build_;
  std::optional<kv::Value> ssid_;
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
