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
  /// Keeps table order and emits only the rows whose key is in `keys`.
  Status ScanKeys(const std::vector<kv::Value>& keys,
                  const RowFn& fn) const override;
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
