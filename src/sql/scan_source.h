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
#include "kv/object.h"
#include "kv/value.h"
#include "sql/executor.h"

namespace sq::sql {

/// Visits every row of a whole table, in table order.
using TableScanFn = std::function<Status(const TableSource::RowFn& fn)>;

/// A one-partition TableSource over a whole-table scan function, for tables
/// without partitioned storage: virtual (catalog) tables, snapshots read back
/// from the durable log, and in-memory test tables. Opening it does no work;
/// each ScanPartition / ScanKeys call runs the scan function once.
class ScanFnSource final : public TableSource {
 public:
  explicit ScanFnSource(TableScanFn scan) : scan_(std::move(scan)) {}

  int32_t partition_count() const override { return 1; }
  Status ScanPartition(int32_t partition, const RowFn& fn) const override;
  /// Keeps table order and emits only the rows whose key is in `keys`.
  Status ScanKeys(const std::vector<kv::Value>& keys,
                  const RowFn& fn) const override;
  int32_t PartitionOfKey(const kv::Value& /*key*/) const override {
    return 0;
  }
  /// Row-only: the executor streams every scan through ScanPartition.
  std::unique_ptr<BatchReader> OpenBatchReader(
      int32_t /*partition*/) const override {
    return nullptr;
  }
  bool SupportsBatches() const override { return false; }

 private:
  TableScanFn scan_;
};

/// Emits `rows` in order as live (ssid-less) rows, each keyed by its own
/// `key` field (null when the row has none).
Status EmitKeyedRows(const std::vector<kv::Object>& rows,
                     const TableSource::RowFn& fn);

/// A TableResolver over in-memory tables of keyed rows (see EmitKeyedRows),
/// for executor tests and micro benchmarks. Unknown tables are NotFound.
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
