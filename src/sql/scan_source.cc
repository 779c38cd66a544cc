#include "sql/scan_source.h"

#include <set>

namespace sq::sql {

Status ScanFnSource::ScanPartition(int32_t partition, const RowFn& fn) const {
  if (partition != 0) {
    return Status::OutOfRange("partition " + std::to_string(partition) +
                              " of a single-partition table");
  }
  return scan_(fn);
}

Status ScanFnSource::ScanKeys(const std::vector<kv::Value>& keys,
                              const RowFn& fn) const {
  const std::set<kv::Value> wanted(keys.begin(), keys.end());
  return scan_([&wanted, &fn](const kv::Value& key, const kv::Value* ssid,
                              const kv::Object& value) {
    if (wanted.count(key) != 0) fn(key, ssid, value);
  });
}

Status EmitKeyedRows(const std::vector<kv::Object>& rows,
                     const TableSource::RowFn& fn) {
  for (const kv::Object& row : rows) {
    fn(row.Get("key"), /*ssid=*/nullptr, row);
  }
  return Status::OK();
}

Result<std::unique_ptr<TableSource>> MemoryResolver::OpenTableSource(
    const std::string& table, std::optional<int64_t> requested_ssid) {
  last_requested_ssid = requested_ssid;
  auto it = tables.find(table);
  if (it == tables.end()) return Status::NotFound("no table " + table);
  const std::vector<kv::Object>* rows = &it->second;
  return std::unique_ptr<TableSource>(
      new ScanFnSource([rows](const TableSource::RowFn& fn) {
        return EmitKeyedRows(*rows, fn);
      }));
}

}  // namespace sq::sql
