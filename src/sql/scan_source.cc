#include "sql/scan_source.h"

#include <algorithm>
#include <set>

namespace sq::sql {

void LookupBatchBuilder::Add(int32_t partition, const kv::Value& key,
                             const kv::Value* ssid, const kv::Object& value) {
  const auto it = std::lower_bound(
      found_.begin(), found_.end(), partition,
      [](const PartitionLookup& p, int32_t wanted) {
        return p.partition < wanted;
      });
  const auto i = static_cast<size_t>(it - found_.begin());
  if (it == found_.end() || it->partition != partition) {
    found_.insert(it, PartitionLookup{partition, {}});
    tails_.insert(tails_.begin() + static_cast<ptrdiff_t>(i), nullptr);
  }
  std::vector<ScanBatch>& batches = found_[i].batches;
  const bool same_version =
      !batches.empty() && batches.back().ssid.has_value() == (ssid != nullptr) &&
      (ssid == nullptr || *batches.back().ssid == *ssid);
  if (!same_version) {
    auto rows = std::make_shared<kv::ColumnBatch>();
    tails_[i] = rows.get();
    batches.push_back(ScanBatch{
        std::move(rows),
        ssid != nullptr ? std::optional<kv::Value>(*ssid) : std::nullopt});
  }
  tails_[i]->AppendRow(key, /*ssid=*/0, value);
}

ScanFnSource::ScanFnSource(TableBatchFn build, std::optional<int64_t> ssid)
    : build_(std::move(build)) {
  if (ssid.has_value()) ssid_ = kv::Value(*ssid);
}

Result<std::vector<PartitionLookup>> ScanFnSource::ScanKeys(
    const std::vector<kv::Value>& keys) const {
  SQ_ASSIGN_OR_RETURN(const std::shared_ptr<const kv::ColumnBatch> rows,
                      build_());
  const std::set<kv::Value> wanted(keys.begin(), keys.end());
  auto found = std::make_shared<kv::ColumnBatch>();
  for (size_t r = 0; r < rows->row_count(); ++r) {
    if (wanted.count(rows->keys()[r]) != 0) found->AppendRowFrom(*rows, r);
  }
  std::vector<PartitionLookup> out;
  if (found->row_count() > 0) {
    out.push_back(PartitionLookup{0, {ScanBatch{std::move(found), ssid_}}});
  }
  return out;
}

std::unique_ptr<BatchReader> ScanFnSource::OpenBatchReader(
    int32_t partition) const {
  /// Builds the table on the first NextBatch, so its errors come back
  /// through the Result, and yields it as one batch.
  class Reader : public BatchReader {
   public:
    Reader(const ScanFnSource* source, int32_t partition)
        : source_(source), partition_(partition) {}

    Result<bool> NextBatch(ScanBatch* out) override {
      if (done_) return false;
      done_ = true;
      if (partition_ != 0) {
        return Status::OutOfRange("partition " + std::to_string(partition_) +
                                  " of a single-partition table");
      }
      SQ_ASSIGN_OR_RETURN(std::shared_ptr<const kv::ColumnBatch> rows,
                          source_->build_());
      *out = ScanBatch{std::move(rows), source_->ssid_};
      return true;
    }

   private:
    const ScanFnSource* source_;
    const int32_t partition_;
    bool done_ = false;
  };
  return std::make_unique<Reader>(this, partition);
}

std::shared_ptr<const kv::ColumnBatch> BatchOfKeyedRows(
    const std::vector<kv::Object>& rows) {
  auto batch = std::make_shared<kv::ColumnBatch>();
  // All rows first, then their cells: each column is created once at full
  // length instead of every row padding every column.
  static const kv::Object kNoFields;
  batch->Reserve(rows.size());
  for (const kv::Object& row : rows) {
    batch->AppendRow(row.Get("key"), /*ssid=*/0, kNoFields);
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    // Fields and columns are both sorted by name: one forward walk pairs
    // them, and only a name the batch lacks is looked up.
    size_t col = 0;
    for (const auto& [name, value] : rows[r].fields()) {
      const std::vector<std::string>& names = batch->names();
      while (col < names.size() && names[col] < name) ++col;
      if (col == names.size() || names[col] != name) {
        col = batch->EnsureColumn(name);
      }
      batch->SetCell(col++, r, value);
    }
  }
  return batch;
}

Result<std::unique_ptr<TableSource>> MemoryResolver::OpenTableSource(
    const std::string& table, std::optional<int64_t> requested_ssid) {
  last_requested_ssid = requested_ssid;
  auto it = tables.find(table);
  if (it == tables.end()) return Status::NotFound("no table " + table);
  const std::vector<kv::Object>* rows = &it->second;
  return std::unique_ptr<TableSource>(new ScanFnSource(
      [rows]() -> Result<std::shared_ptr<const kv::ColumnBatch>> {
        return BatchOfKeyedRows(*rows);
      },
      /*ssid=*/std::nullopt));
}

}  // namespace sq::sql
