#include "sql/scan_source.h"

#include <algorithm>
#include <set>

namespace sq::sql {

kv::ColumnBatch* LookupBatchBuilder::Row(int32_t partition,
                                         const kv::Value* ssid) {
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
  return tails_[i];
}

ScanFnSource::ScanFnSource(TableBatchFn build, std::optional<int64_t> ssid,
                           kv::Partitioner partitioner)
    : build_(std::move(build)), partitioner_(partitioner) {
  if (ssid.has_value()) ssid_ = kv::Value(*ssid);
}

Result<const TableBatches*> ScanFnSource::Build() const {
  std::call_once(built_once_, [this] {
    Result<TableBatches> built = build_();
    if (built.ok()) {
      batches_ = std::move(*built);
    } else {
      build_status_ = built.status();
    }
  });
  SQ_RETURN_IF_ERROR(build_status_);
  return &batches_;
}

Result<std::vector<PartitionLookup>> ScanFnSource::ScanKeys(
    const std::vector<kv::Value>& keys) const {
  SQ_ASSIGN_OR_RETURN(const TableBatches* batches, Build());
  const std::set<kv::Value> wanted(keys.begin(), keys.end());
  std::vector<PartitionLookup> out;
  for (int32_t p = 0; p < partition_count(); ++p) {
    const kv::ColumnBatch& rows = *(*batches)[p];
    auto found = std::make_shared<kv::ColumnBatch>();
    for (size_t r = 0; r < rows.row_count(); ++r) {
      if (wanted.count(rows.keys()[r]) != 0) found->AppendRowFrom(rows, r);
    }
    if (found->row_count() > 0) {
      out.push_back(PartitionLookup{p, {ScanBatch{std::move(found), ssid_}}});
    }
  }
  return out;
}

std::unique_ptr<BatchReader> ScanFnSource::OpenBatchReader(
    int32_t partition) const {
  /// Builds the table on the first NextBatch, so its errors come back
  /// through the Result, and yields the partition as one batch.
  class Reader : public BatchReader {
   public:
    Reader(const ScanFnSource* source, int32_t partition)
        : source_(source), partition_(partition) {}

    Result<bool> NextBatch(ScanBatch* out) override {
      if (done_) return false;
      done_ = true;
      if (partition_ < 0 || partition_ >= source_->partition_count()) {
        return Status::OutOfRange("partition " + std::to_string(partition_) +
                                  " of a table with " +
                                  std::to_string(source_->partition_count()));
      }
      SQ_ASSIGN_OR_RETURN(const TableBatches* batches, source_->Build());
      *out = ScanBatch{(*batches)[partition_], source_->ssid_};
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
      [rows]() -> Result<TableBatches> {
        return TableBatches{BatchOfKeyedRows(*rows)};
      },
      /*ssid=*/std::nullopt));
}

}  // namespace sq::sql
