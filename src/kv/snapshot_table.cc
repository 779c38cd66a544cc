#include "kv/snapshot_table.h"

#include <algorithm>

namespace sq::kv {

namespace {

// Index of the version with the greatest ssid <= `ssid` in `versions`
// (sorted by ascending ssid), or versions.size() if all are newer.
template <typename V>
size_t NewestAtOrBefore(const std::vector<V>& versions, int64_t ssid) {
  auto it = std::upper_bound(
      versions.begin(), versions.end(), ssid,
      [](int64_t s, const V& v) { return s < v.ssid; });
  if (it == versions.begin()) return versions.size();
  return static_cast<size_t>(it - versions.begin()) - 1;
}

}  // namespace

SnapshotTable::SnapshotTable(std::string name, const Partitioner* partitioner,
                             int32_t backup_count)
    : name_(std::move(name)), partitioner_(partitioner) {
  partitions_.reserve(partitioner_->partition_count());
  for (int32_t i = 0; i < partitioner_->partition_count(); ++i) {
    partitions_.push_back(std::make_unique<PartitionData>());
  }
  backups_.resize(backup_count);
  for (auto& replica : backups_) {
    replica.reserve(partitioner_->partition_count());
    for (int32_t i = 0; i < partitioner_->partition_count(); ++i) {
      replica.push_back(std::make_unique<PartitionData>());
    }
  }
}

void SnapshotTable::PruneKeyOrder(PartitionData* part) {
  std::vector<Value> kept;
  kept.reserve(part->index.size());
  for (const Value& key : part->key_order) {
    if (part->index.count(key) != 0) kept.push_back(key);
  }
  part->key_order = std::move(kept);
}

void SnapshotTable::MoveLiveRows(PartitionData* part, int64_t from,
                                 ColumnBatch* to, int64_t to_key) {
  const ColumnBatch& rows = *part->chunks.at(from).rows;
  for (size_t r = 0; r < rows.row_count(); ++r) {
    auto it = part->index.find(rows.keys()[r]);
    if (it == part->index.end()) continue;
    for (Version& v : it->second) {
      if (v.ssid != rows.ssids()[r] || v.chunk != from || v.row != r) continue;
      v.row = static_cast<uint32_t>(to->row_count());
      v.chunk = to_key;
      to->AppendRowFrom(rows, r);
      break;
    }
  }
}

void SnapshotTable::RebuildChunk(PartitionData* part, int64_t key) {
  auto kept = std::make_shared<ColumnBatch>();
  MoveLiveRows(part, key, kept.get(), key);
  auto chunk = part->chunks.find(key);
  const size_t live = kept->row_count();
  if (live == 0) {
    part->chunks.erase(chunk);
  } else {
    chunk->second = Chunk{std::move(kept), live, false};
  }
}

void SnapshotTable::EncodeOpenRows(const PartitionData& part) {
  if (part.open.empty()) return;
  Chunk& delta = part.chunks[part.open_ssid];
  if (delta.rows == nullptr) {
    delta.rows = std::make_shared<ColumnBatch>();
  } else if (delta.shared) {
    delta.rows = std::make_shared<ColumnBatch>(*delta.rows);
    delta.shared = false;
  }
  // A new batch is sized once; a growing one keeps its geometric growth.
  if (delta.rows->row_count() == 0) delta.rows->Reserve(part.open.size());
  for (const OpenRow& row : part.open) {
    if (row.tombstone) {
      delta.rows->AppendTombstone(row.key, part.open_ssid);
    } else {
      delta.rows->AppendRow(row.key, part.open_ssid, row.value);
    }
  }
  delta.live += part.open.size();
  std::vector<OpenRow>().swap(part.open);
}

void SnapshotTable::WriteInto(PartitionData* part, int64_t ssid,
                              const Value& key, Object value,
                              bool tombstone) {
  MutexLock lock(&part->mu);
  // A write at `ssid` can only change merged views at `ssid` and newer;
  // older cached columnar views stay valid (that is what makes the next
  // view buildable incrementally from them).
  part->columnar.erase(part->columnar.lower_bound(ssid),
                       part->columnar.end());
  // Checkpoints are produced in increasing ssid order, so the open rows are
  // almost always this ssid's.
  if (part->open_ssid != ssid) EncodeOpenRows(*part);
  auto [key_it, inserted] = part->index.try_emplace(key);
  if (inserted) part->key_order.push_back(key);
  std::vector<Version>& versions = key_it->second;
  auto pos = std::lower_bound(
      versions.begin(), versions.end(), ssid,
      [](const Version& v, int64_t s) { return v.ssid < s; });
  if (pos != versions.end() && pos->ssid == ssid) {
    // A rewrite of this version: its old row leaves its batch, so a delta
    // keeps one row per key.
    EncodeOpenRows(*part);
    const int64_t chunk = pos->chunk;
    pos = versions.erase(pos);
    RebuildChunk(part, chunk);
  }
  if (part->open.empty()) {
    auto delta = part->chunks.find(ssid);
    part->open_ssid = ssid;
    part->open_base =
        delta == part->chunks.end()
            ? 0
            : static_cast<uint32_t>(delta->second.rows->row_count());
  }
  const auto row =
      static_cast<uint32_t>(part->open_base + part->open.size());
  part->open.push_back(OpenRow{key, std::move(value), tombstone});
  versions.insert(pos, Version{ssid, ssid, row, tombstone});
  if (part->open.size() >= kMaxOpenRows) EncodeOpenRows(*part);
}

void SnapshotTable::Write(int64_t ssid, const Value& key, Object value) {
  const int32_t p = partitioner_->PartitionOf(key);
  for (auto& replica : backups_) {
    WriteInto(replica[p].get(), ssid, key, value, /*tombstone=*/false);
  }
  WriteInto(partitions_[p].get(), ssid, key, std::move(value),
            /*tombstone=*/false);
}

void SnapshotTable::WriteTombstone(int64_t ssid, const Value& key) {
  const int32_t p = partitioner_->PartitionOf(key);
  for (auto& replica : backups_) {
    WriteInto(replica[p].get(), ssid, key, Object(), /*tombstone=*/true);
  }
  WriteInto(partitions_[p].get(), ssid, key, Object(), /*tombstone=*/true);
}

void SnapshotTable::EncodeWrites(int32_t partition) {
  PartitionData& part = *partitions_[partition];
  MutexLock lock(&part.mu);
  EncodeOpenRows(part);
}

void SnapshotTable::DropSnapshotInPartition(PartitionData* part,
                                            int64_t ssid) {
  MutexLock lock(&part->mu);
  if (part->open_ssid == ssid) std::vector<OpenRow>().swap(part->open);
  part->columnar.erase(part->columnar.lower_bound(ssid),
                       part->columnar.end());
  bool erased_keys = false;
  bool in_base = false;  // compaction folded a version at `ssid`
  for (auto it = part->index.begin(); it != part->index.end();) {
    std::vector<Version>& versions = it->second;
    auto drop =
        std::find_if(versions.begin(), versions.end(),
                     [ssid](const Version& v) { return v.ssid == ssid; });
    if (drop != versions.end()) {
      in_base = in_base || drop->chunk == kBase;
      versions.erase(drop);
    }
    if (versions.empty()) {
      it = part->index.erase(it);
      erased_keys = true;
    } else {
      ++it;
    }
  }
  part->chunks.erase(ssid);
  if (in_base) RebuildChunk(part, kBase);
  if (erased_keys) PruneKeyOrder(part);
}

void SnapshotTable::DropSnapshot(int64_t ssid) {
  for (auto& part : partitions_) {
    DropSnapshotInPartition(part.get(), ssid);
  }
  for (auto& replica : backups_) {
    for (auto& part : replica) {
      DropSnapshotInPartition(part.get(), ssid);
    }
  }
}

const SnapshotTable::Version* SnapshotTable::LiveVersionAt(
    const PartitionData& part, const Value& key, int64_t ssid) {
  auto it = part.index.find(key);
  if (it == part.index.end()) return nullptr;
  const size_t i = NewestAtOrBefore(it->second, ssid);
  if (i == it->second.size() || it->second[i].tombstone) return nullptr;
  return &it->second[i];
}

bool SnapshotTable::VisitRowAt(
    const Value& key, int64_t ssid,
    const std::function<void(const ColumnBatch&, size_t)>& fn) const {
  const PartitionData& part = PartitionFor(key);
  MutexLock lock(&part.mu);
  const Version* version = LiveVersionAt(part, key, ssid);
  if (version == nullptr) return false;
  EncodeOpenRows(part);
  fn(*part.chunks.at(version->chunk).rows, version->row);
  return true;
}

std::optional<Object> SnapshotTable::GetAt(const Value& key,
                                           int64_t ssid) const {
  std::optional<Object> value;
  VisitRowAt(key, ssid, [&value](const ColumnBatch& rows, size_t row) {
    value = rows.MaterializeRow(row);
  });
  return value;
}

std::optional<Object> SnapshotTable::GetExact(const Value& key,
                                              int64_t ssid) const {
  std::optional<Object> value;
  VisitRowAt(key, ssid, [&](const ColumnBatch& rows, size_t row) {
    if (rows.ssids()[row] == ssid) value = rows.MaterializeRow(row);
  });
  return value;
}

void SnapshotTable::ScanAt(
    int64_t ssid,
    const std::function<void(const Value&, int64_t, const Object&)>& fn)
    const {
  for (int32_t p = 0; p < partitioner_->partition_count(); ++p) {
    const std::shared_ptr<const ColumnBatch> view =
        ColumnarPartitionAt(p, ssid);
    for (size_t r = 0; r < view->row_count(); ++r) {
      fn(view->keys()[r], view->ssids()[r], view->MaterializeRow(r));
    }
  }
}

std::shared_ptr<const ColumnBatch> SnapshotTable::ColumnarPartitionAt(
    int32_t partition, int64_t ssid) const {
  const PartitionData& part = *partitions_[partition];
  MutexLock lock(&part.mu);
  auto hit = part.columnar.find(ssid);
  if (hit != part.columnar.end()) return hit->second;
  EncodeOpenRows(part);

  // Incremental build: start from the newest older cached view (still valid
  // by the invalidation rules) and copy its rows straight across, taking
  // from the chain only the rows written after it — the checkpoint delta.
  // With no base every row is copied from the chain.
  std::shared_ptr<const ColumnBatch> base;
  int64_t base_ssid = 0;
  auto older = part.columnar.lower_bound(ssid);
  if (older != part.columnar.begin()) {
    --older;
    base_ssid = older->first;
    base = older->second;
  }

  auto batch = std::make_shared<ColumnBatch>();
  batch->Reserve(part.key_order.size());
  size_t base_row = 0;
  for (const Value& key : part.key_order) {
    const std::vector<Version>& versions = part.index.find(key)->second;
    // The base view lists its keys in this same order, so one cursor tells
    // us whether it contains the current key.
    const bool in_base = base != nullptr && base_row < base->row_count() &&
                         base->keys()[base_row] == key;
    const size_t i = NewestAtOrBefore(versions, ssid);
    if (i != versions.size() && !versions[i].tombstone) {
      const Version& version = versions[i];
      if (in_base && version.ssid <= base_ssid) {
        // Unchanged since the base view, which holds this same version.
        batch->AppendRowFrom(*base, base_row);
      } else {
        batch->AppendRowFrom(*part.chunks.at(version.chunk).rows,
                             version.row);
      }
    }
    if (in_base) ++base_row;
  }
  part.columnar.emplace(ssid, batch);
  while (part.columnar.size() > kMaxCachedViews) {
    part.columnar.erase(part.columnar.begin());
  }
  return batch;
}

std::shared_ptr<const ColumnBatch> SnapshotTable::DeltaAt(
    int32_t partition, int64_t ssid) const {
  const PartitionData& part = *partitions_[partition];
  MutexLock lock(&part.mu);
  EncodeOpenRows(part);
  auto delta = part.chunks.find(ssid);
  if (delta == part.chunks.end()) return nullptr;
  Chunk& chunk = delta->second;
  if (chunk.live < chunk.rows->row_count()) return nullptr;
  chunk.shared = true;
  return chunk.rows;
}

size_t SnapshotTable::CompactPartition(PartitionData* part,
                                       int64_t floor_ssid) {
  size_t removed = 0;
  MutexLock lock(&part->mu);
  // Open rows newer than the floor are out of compaction's reach, and those
  // at the floor are their keys' bases there, dropped only if tombstones:
  // only then are they encoded first. The fold below leaves their delta be.
  if (part->open_ssid < floor_ssid ||
      (part->open_ssid == floor_ssid &&
       std::any_of(part->open.begin(), part->open.end(),
                   [](const OpenRow& row) { return row.tombstone; }))) {
    EncodeOpenRows(*part);
  }
  const int64_t fold_limit = part->open.empty()
                                 ? floor_ssid
                                 : std::min(floor_ssid, part->open_ssid - 1);
  // Compaction only drops versions a view at >= floor never serves, so
  // cached views at the floor and newer survive; older ones would now read
  // base-shifted results and must go.
  part->columnar.erase(part->columnar.begin(),
                       part->columnar.lower_bound(floor_ssid));
  bool erased_keys = false;
  for (auto it = part->index.begin(); it != part->index.end();) {
    std::vector<Version>& versions = it->second;
    const size_t base = NewestAtOrBefore(versions, floor_ssid);
    // Drop everything older than the base version; a base tombstone means
    // "absent at the floor", so the tombstone itself is obsolete too.
    const size_t drop = base == versions.size()
                            ? 0
                            : base + (versions[base].tombstone ? 1 : 0);
    removed += drop;
    for (size_t i = 0; i < drop; ++i) {
      --part->chunks.at(versions[i].chunk).live;
    }
    versions.erase(versions.begin(),
                   versions.begin() + static_cast<ptrdiff_t>(drop));
    if (versions.empty()) {
      it = part->index.erase(it);
      erased_keys = true;
    } else {
      ++it;
    }
  }
  if (erased_keys) PruneKeyOrder(part);

  // The chunks at or below the floor (the base first) without live rows go
  // as they are: full snapshots supersede every row of the previous delta.
  // The rest are folded into a new base once there are more than
  // kFoldChunks of them or most of their rows are dead, which bounds the
  // chain and its dead rows while copying a live row only every few
  // checkpoints.
  size_t folded = 0;
  size_t rows = 0;
  size_t live = 0;
  auto chunk = part->chunks.begin();
  while (chunk != part->chunks.end() && chunk->first <= fold_limit) {
    if (chunk->second.live == 0) {
      chunk = part->chunks.erase(chunk);
      continue;
    }
    ++folded;
    rows += chunk->second.rows->row_count();
    live += chunk->second.live;
    ++chunk;
  }
  if (folded <= kFoldChunks && rows <= 2 * live) return removed;
  auto base = std::make_shared<ColumnBatch>();
  base->Reserve(live);
  for (auto it = part->chunks.begin(); it != chunk; ++it) {
    MoveLiveRows(part, it->first, base.get(), kBase);
  }
  part->chunks.erase(part->chunks.begin(), chunk);
  part->chunks.emplace(kBase, Chunk{std::move(base), live, false});
  return removed;
}

size_t SnapshotTable::Compact(int64_t floor_ssid) {
  size_t removed = 0;
  for (auto& part : partitions_) {
    removed += CompactPartition(part.get(), floor_ssid);
  }
  for (auto& replica : backups_) {
    for (auto& part : replica) {
      CompactPartition(part.get(), floor_ssid);
    }
  }
  return removed;
}

size_t SnapshotTable::EntryCount() const {
  size_t total = 0;
  for (const auto& part : partitions_) {
    MutexLock lock(&part->mu);
    for (const auto& [key, versions] : part->index) total += versions.size();
  }
  return total;
}

size_t SnapshotTable::KeyCount() const {
  size_t total = 0;
  for (const auto& part : partitions_) {
    MutexLock lock(&part->mu);
    total += part->index.size();
  }
  return total;
}

void SnapshotTable::FailPartitionPrimary(int32_t partition) {
  PartitionData& primary = *partitions_[partition];
  if (backups_.empty()) {
    // No replica to promote: the partition's data is simply lost.
    MutexLock lock(&primary.mu);
    std::vector<OpenRow>().swap(primary.open);
    primary.chunks.clear();
    primary.index.clear();
    primary.key_order.clear();
    primary.columnar.clear();
    return;
  }
  // Promote the backup in one critical section. Clearing the primary first
  // under a separate lock would expose an empty partition to concurrent
  // readers — a snapshot-isolation violation (keys transiently missing from
  // a committed snapshot).
  // Fixed backup-then-primary order (all promoters agree on it, so the
  // deadlock avoidance std::scoped_lock used to provide is preserved; the
  // lock-rank validator permits the equal-rank nesting).
  PartitionData& backup = *backups_[0][partition];
  MutexLock backup_lock(&backup.mu);
  MutexLock primary_lock(&primary.mu);
  EncodeOpenRows(backup);
  std::vector<OpenRow>().swap(primary.open);
  // Both copies now hold the same batches; whichever writes one first
  // copies it.
  for (auto& [key, chunk] : backup.chunks) chunk.shared = true;
  primary.chunks = backup.chunks;
  primary.index = backup.index;
  // Replicas see the same writes in the same order, so their key order is
  // the primary's; promoted data keeps the deterministic scan order.
  primary.key_order = backup.key_order;
  primary.columnar.clear();
}

}  // namespace sq::kv
