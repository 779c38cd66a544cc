#include "sql/group_table.h"

#include "common/hash.h"
#include "kv/columnar.h"
#include "sql/eval.h"

namespace sq::sql {

namespace {

using kv::Object;
using kv::Value;

/// Room reserved at a table's first insert, so a partition of a few groups
/// allocates each of its vectors once.
constexpr size_t kInitialGroups = 8;

uint64_t HashKey(const Value* key, size_t width) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < width; ++i) {
    h = sq::CombineHashes(h, key[i].Hash());
  }
  return h;
}

bool KeysEqual(const Value* a, const Value* b, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

std::pair<uint32_t, bool> GroupTable::FindOrInsert(const Value* key,
                                                   size_t width,
                                                   size_t aggregates) {
  return FindOrInsertHashed(key, width, HashKey(key, width), aggregates);
}

std::pair<uint32_t, bool> GroupTable::FindOrInsertHashed(const Value* key,
                                                         size_t width,
                                                         uint64_t hash,
                                                         size_t aggregates) {
  if (slots_.empty()) {
    width_ = width;
    aggregates_ = aggregates;
    groups_.reserve(kInitialGroups);
    keys_.reserve(kInitialGroups * width);
    aggs_.reserve(kInitialGroups * aggregates);
    slots_.assign(kInitialGroups * 2, 0);
  }
  const size_t mask = slots_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    if (slots_[s] == 0) {
      const auto id = static_cast<uint32_t>(groups_.size());
      slots_[s] = id + 1;
      groups_.push_back(Group{hash, kNoSource, 0});
      keys_.insert(keys_.end(), key, key + width_);
      aggs_.resize(aggs_.size() + aggregates_);
      if (groups_.size() * 2 > slots_.size()) Rehash(slots_.size() * 2);
      return {id, true};
    }
    const uint32_t id = slots_[s] - 1;
    if (groups_[id].hash == hash && KeysEqual(key, this->key(id), width_)) {
      return {id, false};
    }
  }
}

void GroupTable::Rehash(size_t slots) {
  slots_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (size_t id = 0; id < groups_.size(); ++id) {
    size_t s = groups_[id].hash & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(id + 1);
  }
}

void GroupTable::SetRepresentative(uint32_t group, const ScanBatch& batch,
                                   uint32_t row) {
  // A batch's new groups arrive together, so checking the last batch kept
  // is enough to keep each batch once.
  if (batches_.empty() || batches_.back().rows != batch.rows ||
      batches_.back().ssid != batch.ssid) {
    batches_.push_back(batch);
  }
  groups_[group].source = static_cast<int32_t>(batches_.size() - 1);
  groups_[group].row = row;
}

void GroupTable::SetRepresentative(uint32_t group, Object tuple) {
  tuples_.push_back(std::move(tuple));
  groups_[group].source = -static_cast<int32_t>(tuples_.size());
  ++materialized_;
}

Object GroupTable::TakeRepresentative(uint32_t group) {
  const Group& g = groups_[group];
  if (g.source == kNoSource) return Object();
  if (g.source < 0) {
    return std::move(tuples_[static_cast<size_t>(-(g.source + 1))]);
  }
  const ScanBatch& batch = batches_[static_cast<size_t>(g.source)];
  ++materialized_;
  return MaterializeRow(batch.rows->keys()[g.row],
                        batch.ssid.has_value() ? &*batch.ssid : nullptr,
                        batch.rows->MaterializeRow(g.row));
}

void GroupTable::MergeFrom(GroupTable&& src,
                           const std::vector<const Expr*>& calls) {
  if (groups_.empty()) {
    const int64_t materialized = materialized_;
    *this = std::move(src);
    materialized_ += materialized;
    return;
  }
  materialized_ += src.materialized_;
  for (uint32_t s = 0; s < src.groups_.size(); ++s) {
    const Group& from = src.groups_[s];
    const auto [g, inserted] =
        FindOrInsertHashed(src.key(s), src.width_, from.hash, src.aggregates_);
    AggState* into = aggs(g);
    AggState* states = src.aggs(s);
    if (!inserted) {
      for (size_t a = 0; a < calls.size(); ++a) {
        MergeAggregate(*calls[a], states[a], &into[a]);
      }
      continue;
    }
    for (size_t a = 0; a < aggregates_; ++a) into[a] = std::move(states[a]);
    if (from.source >= 0) {
      SetRepresentative(g, src.batches_[static_cast<size_t>(from.source)],
                        from.row);
    } else if (from.source != kNoSource) {
      tuples_.push_back(
          std::move(src.tuples_[static_cast<size_t>(-(from.source + 1))]));
      groups_[g].source = -static_cast<int32_t>(tuples_.size());
    }
  }
}

}  // namespace sq::sql
