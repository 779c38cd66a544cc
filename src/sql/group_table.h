#ifndef SQUERY_SQL_GROUP_TABLE_H_
#define SQUERY_SQL_GROUP_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "kv/object.h"
#include "kv/value.h"
#include "sql/aggregate.h"
#include "sql/ast.h"
#include "sql/executor.h"

namespace sq::sql {

/// The groups of one partition's partial aggregation (or of the merged
/// result), in first-seen order, so parallel and sequential execution emit
/// rows identically. Shared by every fold: the row engine, the vectorized
/// engine's group-id fold and its row-major fallback, and joined rows. One
/// partition may mix all of them mid-scan and still merge bit-identically.
///
/// A group is its key (one Value per GROUP BY expression; the first value
/// seen, so an int key stays an int), one AggState per aggregate call, and a
/// representative: the first row seen, which answers the statement's
/// non-aggregate expressions. A representative is either a row reference
/// (a batch and a row index; the batch is kept alive by the table) or a
/// tuple materialized when the group was created (the row engine and joined
/// rows). Row references are materialized only for the groups that reach
/// the output, by TakeRepresentative.
///
/// Storage is flat: keys, aggregate states and per-group metadata each sit
/// in one vector, indexed by an open-addressing table of group ids. Keys
/// match by Value equality (2 meets 2.0; NaN meets nothing, so every NaN
/// key starts a group of its own).
class GroupTable {
 public:
  /// The group whose key equals `key[0..width)`, inserting a new group
  /// (`aggregates` fresh AggStates, an empty representative) if none does.
  /// Returns its id and whether it was inserted. Every call on one table
  /// passes the same `width` and `aggregates`. Inserting invalidates
  /// pointers returned by aggs().
  std::pair<uint32_t, bool> FindOrInsert(const kv::Value* key, size_t width,
                                         size_t aggregates);

  size_t size() const { return groups_.size(); }
  AggState* aggs(uint32_t group) {
    return aggs_.data() + group * aggregates_;
  }

  /// Sets `group`'s representative to row `row` of `batch`.
  void SetRepresentative(uint32_t group, const ScanBatch& batch,
                         uint32_t row);
  /// Sets `group`'s representative to a materialized tuple.
  void SetRepresentative(uint32_t group, kv::Object tuple);

  /// `group`'s representative tuple, materializing a row reference now (a
  /// tuple set eagerly is moved out). Call at most once per group.
  kv::Object TakeRepresentative(uint32_t group);

  /// Merges `src`, a later partition's table over the same `calls`, into
  /// this one: its new groups append in their order, with their
  /// representatives; existing groups merge their aggregate states, this
  /// table's (the earlier rows') winning MIN/MAX ties.
  void MergeFrom(GroupTable&& src, const std::vector<const Expr*>& calls);

  /// Representative tuples built so far, eagerly or by TakeRepresentative,
  /// including those of the tables merged in.
  int64_t materialized() const { return materialized_; }

 private:
  struct Group {
    uint64_t hash = 0;
    // >= 0: row `row` of batches_[source]; < 0: tuples_[-source - 1];
    // kNoSource: no representative (an empty tuple).
    int32_t source = kNoSource;
    uint32_t row = 0;
  };
  static constexpr int32_t kNoSource = INT32_MIN;

  const kv::Value* key(uint32_t group) const {
    return keys_.data() + group * width_;
  }
  std::pair<uint32_t, bool> FindOrInsertHashed(const kv::Value* key,
                                               size_t width, uint64_t hash,
                                               size_t aggregates);
  void Rehash(size_t slots);

  size_t width_ = 0;
  size_t aggregates_ = 0;
  std::vector<Group> groups_;
  std::vector<kv::Value> keys_;     // groups_.size() * width_
  std::vector<AggState> aggs_;      // groups_.size() * aggregates_
  std::vector<uint32_t> slots_;     // group id + 1; 0 = empty
  std::vector<ScanBatch> batches_;  // batches that row references point into
  std::vector<kv::Object> tuples_;  // eager representatives
  int64_t materialized_ = 0;
};

}  // namespace sq::sql

#endif  // SQUERY_SQL_GROUP_TABLE_H_
