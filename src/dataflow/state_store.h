#ifndef SQUERY_DATAFLOW_STATE_STORE_H_
#define SQUERY_DATAFLOW_STATE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"
#include "kv/object.h"
#include "kv/partitioner.h"
#include "kv/value.h"

namespace sq::dataflow {

/// Keyed-state storage for one operator instance. The engine snapshots and
/// restores through this interface; the concrete implementation decides
/// where live state and snapshot state actually live:
///
///  * `InMemoryStateStore` (below) keeps both privately — this is the plain
///    "Jet" configuration the paper compares against: snapshots exist for
///    fault tolerance but are opaque blobs to the outside world.
///  * `sq::state::SQueryStateStore` mirrors live state into the KV grid and
///    writes snapshots into queryable `snapshot_<operator>` tables — the
///    S-QUERY configuration.
class StateStore {
 public:
  virtual ~StateStore() = default;

  /// Inserts or updates the state of `key`.
  virtual void Put(const kv::Value& key, kv::Object value) = 0;

  /// Reads the state of `key` (the operator's own authoritative copy).
  virtual std::optional<kv::Object> Get(const kv::Value& key) const = 0;

  /// Deletes the state of `key`; returns true if it existed.
  virtual bool Remove(const kv::Value& key) = 0;

  /// Iterates the authoritative live state of this instance.
  virtual void ForEach(const std::function<void(const kv::Value&,
                                                const kv::Object&)>& fn)
      const = 0;

  virtual size_t Size() const = 0;

  /// Phase-1 capture protocol, the same three calls in both barrier modes.
  /// `BeginSnapshot` marks the capture point for `checkpoint_id`: every
  /// mutation after it must be invisible to the snapshot. It fails with
  /// FailedPrecondition while another capture is in flight.
  virtual Status BeginSnapshot(int64_t checkpoint_id) = 0;

  /// Persists at most `max_entries` captured entries and returns true once
  /// the capture of `checkpoint_id` is fully written out (false = call
  /// again). Aligned workers call it once, unbounded; unaligned workers
  /// interleave bounded steps with record processing, so a large state never
  /// stalls the data path in one long phase-1 pause.
  virtual Result<bool> FinishSnapshotStep(int64_t checkpoint_id,
                                          size_t max_entries) = 0;

  /// Abandons the in-flight capture of `checkpoint_id` without publishing
  /// anything; a no-op if that capture is not in flight.
  virtual void AbortSnapshot(int64_t checkpoint_id) = 0;

  /// Convenience for callers outside the engine: Begin plus one unbounded
  /// write-out step, i.e. the whole phase-1 capture at once.
  Status SnapshotTo(int64_t checkpoint_id);

  /// Rolls the authoritative state back to `checkpoint_id` (recovery).
  virtual Status RestoreFrom(int64_t checkpoint_id) = 0;

  /// Drops all live state (used before restore-from-scratch).
  virtual void Clear() = 0;
};

/// The engine asks this factory for one store per stateful operator
/// instance. `vertex_name` identifies the operator in the DAG and doubles as
/// the external table name for queryable implementations; `instance` is the
/// operator-instance index.
///
/// A factory whose stores externalize state into a partitioned grid also
/// declares that grid's partitioner, letting `Job::Create` reject a job
/// whose keyed edges would hash records to different partitions than the
/// state store — a silent break of the colocation invariant otherwise.
struct StateStoreFactory {
  using CreateFn = std::function<std::unique_ptr<StateStore>(
      const std::string& vertex_name, int32_t instance)>;

  StateStoreFactory() = default;
  StateStoreFactory(CreateFn fn,  // NOLINT(google-explicit-constructor)
                    const kv::Partitioner* p = nullptr)
      : create(std::move(fn)), partitioner(p) {}

  std::unique_ptr<StateStore> operator()(const std::string& vertex_name,
                                         int32_t instance) const {
    return create(vertex_name, instance);
  }
  explicit operator bool() const { return static_cast<bool>(create); }

  CreateFn create;
  /// Partitioner the produced stores hash external state with; nullptr for
  /// private (partitioner-agnostic) stores such as InMemoryStateStore.
  const kv::Partitioner* partitioner = nullptr;
};

/// Default private state store: live state in a hash map, snapshots as
/// internal copies keyed by checkpoint id (bounded retention). Models the
/// baseline streaming engine whose state is a black box.
class InMemoryStateStore : public StateStore {
 public:
  /// Keeps at most `retained_snapshots` snapshot versions (oldest dropped).
  explicit InMemoryStateStore(int retained_snapshots = 2);

  void Put(const kv::Value& key, kv::Object value) override;
  std::optional<kv::Object> Get(const kv::Value& key) const override;
  bool Remove(const kv::Value& key) override;
  void ForEach(const std::function<void(const kv::Value&, const kv::Object&)>&
                   fn) const override;
  size_t Size() const override;
  Status BeginSnapshot(int64_t checkpoint_id) override;
  Result<bool> FinishSnapshotStep(int64_t checkpoint_id,
                                  size_t max_entries) override;
  void AbortSnapshot(int64_t checkpoint_id) override;
  Status RestoreFrom(int64_t checkpoint_id) override;
  void Clear() override;

 private:
  using StateMap = std::unordered_map<kv::Value, kv::Object, kv::ValueHash>;

  void TrimRetention();

  int retained_snapshots_;
  StateMap live_;
  std::map<int64_t, StateMap> snapshots_;  // ordered by checkpoint id
  /// Pending capture: full copy taken at BeginSnapshot, published into
  /// `snapshots_` by the write-out step. 0 = no capture in flight.
  int64_t capture_ckpt_ = 0;
  StateMap capture_;
};

/// Factory producing `InMemoryStateStore`s.
StateStoreFactory InMemoryStateStoreFactory(int retained_snapshots = 2);

}  // namespace sq::dataflow

#endif  // SQUERY_DATAFLOW_STATE_STORE_H_
