#ifndef SQUERY_STATE_SQUERY_STATE_STORE_H_
#define SQUERY_STATE_SQUERY_STATE_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "dataflow/state_store.h"
#include "kv/grid.h"

namespace sq::storage {
class SnapshotLog;
}  // namespace sq::storage

namespace sq::state {

/// Per-job S-QUERY configuration: which of the paper's Fig. 8 configurations
/// runs. (live+snap / live / snap / plain-Jet is expressed by toggling the
/// two booleans; both false ≈ plain Jet with private blob snapshots.)
struct SQueryConfig {
  /// Mirror every state update into the live-state KV table `<operator>`.
  bool live_enabled = true;
  /// Write checkpoint state into the queryable `snapshot_<operator>` table.
  bool snapshot_enabled = true;
  /// Incremental snapshots: write only keys dirtied since the previous
  /// checkpoint (deletions as tombstones) instead of the full state.
  bool incremental = false;
  /// Simulated cost (busy-wait, nanoseconds) added to every live-table
  /// write. Our in-process grid put costs ~0.1us, whereas the paper's
  /// Hazelcast IMDG put serializes the state object (microseconds); setting
  /// this to the calibrated IMDG cost reproduces the live-configuration
  /// overhead of Fig. 8. Default 0 = raw in-process cost.
  int64_t live_write_penalty_ns = 0;
  /// Internal (recovery) snapshot versions to retain; keep in sync with the
  /// registry's retention.
  int retained_versions = 2;
  /// Parallelism of the vertex, required by RestoreFromTable's
  /// partition→instance ownership computation.
  int32_t parallelism = 1;
  /// Sink for snapshot-write instrumentation (entries/bytes per snapshot,
  /// delta ratio). May be null; the aggregate SQueryStateStats still works.
  MetricsRegistry* metrics = nullptr;
  /// Durable snapshot log to fall back to when `RestoreFromTable` finds no
  /// rows in the in-memory snapshot table — the cold-restart path, where the
  /// grid came up empty and state must be read back off disk. Not owned; may
  /// be null (no fallback).
  storage::SnapshotLog* durable_log = nullptr;
};

/// Statistics shared by all store instances of one job (benchmark hooks).
struct SQueryStateStats {
  std::atomic<int64_t> live_puts{0};
  std::atomic<int64_t> live_removes{0};
  std::atomic<int64_t> snapshot_entries_written{0};
  std::atomic<int64_t> snapshot_tombstones_written{0};
  std::atomic<int64_t> snapshots_taken{0};
};

/// The S-QUERY state backend (Section V): the operator's keyed state lives
/// in a private map (authoritative, single-writer), and S-QUERY externalizes
/// it through the colocated KV grid —
///
///  * live table `<operator>` updated synchronously on every Put/Remove
///    (key-level locked in the grid, so concurrent live queries read
///    committed-in-the-no-failure-sense values), and
///  * snapshot table `snapshot_<operator>` written during checkpoint
///    phase 1, full or incremental.
///
/// Recovery restores from the private internal snapshot (fast path) and can
/// alternatively rebuild from the replicated snapshot table
/// (`RestoreFromTable`) after losing a node.
class SQueryStateStore : public dataflow::StateStore {
 public:
  SQueryStateStore(kv::Grid* grid, std::string operator_name,
                   int32_t instance, SQueryConfig config,
                   SQueryStateStats* stats = nullptr);

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

  /// Rebuilds the authoritative state of this instance from the (replicated)
  /// snapshot table view at `checkpoint_id`. Valid only for vertices fed by
  /// keyed edges, whose instance owns exactly the partitions p with
  /// p % parallelism == instance.
  Status RestoreFromTable(int64_t checkpoint_id);

  /// Number of entries written by the most recent capture (delta size in
  /// incremental mode; full state size otherwise). Benchmark hook (Fig. 12).
  size_t last_snapshot_entries() const { return last_snapshot_entries_; }

  const std::string& operator_name() const { return operator_name_; }

 private:
  using StateMap =
      std::unordered_map<kv::Value, kv::Object, kv::ValueHash>;
  using KeySet = std::unordered_set<kv::Value, kv::ValueHash>;

  /// Before a mutation of `key`, saves its capture-point value (or absence)
  /// if a capture is in flight and the key is not yet preserved.
  void PreserveForCapture(const kv::Value& key);
  void DiscardCapture();

  kv::Grid* grid_;
  std::string operator_name_;
  int32_t instance_;
  SQueryConfig config_;
  SQueryStateStats* stats_;

  kv::LiveMap* live_map_ = nullptr;          // if live_enabled
  kv::SnapshotTable* snap_table_ = nullptr;  // if snapshot_enabled

  // Cached metric handles (null when config_.metrics is null).
  Counter* m_entries_ = nullptr;
  Counter* m_bytes_ = nullptr;
  Counter* m_tombstones_ = nullptr;
  Histogram* m_entries_per_snapshot_ = nullptr;
  Histogram* m_delta_ratio_pct_ = nullptr;

  StateMap local_;
  // Incremental-snapshot change tracking since the last checkpoint.
  KeySet dirty_;
  KeySet deleted_;

  // Epoch-tagged copy-on-write capture. Between BeginSnapshot and the last
  // FinishSnapshotStep, `cow_overlay_` holds the capture-point values of
  // keys mutated since Begin and `cow_absent_` the keys that did not exist
  // at the capture point but do now; the capture-epoch dirty/deleted sets
  // are frozen aside so the live epoch starts tracking the *next*
  // checkpoint's delta immediately. The cursor (`capture_keys_`/
  // `capture_pos_`) lets the write-out proceed in bounded chunks interleaved
  // with record processing; `capture_build_` accumulates the reconstructed
  // capture-point state for the private recovery copy.
  int64_t capture_ckpt_ = 0;  // 0 = no capture in flight
  StateMap cow_overlay_;
  KeySet cow_absent_;
  KeySet capture_dirty_;
  KeySet capture_deleted_;
  std::vector<kv::Value> capture_keys_;
  size_t capture_pos_ = 0;
  StateMap capture_build_;
  size_t capture_table_entries_ = 0;
  int64_t capture_bytes_ = 0;

  // Private recovery snapshots (bounded retention).
  std::map<int64_t, StateMap> internal_snapshots_;
  size_t last_snapshot_entries_ = 0;
};

/// StateStoreFactory wiring SQueryStateStores to a grid. All stores share
/// `stats` (may be null).
dataflow::StateStoreFactory MakeSQueryStateStoreFactory(
    kv::Grid* grid, SQueryConfig config, SQueryStateStats* stats = nullptr);

/// The snapshot table name for an operator: "snapshot_<operator>" with
/// spaces stripped, per the paper's naming convention ("stateful map" →
/// "snapshot_statefulmap").
std::string SnapshotTableName(const std::string& operator_name);
/// The live table name (spaces stripped).
std::string LiveTableName(const std::string& operator_name);

}  // namespace sq::state

#endif  // SQUERY_STATE_SQUERY_STATE_STORE_H_
