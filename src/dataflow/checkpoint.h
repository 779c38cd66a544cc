#ifndef SQUERY_DATAFLOW_CHECKPOINT_H_
#define SQUERY_DATAFLOW_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/record.h"

namespace sq::dataflow {

/// How workers take the phase-1 cut of a checkpoint (paper Fig. 3 vs the
/// Fig. 8 tail; see DESIGN.md "Aligned vs unaligned checkpoints").
///
///  * `kAligned` — classic Chandy-Lamport marker alignment: a worker blocks
///    channels whose marker has arrived and snapshots only once every
///    upstream's marker is in. In-flight data never enters the snapshot, but
///    the barrier stall is the dominant term of the checkpoint latency tail.
///  * `kUnaligned` — markers overtake in-flight data (Carbone et al.,
///    "Lightweight Asynchronous Snapshots"): the worker begins a
///    copy-on-write capture at the *first* marker, forwards the marker
///    immediately, and keeps processing. Records that arrive on
///    not-yet-marked channels are processed *and* logged into the
///    checkpoint's channel log, which recovery replays after rollback.
enum class CheckpointMode { kAligned, kUnaligned };

inline const char* CheckpointModeToString(CheckpointMode mode) {
  return mode == CheckpointMode::kAligned ? "aligned" : "unaligned";
}

/// Observers of the checkpoint lifecycle. The engine drives the two-phase
/// protocol; the S-QUERY state layer implements this interface to publish
/// the committed snapshot id atomically to the whole grid (which is what
/// makes snapshot queries phantom-free, Section VII-B) and to apply the
/// retention/pruning policy.
class CheckpointListener {
 public:
  virtual ~CheckpointListener() = default;

  /// Phase 1 complete: every operator instance has written its snapshot
  /// under `checkpoint_id` (still invisible to queries).
  virtual void OnCheckpointPrepared(int64_t checkpoint_id) {
    (void)checkpoint_id;
  }

  /// Unaligned mode only, called once per worker that logged overtaken
  /// in-flight records for `checkpoint_id`, just before
  /// `OnCheckpointPrepared`. Durable implementations persist the records so
  /// recovery can replay them; the default discards (in-process recovery
  /// keeps its own copy inside `Job`).
  virtual void OnChannelLog(int64_t checkpoint_id,
                            const std::string& vertex_name, int32_t instance,
                            const std::vector<Record>& records) {
    (void)checkpoint_id;
    (void)vertex_name;
    (void)instance;
    (void)records;
  }

  /// Phase 2 complete: `checkpoint_id` is the new latest committed snapshot.
  virtual void OnCheckpointCommitted(int64_t checkpoint_id) {
    (void)checkpoint_id;
  }

  /// The checkpoint was abandoned (failure mid-protocol); any state written
  /// under this id must be discarded.
  virtual void OnCheckpointAborted(int64_t checkpoint_id) {
    (void)checkpoint_id;
  }
};

/// Fans each checkpoint event out to several listeners in registration
/// order. Lets the durable snapshot log observe the 2PC as a sibling of the
/// SnapshotRegistry: register the log's listener *before* the registry so a
/// snapshot is on disk before queries can see it as the latest committed id.
class CheckpointListenerChain : public CheckpointListener {
 public:
  CheckpointListenerChain() = default;
  explicit CheckpointListenerChain(
      std::vector<CheckpointListener*> listeners)
      : listeners_(std::move(listeners)) {}

  /// Appends `listener` (not owned; may not be null).
  void Add(CheckpointListener* listener) { listeners_.push_back(listener); }

  void OnCheckpointPrepared(int64_t checkpoint_id) override {
    for (CheckpointListener* l : listeners_) {
      l->OnCheckpointPrepared(checkpoint_id);
    }
  }
  void OnChannelLog(int64_t checkpoint_id, const std::string& vertex_name,
                    int32_t instance,
                    const std::vector<Record>& records) override {
    for (CheckpointListener* l : listeners_) {
      l->OnChannelLog(checkpoint_id, vertex_name, instance, records);
    }
  }
  void OnCheckpointCommitted(int64_t checkpoint_id) override {
    for (CheckpointListener* l : listeners_) {
      l->OnCheckpointCommitted(checkpoint_id);
    }
  }
  void OnCheckpointAborted(int64_t checkpoint_id) override {
    for (CheckpointListener* l : listeners_) {
      l->OnCheckpointAborted(checkpoint_id);
    }
  }

 private:
  std::vector<CheckpointListener*> listeners_;  // not owned
};

}  // namespace sq::dataflow

#endif  // SQUERY_DATAFLOW_CHECKPOINT_H_
