#ifndef SQUERY_DATAFLOW_ALIGNER_H_
#define SQUERY_DATAFLOW_ALIGNER_H_

#include <cstdint>
#include <unordered_set>

#include "dataflow/checkpoint.h"

namespace sq::dataflow {

/// The per-consumer checkpoint-barrier protocol, factored out of the worker
/// loop as a pure decision machine so interleavings can be unit-tested
/// deterministically (the two-concurrent-markers corruption lived exactly
/// here). The aligner owns no records: the worker keeps its own `buffered`
/// (aligned mode) and `overtaken` (unaligned channel log) vectors and acts
/// on the returned outcome.
///
/// Aligned mode (paper Fig. 3): the first marker of a checkpoint starts an
/// alignment; data arriving on already-marked channels must be buffered;
/// once every active upstream's marker is in, the snapshot is taken, the
/// marker forwarded, and the buffer replayed.
///
/// Unaligned mode (Carbone et al., LAS): the first marker begins a
/// copy-on-write capture and is forwarded immediately; data on
/// not-yet-marked channels is processed *and* logged (those records are
/// pre-barrier in-flight data the upstream will not re-emit after a
/// rollback); the last marker finishes the capture.
class ChannelAligner {
 public:
  ChannelAligner(CheckpointMode mode, std::unordered_set<int32_t> upstreams)
      : mode_(mode), active_(std::move(upstreams)) {}

  /// What the worker must do after feeding one control record in. Fields
  /// are ordered the way the worker must act on them.
  struct Outcome {
    /// A new alignment/capture window opened (start the stall/span timer).
    bool alignment_started = false;
    /// A newer checkpoint superseded the one in progress: records buffered
    /// for the old alignment are pre-new-marker traffic and must be
    /// processed *before* anything else below.
    bool drain_buffered_first = false;
    /// Unaligned: the capture of this id was abandoned (superseded or
    /// aborted) — call StateStore::AbortSnapshot(id) and drop the channel
    /// log accumulated for it. 0 = none.
    int64_t abandoned_capture = 0;
    /// Unaligned: begin the capture of this id (OnCheckpoint +
    /// BeginSnapshot) and forward the marker immediately. 0 = none.
    int64_t begin_capture = 0;
    /// The checkpoint to complete: aligned — capture, write out, ack,
    /// forward the marker, then replay the buffer; unaligned — write out the
    /// capture begun at begin_capture (the marker was already forwarded) and
    /// ack with the channel log. 0 = none.
    int64_t complete = 0;
  };

  /// How the worker must treat a data record from upstream `from` right now.
  enum class DataAction {
    kProcess,        ///< no barrier interaction: just process it
    kBuffer,         ///< aligned: channel blocked until alignment completes
    kProcessAndLog,  ///< unaligned: process it and append to the channel log
  };

  Outcome OnMarker(int32_t from, int64_t checkpoint_id,
                   int64_t latest_committed);
  Outcome OnEof(int32_t from);
  /// Coordinator broadcast: checkpoint `checkpoint_id` aborted. Ignores
  /// ids we never started; otherwise releases the alignment or capture.
  Outcome OnAbort(int64_t checkpoint_id);
  DataAction ActionForData(int32_t from) const;

  bool has_active_upstreams() const { return !active_.empty(); }
  /// Nonzero while an alignment (aligned) / capture (unaligned) is open.
  int64_t pending_checkpoint() const {
    return mode_ == CheckpointMode::kAligned ? aligning_ : capturing_;
  }

 private:
  Outcome StartAligned(int32_t from, int64_t checkpoint_id);
  Outcome StartUnaligned(int32_t from, int64_t checkpoint_id);
  void MaybeCompleteAligned(Outcome* out);
  void MaybeCompleteUnaligned(Outcome* out);

  const CheckpointMode mode_;
  std::unordered_set<int32_t> active_;  // upstreams that have not sent EOF

  // Aligned state: the checkpoint being aligned (0 = none) and the
  // upstreams whose marker has arrived (their channels are blocked).
  int64_t aligning_ = 0;
  std::unordered_set<int32_t> aligned_;

  // Unaligned state: the capture in flight (0 = none) and the upstreams
  // whose marker has NOT yet arrived (their data goes to the channel log).
  int64_t capturing_ = 0;
  std::unordered_set<int32_t> pending_;

  // Highest checkpoint id known aborted: its markers may still be in flight
  // upstream (the abort broadcast overtakes them) and must be ignored.
  int64_t max_aborted_ = 0;
};

}  // namespace sq::dataflow

#endif  // SQUERY_DATAFLOW_ALIGNER_H_
