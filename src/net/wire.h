#ifndef SQUERY_NET_WIRE_H_
#define SQUERY_NET_WIRE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "kv/columnar.h"
#include "kv/object.h"
#include "kv/value.h"

namespace sq::net {

/// The cluster wire protocol (DESIGN.md §9): length-prefixed, CRC-checked
/// frames over TCP, encoded with the storage/serde machinery.
///
///   frame   := [u32 payload_len][u32 masked_crc32c(payload)][payload]
///   payload := [u8 version][u8 msg_type][u64 request_id][u64 trace_id][body]
///
/// Integers are little-endian (serde's convention). The CRC is LevelDB-style
/// masked CRC32C over the whole payload, so a frame of CRCs is not its own
/// checksum. The version byte leads the payload: a peer speaking a newer
/// protocol is rejected with a typed error before any body decoding.
inline constexpr uint8_t kWireVersion = 1;

/// Frames above this are rejected before allocation — a corrupt or hostile
/// length prefix must not OOM the receiver.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

/// Frame header bytes on the wire (length + masked CRC).
inline constexpr size_t kFrameHeaderBytes = 8;
/// Fixed payload prefix: version, type, request id, trace id.
inline constexpr size_t kPayloadPrefixBytes = 1 + 1 + 8 + 8;

/// Bytes a frame body may take: the frame limit less the payload prefix.
inline constexpr size_t kMaxBodyBytes = kMaxFrameBytes - kPayloadPrefixBytes;

/// Message-type values that are retired and never reused, so a frame from an
/// old peer can only be rejected as an unknown type, never misread: 2 (rows
/// for an explicit key set, now a keyed kScanRange) and 65 (its reply of
/// materialized rows), 3 (a row scan with a pushed predicate), 4 (a
/// partition fold into partial aggregates), 66 (its reply), 9 (one partition
/// as columnar batches) and 71 (its reply). The lint tool's `wire` pass
/// rejects a MsgType that takes one.
inline constexpr std::array<uint8_t, 7> kRetiredMsgTypes = {
    2, 3, 4, 9, 65, 66, 71};

enum class MsgType : uint8_t {
  // Requests.
  kHello = 1,              ///< who are you / which partitions do you own
  kReplicationDelta = 5,   ///< primary→backup entry batch (live or snapshot)
  kCheckpointMarker = 6,   ///< 2PC marker exchange (prepare/commit/abort)
  kResolveSsid = 7,        ///< resolve "latest"/explicit id cluster-wide
  kFetchSystemTable = 8,   ///< one node's rows of a virtual system table
  kScanRange = 10,         ///< a range of partitions (or its keys) as batches

  // Responses.
  kHelloReply = 64,
  kAck = 67,
  kResolveSsidReply = 68,
  kError = 69,
  kSystemTableReply = 70,
  kRangeBatches = 72,
};

/// True for the type values actually defined above (frame decoding rejects
/// everything else as corrupt).
bool IsKnownMsgType(uint8_t type);
const char* MsgTypeToString(MsgType type);

/// One decoded frame. `request_id` matches a response to its request on a
/// pipelined connection; `trace_id` propagates the caller's trace so RPC
/// spans on both sides join one tree.
struct Frame {
  uint8_t version = kWireVersion;
  MsgType type = MsgType::kError;
  uint64_t request_id = 0;
  uint64_t trace_id = 0;
  std::string body;
};

/// Appends the encoded frame (header + payload) to `out`.
void EncodeFrame(const Frame& frame, std::string* out);

/// Decodes one complete frame from the start of `data`. Typed errors, never
/// crashes or over-reads: truncated header/payload, zero or oversized
/// length, checksum mismatch, unknown version or message type all fail
/// cleanly. On success `*consumed` (if non-null) is the frame's full size.
Result<Frame> DecodeFrame(std::string_view data, size_t* consumed = nullptr);

// ---------------------------------------------------------------------------
// Typed payloads. Each struct has Encode (appends to a body string) and
// Decode (strict: trailing bytes after the body are rejected).

struct HelloReply {
  int32_t node_id = 0;
  int32_t partition_begin = 0;  // owned range [begin, end)
  int32_t partition_end = 0;
  int32_t partition_count = 0;  // total cluster partition space
};
void EncodeHelloReply(const HelloReply& msg, std::string* body);
Result<HelloReply> DecodeHelloReply(std::string_view body);

/// Shared shape of the read requests: which table, at which resolved
/// snapshot version (`has_ssid`), or every retained version (`all_versions`,
/// the `__versions` view), or live (neither).
struct TableRead {
  std::string table;
  bool has_ssid = false;
  int64_t ssid = 0;
  bool all_versions = false;
};

/// Asks a node for partitions [begin, end) of its owned range, answered
/// with one ScanRangeReply page. A keyed request (non-empty `keys`, a point
/// lookup) reads only the rows of those keys that lie in the range, as the
/// batches the node's TableSource::ScanKeys returns; its range spans the
/// partitions the keys hit.
struct ScanRangeRequest {
  TableRead read;
  int32_t begin = 0;
  int32_t end = 0;
  std::vector<kv::Value> keys;
};
void EncodeScanRangeRequest(const ScanRangeRequest& msg, std::string* body);
Result<ScanRangeRequest> DecodeScanRangeRequest(std::string_view body);

/// One columnar scan batch: the `ssid` pseudo-column value of its rows
/// (absent on live scans) and the rows, in storage::PutColumnBatch encoding.
struct WireBatch {
  bool has_ssid = false;
  int64_t ssid = 0;
  std::shared_ptr<const kv::ColumnBatch> rows;  // never null
};
/// One partition's batches, in the order the node's own batch reader
/// yields them.
struct PartitionBatches {
  int32_t partition = 0;
  std::vector<WireBatch> batches;
};
/// One page of a range scan: consecutive partitions from the request's
/// `begin`, in partition order, and the partition the next page starts at
/// (the request's `end` once the range is done). Decoding rejects tombstone
/// rows (scan views never carry them), partitions out of order and a
/// `next_partition` that does not follow the last one.
struct ScanRangeReply {
  std::vector<PartitionBatches> partitions;
  int32_t next_partition = 0;
};
void EncodeScanRangeReply(const ScanRangeReply& msg, std::string* body);
Result<ScanRangeReply> DecodeScanRangeReply(std::string_view body);

/// Encodes a ScanRangeReply one partition at a time, so a node can end the
/// page once the body passes its budget. EncodeScanRangeReply is this
/// writer over a whole message.
class ScanRangeReplyWriter {
 public:
  ScanRangeReplyWriter();
  void Add(const PartitionBatches& partition);
  /// Body bytes so far.
  size_t size() const { return body_.size(); }
  /// Appends the finished body to `out`; the writer is spent.
  void Finish(int32_t next_partition, std::string* out);

 private:
  std::string body_;  // a u32 placeholder for the count, then partitions
  uint32_t partitions_ = 0;
};

struct DeltaEntry {
  kv::Value key;
  bool tombstone = false;
  kv::Object value;
};
/// Primary→backup replication batch: `ssid == 0` targets the live table
/// (tombstone = remove), otherwise the snapshot table at that version.
struct ReplicationDelta {
  std::string table;
  int64_t ssid = 0;
  std::vector<DeltaEntry> entries;
};
void EncodeReplicationDelta(const ReplicationDelta& msg, std::string* body);
Result<ReplicationDelta> DecodeReplicationDelta(std::string_view body);

enum class CheckpointPhase : uint8_t {
  kPrepare = 0,
  kCommit = 1,
  kAbort = 2,
};
struct CheckpointMarker {
  CheckpointPhase phase = CheckpointPhase::kPrepare;
  int64_t checkpoint_id = 0;
};
void EncodeCheckpointMarker(const CheckpointMarker& msg, std::string* body);
Result<CheckpointMarker> DecodeCheckpointMarker(std::string_view body);

struct ResolveSsidRequest {
  bool has_requested = false;
  int64_t requested = 0;
};
void EncodeResolveSsidRequest(const ResolveSsidRequest& msg,
                              std::string* body);
Result<ResolveSsidRequest> DecodeResolveSsidRequest(std::string_view body);

struct ResolveSsidReply {
  int64_t ssid = 0;
};
void EncodeResolveSsidReply(const ResolveSsidReply& msg, std::string* body);
Result<ResolveSsidReply> DecodeResolveSsidReply(std::string_view body);

/// Federated system-table fetch: the coordinator asks a node for its local
/// rows of one virtual table (`__metrics`, `__operators`, `__checkpoints`,
/// `__spans`). The node answers with fully materialized rows; the `node`
/// column the rows already carry keeps them attributable after the merge.
struct FetchSystemTableRequest {
  std::string table;
};
void EncodeFetchSystemTableRequest(const FetchSystemTableRequest& msg,
                                   std::string* body);
Result<FetchSystemTableRequest> DecodeFetchSystemTableRequest(
    std::string_view body);

/// Raw bucket state of one histogram on the serving node. Histograms cross
/// the wire as bucket counts only — percentiles computed on one node must
/// never be merged or re-reported by another (a p99 of p99s is not a p99);
/// the coordinator rebuilds them from the buckets via Histogram::MergeState.
struct WireHistogram {
  std::string name;
  std::vector<int64_t> buckets;
  int64_t count = 0;
  int64_t min = 0;
  int64_t max = 0;
  double sum = 0.0;  // exact bits travel via bit_cast
};

struct SystemTableReply {
  std::vector<kv::Object> rows;
  /// For `__metrics` fetches: the raw state of every histogram on the node,
  /// keyed by metric name. Empty for other tables.
  std::vector<WireHistogram> histograms;
  /// The server's wall clock (its process anchor timeline) when the reply
  /// was built. The coordinator's RPC-midpoint clock-offset estimate —
  /// `server_unix_micros - (t0 + t1) / 2` over its own send/receive wall
  /// times — aligns this node's span timestamps in merged trace exports.
  int64_t server_unix_micros = 0;
};
void EncodeSystemTableReply(const SystemTableReply& msg, std::string* body);
Result<SystemTableReply> DecodeSystemTableReply(std::string_view body);

/// A Status carried over the wire (the body of kError frames).
void EncodeStatusBody(const Status& status, std::string* body);
/// Decodes a kError body into `*out`. The return value is the decode
/// outcome: a corrupt error body yields a ParseError, never a crash.
Status DecodeStatusBody(std::string_view body, Status* out);

}  // namespace sq::net

#endif  // SQUERY_NET_WIRE_H_
