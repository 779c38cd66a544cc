#include "net/wire.h"

#include <bit>
#include <cstring>
#include <utility>

#include "storage/crc32c.h"
#include "storage/serde.h"

namespace sq::net {

namespace {

using storage::PutI32;
using storage::PutI64;
using storage::PutObject;
using storage::PutString;
using storage::PutU32;
using storage::PutU64;
using storage::PutU8;
using storage::Reader;

Status Corrupt(const char* what) {
  return Status::ParseError(std::string("wire: ") + what);
}

/// Finishes a body decode: the reader must be clean and fully consumed —
/// trailing garbage after a well-formed body means a framing bug or a forged
/// length, both worth rejecting loudly.
template <typename T>
Result<T> Finish(const Reader& reader, T&& msg, const char* what) {
  if (!reader.ok() || !reader.exhausted()) return Corrupt(what);
  return std::forward<T>(msg);
}

void PutBool(std::string* buf, bool v) { PutU8(buf, v ? 1 : 0); }

bool ReadBool(Reader* r, bool* out) {
  uint8_t v = 0;
  if (!r->ReadU8(&v)) return false;
  *out = v != 0;
  return true;
}

/// Count prefixes are sanity-bounded by the remaining bytes (every element
/// is at least one byte) before any allocation, mirroring serde's Object
/// decoding.
bool ReadCount(Reader* r, uint32_t* out) {
  if (!r->ReadU32(out)) return false;
  return *out <= r->remaining();
}

void PutTableRead(std::string* buf, const TableRead& read) {
  PutString(buf, read.table);
  PutBool(buf, read.has_ssid);
  PutI64(buf, read.ssid);
  PutBool(buf, read.all_versions);
}

bool ReadTableRead(Reader* r, TableRead* out) {
  return r->ReadString(&out->table) && ReadBool(r, &out->has_ssid) &&
         r->ReadI64(&out->ssid) && ReadBool(r, &out->all_versions);
}

}  // namespace

bool IsKnownMsgType(uint8_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kHello:
    case MsgType::kPointLookup:
    case MsgType::kReplicationDelta:
    case MsgType::kCheckpointMarker:
    case MsgType::kResolveSsid:
    case MsgType::kFetchSystemTable:
    case MsgType::kScanBatches:
    case MsgType::kHelloReply:
    case MsgType::kRows:
    case MsgType::kAck:
    case MsgType::kResolveSsidReply:
    case MsgType::kError:
    case MsgType::kSystemTableReply:
    case MsgType::kBatches:
      return true;
  }
  return false;
}

const char* MsgTypeToString(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kPointLookup: return "point_lookup";
    case MsgType::kReplicationDelta: return "replication_delta";
    case MsgType::kCheckpointMarker: return "checkpoint_marker";
    case MsgType::kResolveSsid: return "resolve_ssid";
    case MsgType::kFetchSystemTable: return "fetch_system_table";
    case MsgType::kScanBatches: return "scan_batches";
    case MsgType::kHelloReply: return "hello_reply";
    case MsgType::kRows: return "rows";
    case MsgType::kAck: return "ack";
    case MsgType::kResolveSsidReply: return "resolve_ssid_reply";
    case MsgType::kError: return "error";
    case MsgType::kSystemTableReply: return "system_table_reply";
    case MsgType::kBatches: return "batches";
  }
  return "unknown";
}

void EncodeFrame(const Frame& frame, std::string* out) {
  std::string payload;
  payload.reserve(kPayloadPrefixBytes + frame.body.size());
  PutU8(&payload, frame.version);
  PutU8(&payload, static_cast<uint8_t>(frame.type));
  PutU64(&payload, frame.request_id);
  PutU64(&payload, frame.trace_id);
  payload.append(frame.body);

  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, storage::MaskCrc(
                  storage::Crc32c(payload.data(), payload.size())));
  out->append(payload);
}

Result<Frame> DecodeFrame(std::string_view data, size_t* consumed) {
  if (data.size() < kFrameHeaderBytes) {
    return Corrupt("truncated frame header");
  }
  Reader header(data.substr(0, kFrameHeaderBytes));
  uint32_t len = 0;
  uint32_t masked_crc = 0;
  if (!header.ReadU32(&len) || !header.ReadU32(&masked_crc)) {
    return Corrupt("truncated frame header");
  }
  if (len == 0) return Status::InvalidArgument("wire: zero-length frame");
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("wire: oversized frame (" +
                                   std::to_string(len) + " bytes)");
  }
  if (data.size() - kFrameHeaderBytes < len) {
    return Corrupt("truncated frame payload");
  }
  const std::string_view payload = data.substr(kFrameHeaderBytes, len);
  if (storage::Crc32c(payload.data(), payload.size()) !=
      storage::UnmaskCrc(masked_crc)) {
    return Corrupt("frame checksum mismatch");
  }
  Reader r(payload);
  Frame frame;
  uint8_t type = 0;
  if (!r.ReadU8(&frame.version) || !r.ReadU8(&type) ||
      !r.ReadU64(&frame.request_id) || !r.ReadU64(&frame.trace_id)) {
    return Corrupt("truncated payload prefix");
  }
  if (frame.version != kWireVersion) {
    return Status::Unimplemented("wire: unsupported protocol version " +
                                 std::to_string(frame.version));
  }
  if (!IsKnownMsgType(type)) {
    return Corrupt("unknown message type");
  }
  frame.type = static_cast<MsgType>(type);
  frame.body.assign(payload.substr(kPayloadPrefixBytes));
  if (consumed != nullptr) *consumed = kFrameHeaderBytes + len;
  return frame;
}

// ---------------------------------------------------------------------------
// Typed payloads

void EncodeHelloReply(const HelloReply& msg, std::string* body) {
  PutI32(body, msg.node_id);
  PutI32(body, msg.partition_begin);
  PutI32(body, msg.partition_end);
  PutI32(body, msg.partition_count);
}

Result<HelloReply> DecodeHelloReply(std::string_view body) {
  Reader r(body);
  HelloReply msg;
  if (!r.ReadI32(&msg.node_id) || !r.ReadI32(&msg.partition_begin) ||
      !r.ReadI32(&msg.partition_end) || !r.ReadI32(&msg.partition_count)) {
    return Corrupt("bad hello reply");
  }
  return Finish(r, std::move(msg), "bad hello reply");
}

void EncodePointLookupRequest(const PointLookupRequest& msg,
                              std::string* body) {
  PutTableRead(body, msg.read);
  PutU32(body, static_cast<uint32_t>(msg.keys.size()));
  for (const kv::Value& key : msg.keys) {
    storage::PutValue(body, key);
  }
}

Result<PointLookupRequest> DecodePointLookupRequest(std::string_view body) {
  Reader r(body);
  PointLookupRequest msg;
  uint32_t count = 0;
  if (!ReadTableRead(&r, &msg.read) || !ReadCount(&r, &count)) {
    return Corrupt("bad point lookup");
  }
  msg.keys.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    kv::Value key;
    if (!r.ReadValue(&key)) return Corrupt("bad point lookup");
    msg.keys.push_back(std::move(key));
  }
  return Finish(r, std::move(msg), "bad point lookup");
}

void EncodeScanPartitionRequest(const ScanPartitionRequest& msg,
                                std::string* body) {
  PutTableRead(body, msg.read);
  PutI32(body, msg.partition);
}

Result<ScanPartitionRequest> DecodeScanPartitionRequest(
    std::string_view body) {
  Reader r(body);
  ScanPartitionRequest msg;
  if (!ReadTableRead(&r, &msg.read) || !r.ReadI32(&msg.partition)) {
    return Corrupt("bad scan request");
  }
  return Finish(r, std::move(msg), "bad scan request");
}

void EncodeRowsReply(const RowsReply& msg, std::string* body) {
  PutI64(body, msg.rows_scanned);
  PutU32(body, static_cast<uint32_t>(msg.rows.size()));
  for (const WireRow& row : msg.rows) {
    storage::PutValue(body, row.key);
    PutBool(body, row.has_ssid);
    PutI64(body, row.ssid);
    PutObject(body, row.value);
  }
}

Result<RowsReply> DecodeRowsReply(std::string_view body) {
  Reader r(body);
  RowsReply msg;
  uint32_t count = 0;
  if (!r.ReadI64(&msg.rows_scanned) || !ReadCount(&r, &count)) {
    return Corrupt("bad rows reply");
  }
  msg.rows.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireRow row;
    if (!r.ReadValue(&row.key) || !ReadBool(&r, &row.has_ssid) ||
        !r.ReadI64(&row.ssid) || !r.ReadObject(&row.value)) {
      return Corrupt("bad rows reply");
    }
    msg.rows.push_back(std::move(row));
  }
  return Finish(r, std::move(msg), "bad rows reply");
}

void EncodeBatchesReply(const BatchesReply& msg, std::string* body) {
  PutU32(body, static_cast<uint32_t>(msg.batches.size()));
  for (const WireBatch& batch : msg.batches) {
    PutBool(body, batch.has_ssid);
    PutI64(body, batch.ssid);
    storage::PutColumnBatch(body, *batch.rows);
  }
}

Result<BatchesReply> DecodeBatchesReply(std::string_view body) {
  Reader r(body);
  BatchesReply msg;
  uint32_t count = 0;
  if (!ReadCount(&r, &count)) return Corrupt("bad batches reply");
  msg.batches.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireBatch batch;
    auto rows = std::make_shared<kv::ColumnBatch>();
    if (!ReadBool(&r, &batch.has_ssid) || !r.ReadI64(&batch.ssid) ||
        !storage::ReadColumnBatch(&r, rows.get()) || rows->has_tombstones()) {
      return Corrupt("bad batches reply");
    }
    batch.rows = std::move(rows);
    msg.batches.push_back(std::move(batch));
  }
  return Finish(r, std::move(msg), "bad batches reply");
}

void EncodeReplicationDelta(const ReplicationDelta& msg, std::string* body) {
  PutString(body, msg.table);
  PutI64(body, msg.ssid);
  PutU32(body, static_cast<uint32_t>(msg.entries.size()));
  for (const DeltaEntry& entry : msg.entries) {
    storage::PutValue(body, entry.key);
    PutBool(body, entry.tombstone);
    PutObject(body, entry.value);
  }
}

Result<ReplicationDelta> DecodeReplicationDelta(std::string_view body) {
  Reader r(body);
  ReplicationDelta msg;
  uint32_t count = 0;
  if (!r.ReadString(&msg.table) || !r.ReadI64(&msg.ssid) ||
      !ReadCount(&r, &count)) {
    return Corrupt("bad replication delta");
  }
  msg.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DeltaEntry entry;
    if (!r.ReadValue(&entry.key) || !ReadBool(&r, &entry.tombstone) ||
        !r.ReadObject(&entry.value)) {
      return Corrupt("bad replication delta");
    }
    msg.entries.push_back(std::move(entry));
  }
  return Finish(r, std::move(msg), "bad replication delta");
}

void EncodeCheckpointMarker(const CheckpointMarker& msg, std::string* body) {
  PutU8(body, static_cast<uint8_t>(msg.phase));
  PutI64(body, msg.checkpoint_id);
}

Result<CheckpointMarker> DecodeCheckpointMarker(std::string_view body) {
  Reader r(body);
  CheckpointMarker msg;
  uint8_t phase = 0;
  if (!r.ReadU8(&phase) || !r.ReadI64(&msg.checkpoint_id) ||
      phase > static_cast<uint8_t>(CheckpointPhase::kAbort)) {
    return Corrupt("bad checkpoint marker");
  }
  msg.phase = static_cast<CheckpointPhase>(phase);
  return Finish(r, std::move(msg), "bad checkpoint marker");
}

void EncodeResolveSsidRequest(const ResolveSsidRequest& msg,
                              std::string* body) {
  PutBool(body, msg.has_requested);
  PutI64(body, msg.requested);
}

Result<ResolveSsidRequest> DecodeResolveSsidRequest(std::string_view body) {
  Reader r(body);
  ResolveSsidRequest msg;
  if (!ReadBool(&r, &msg.has_requested) || !r.ReadI64(&msg.requested)) {
    return Corrupt("bad resolve request");
  }
  return Finish(r, std::move(msg), "bad resolve request");
}

void EncodeResolveSsidReply(const ResolveSsidReply& msg, std::string* body) {
  PutI64(body, msg.ssid);
}

Result<ResolveSsidReply> DecodeResolveSsidReply(std::string_view body) {
  Reader r(body);
  ResolveSsidReply msg;
  if (!r.ReadI64(&msg.ssid)) return Corrupt("bad resolve reply");
  return Finish(r, std::move(msg), "bad resolve reply");
}

void EncodeFetchSystemTableRequest(const FetchSystemTableRequest& msg,
                                   std::string* body) {
  PutString(body, msg.table);
}

Result<FetchSystemTableRequest> DecodeFetchSystemTableRequest(
    std::string_view body) {
  Reader r(body);
  FetchSystemTableRequest msg;
  if (!r.ReadString(&msg.table)) return Corrupt("bad system table request");
  return Finish(r, std::move(msg), "bad system table request");
}

void EncodeSystemTableReply(const SystemTableReply& msg, std::string* body) {
  PutU32(body, static_cast<uint32_t>(msg.rows.size()));
  for (const kv::Object& row : msg.rows) {
    PutObject(body, row);
  }
  PutU32(body, static_cast<uint32_t>(msg.histograms.size()));
  for (const WireHistogram& hist : msg.histograms) {
    PutString(body, hist.name);
    PutU32(body, static_cast<uint32_t>(hist.buckets.size()));
    for (int64_t bucket : hist.buckets) PutI64(body, bucket);
    PutI64(body, hist.count);
    PutI64(body, hist.min);
    PutI64(body, hist.max);
    PutU64(body, std::bit_cast<uint64_t>(hist.sum));
  }
  PutI64(body, msg.server_unix_micros);
}

Result<SystemTableReply> DecodeSystemTableReply(std::string_view body) {
  Reader r(body);
  SystemTableReply msg;
  uint32_t row_count = 0;
  if (!ReadCount(&r, &row_count)) return Corrupt("bad system table reply");
  msg.rows.reserve(row_count);
  for (uint32_t i = 0; i < row_count; ++i) {
    kv::Object row;
    if (!r.ReadObject(&row)) return Corrupt("bad system table reply");
    msg.rows.push_back(std::move(row));
  }
  uint32_t hist_count = 0;
  if (!ReadCount(&r, &hist_count)) return Corrupt("bad system table reply");
  msg.histograms.reserve(hist_count);
  for (uint32_t i = 0; i < hist_count; ++i) {
    WireHistogram hist;
    uint32_t bucket_count = 0;
    uint64_t sum_bits = 0;
    if (!r.ReadString(&hist.name) || !ReadCount(&r, &bucket_count)) {
      return Corrupt("bad system table reply");
    }
    hist.buckets.resize(bucket_count);
    for (uint32_t b = 0; b < bucket_count; ++b) {
      if (!r.ReadI64(&hist.buckets[b])) {
        return Corrupt("bad system table reply");
      }
    }
    if (!r.ReadI64(&hist.count) || !r.ReadI64(&hist.min) ||
        !r.ReadI64(&hist.max) || !r.ReadU64(&sum_bits)) {
      return Corrupt("bad system table reply");
    }
    hist.sum = std::bit_cast<double>(sum_bits);
    msg.histograms.push_back(std::move(hist));
  }
  if (!r.ReadI64(&msg.server_unix_micros)) {
    return Corrupt("bad system table reply");
  }
  return Finish(r, std::move(msg), "bad system table reply");
}

void EncodeStatusBody(const Status& status, std::string* body) {
  PutU8(body, static_cast<uint8_t>(status.code()));
  PutString(body, status.message());
}

Status DecodeStatusBody(std::string_view body, Status* out) {
  Reader r(body);
  uint8_t code = 0;
  std::string message;
  if (!r.ReadU8(&code) || !r.ReadString(&message) || !r.exhausted() ||
      code > static_cast<uint8_t>(StatusCode::kParseError)) {
    return Corrupt("bad error body");
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

}  // namespace sq::net
