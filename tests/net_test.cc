// Tests for the sq::net cluster layer, in three tiers:
//
//  1. Adversarial frame-codec tests: truncation at every prefix length,
//     a flip of every single bit, zero/oversized length prefixes, unknown
//     versions and message types, crafted huge element counts — all must
//     yield typed Status errors, never a crash or over-read.
//  2. Socket-level frame round trip over a real loopback connection.
//  3. An in-process three-node cluster (three NodeServers, one coordinator
//     QueryService with a ClusterClient attached) checked differentially
//     against a single-process QueryService holding the same data: every
//     query must come back bit-identical, with equal scan statistics,
//     under both scan engines and at parallelism 1 and 4. Plus the failure
//     modes: dead node, silent peer, checkpoint abort, misrouted partition.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "kv/columnar.h"
#include "kv/grid.h"
#include "kv/object.h"
#include "kv/partitioner.h"
#include "kv/value.h"
#include "net/cluster_client.h"
#include "net/node_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "query/query_service.h"
#include "sql/result_set.h"
#include "state/isolation.h"
#include "state/snapshot_registry.h"
#include "trace/trace.h"

namespace sq::net {
namespace {

// ---------------------------------------------------------------------------
// Wire codec.

Frame SamplePointLookupFrame() {
  Frame frame;
  frame.type = MsgType::kPointLookup;
  frame.request_id = 7;
  frame.trace_id = 9;
  PointLookupRequest req;
  req.read.table = "orders";
  req.read.has_ssid = true;
  req.read.ssid = 3;
  req.keys.push_back(kv::Value(int64_t{1}));
  req.keys.push_back(kv::Value("alpha"));
  req.keys.push_back(kv::Value(2.5));
  req.keys.push_back(kv::Value(true));
  req.keys.push_back(kv::Value::Null());
  EncodePointLookupRequest(req, &frame.body);
  return frame;
}

void OverwriteLe32(std::string* buf, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*buf)[pos + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

TEST(WireCodec, FrameRoundTrip) {
  const Frame frame = SamplePointLookupFrame();
  std::string encoded;
  EncodeFrame(frame, &encoded);
  ASSERT_GT(encoded.size(), kFrameHeaderBytes + kPayloadPrefixBytes);

  size_t consumed = 0;
  auto decoded = DecodeFrame(encoded, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(consumed, encoded.size());
  EXPECT_EQ(decoded->version, kWireVersion);
  EXPECT_EQ(decoded->type, MsgType::kPointLookup);
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_EQ(decoded->trace_id, 9u);

  auto req = DecodePointLookupRequest(decoded->body);
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->read.table, "orders");
  EXPECT_TRUE(req->read.has_ssid);
  EXPECT_EQ(req->read.ssid, 3);
  EXPECT_FALSE(req->read.all_versions);
  ASSERT_EQ(req->keys.size(), 5u);
  EXPECT_EQ(req->keys[0], kv::Value(int64_t{1}));
  EXPECT_EQ(req->keys[1], kv::Value("alpha"));
  EXPECT_EQ(req->keys[2], kv::Value(2.5));
  EXPECT_EQ(req->keys[3], kv::Value(true));
  EXPECT_TRUE(req->keys[4].is_null());
}

TEST(WireCodec, DecodeConsumesOneFrameFromAStream) {
  std::string stream;
  EncodeFrame(SamplePointLookupFrame(), &stream);
  const size_t first = stream.size();
  Frame second = SamplePointLookupFrame();
  second.request_id = 8;
  EncodeFrame(second, &stream);

  size_t consumed = 0;
  auto a = DecodeFrame(stream, &consumed);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->request_id, 7u);
  EXPECT_EQ(consumed, first);
  auto b = DecodeFrame(std::string_view(stream).substr(consumed), &consumed);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b->request_id, 8u);
}

TEST(WireCodec, EveryTruncationFailsCleanly) {
  std::string encoded;
  EncodeFrame(SamplePointLookupFrame(), &encoded);
  for (size_t n = 0; n < encoded.size(); ++n) {
    auto decoded = DecodeFrame(std::string_view(encoded.data(), n));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << n << " bytes decoded";
  }
}

TEST(WireCodec, EverySingleBitFlipIsDetected) {
  std::string encoded;
  EncodeFrame(SamplePointLookupFrame(), &encoded);
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = encoded;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto decoded = DecodeFrame(corrupt);
      EXPECT_FALSE(decoded.ok())
          << "flip of byte " << byte << " bit " << bit << " went undetected";
    }
  }
}

TEST(WireCodec, ZeroLengthFrameRejected) {
  std::string encoded;
  EncodeFrame(SamplePointLookupFrame(), &encoded);
  OverwriteLe32(&encoded, 0, 0);
  auto decoded = DecodeFrame(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
}

TEST(WireCodec, OversizedLengthRejectedBeforeAllocation) {
  // Only the 8-byte header exists: a hostile length prefix must be rejected
  // from the bounds alone, not by attempting to read (or allocate) 4 GiB.
  std::string encoded;
  EncodeFrame(SamplePointLookupFrame(), &encoded);
  encoded.resize(kFrameHeaderBytes);
  OverwriteLe32(&encoded, 0, 0xfffffffeu);
  auto decoded = DecodeFrame(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
}

TEST(WireCodec, UnknownVersionRejected) {
  Frame frame = SamplePointLookupFrame();
  frame.version = kWireVersion + 1;
  std::string encoded;
  EncodeFrame(frame, &encoded);
  auto decoded = DecodeFrame(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented)
      << decoded.status();
}

TEST(WireCodec, UnknownMessageTypeRejected) {
  // 3, 4 and 66 are retired (a row scan with a pushed predicate, a partition
  // fold and its partial-aggregate reply): their ids stay unknown.
  for (const int type : {3, 4, 66, 200}) {
    Frame frame = SamplePointLookupFrame();
    frame.type = static_cast<MsgType>(type);
    std::string encoded;
    EncodeFrame(frame, &encoded);
    auto decoded = DecodeFrame(encoded);
    ASSERT_FALSE(decoded.ok()) << type;
    EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status();
  }
}

TEST(WireCodec, BodyTrailingBytesRejected) {
  Frame frame = SamplePointLookupFrame();
  frame.body.push_back('\0');
  auto req = DecodePointLookupRequest(frame.body);
  EXPECT_FALSE(req.ok());
}

TEST(WireCodec, HugeElementCountRejected) {
  // A crafted count larger than the remaining bytes must fail the bounds
  // check instead of looping (or reserving) four billion elements. The key
  // count is the last 4 body bytes of a keyless request.
  PointLookupRequest req;
  req.read.table = "orders";
  std::string body;
  EncodePointLookupRequest(req, &body);
  ASSERT_GE(body.size(), 4u);
  OverwriteLe32(&body, body.size() - 4, 0xffffffffu);
  auto decoded = DecodePointLookupRequest(body);
  EXPECT_FALSE(decoded.ok());
}

TEST(WireCodec, StatusBodyRoundTrip) {
  std::string body;
  EncodeStatusBody(Status::OutOfRange("partition 7 not owned"), &body);
  Status decoded;
  ASSERT_TRUE(DecodeStatusBody(body, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(decoded.message(), "partition 7 not owned");

  Status ignored;
  EXPECT_FALSE(DecodeStatusBody(body.substr(0, 2), &ignored).ok());
  std::string bad_code = body;
  bad_code[0] = static_cast<char>(0xff);
  EXPECT_FALSE(DecodeStatusBody(bad_code, &ignored).ok());
}

TEST(WireCodec, SmallPayloadRoundTrips) {
  {
    HelloReply msg{2, 90, 181, 271};
    std::string body;
    EncodeHelloReply(msg, &body);
    auto decoded = DecodeHelloReply(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->node_id, 2);
    EXPECT_EQ(decoded->partition_begin, 90);
    EXPECT_EQ(decoded->partition_end, 181);
    EXPECT_EQ(decoded->partition_count, 271);
  }
  {
    ReplicationDelta msg;
    msg.table = "snapshot_orders";
    msg.ssid = 4;
    msg.entries.push_back({kv::Value(int64_t{9}), false,
                           kv::Object{{"total", kv::Value(int64_t{12})}}});
    msg.entries.push_back({kv::Value(int64_t{10}), true, kv::Object{}});
    std::string body;
    EncodeReplicationDelta(msg, &body);
    auto decoded = DecodeReplicationDelta(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->table, "snapshot_orders");
    EXPECT_EQ(decoded->ssid, 4);
    ASSERT_EQ(decoded->entries.size(), 2u);
    EXPECT_FALSE(decoded->entries[0].tombstone);
    EXPECT_EQ(decoded->entries[0].value.Get("total"), kv::Value(int64_t{12}));
    EXPECT_TRUE(decoded->entries[1].tombstone);
  }
  {
    CheckpointMarker msg{CheckpointPhase::kCommit, 17};
    std::string body;
    EncodeCheckpointMarker(msg, &body);
    auto decoded = DecodeCheckpointMarker(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->phase, CheckpointPhase::kCommit);
    EXPECT_EQ(decoded->checkpoint_id, 17);
  }
  {
    ResolveSsidRequest msg{true, 5};
    std::string body;
    EncodeResolveSsidRequest(msg, &body);
    auto decoded = DecodeResolveSsidRequest(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(decoded->has_requested);
    EXPECT_EQ(decoded->requested, 5);
  }
  {
    FetchSystemTableRequest msg{"__spans"};
    std::string body;
    EncodeFetchSystemTableRequest(msg, &body);
    auto decoded = DecodeFetchSystemTableRequest(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->table, "__spans");
  }
  {
    SystemTableReply msg;
    kv::Object row;
    row.Set("name", kv::Value("x.y"));
    row.Set("node", kv::Value(int64_t{2}));
    msg.rows.push_back(std::move(row));
    WireHistogram h;
    h.name = "x.nanos";
    h.buckets = {1, 0, 3};
    h.count = 4;
    h.min = 2;
    h.max = 9;
    h.sum = 0.1 + 0.2;  // a value whose bits matter
    msg.histograms.push_back(h);
    msg.server_unix_micros = 1700000000000001;
    std::string body;
    EncodeSystemTableReply(msg, &body);
    auto decoded = DecodeSystemTableReply(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded->rows.size(), 1u);
    EXPECT_EQ(decoded->rows[0].Get("name"), kv::Value("x.y"));
    EXPECT_EQ(decoded->rows[0].Get("node"), kv::Value(int64_t{2}));
    ASSERT_EQ(decoded->histograms.size(), 1u);
    EXPECT_EQ(decoded->histograms[0].name, "x.nanos");
    EXPECT_EQ(decoded->histograms[0].buckets, h.buckets);
    EXPECT_EQ(decoded->histograms[0].count, 4);
    EXPECT_EQ(decoded->histograms[0].min, 2);
    EXPECT_EQ(decoded->histograms[0].max, 9);
    EXPECT_EQ(decoded->histograms[0].sum, h.sum);  // exact: bit_cast travel
    EXPECT_EQ(decoded->server_unix_micros, 1700000000000001);
  }
}

// ---------------------------------------------------------------------------
// Golden-frame corpus: one checked-in encoded frame per MsgType. Each case
// asserts (a) re-encoding the canonical message reproduces the checked-in
// bytes exactly — any wire-format drift (field order, width, CRC, framing)
// fails here before it can strand persisted frames or break rolling
// upgrades — and (b) decoding the checked-in bytes round-trips byte-exactly.
// sq-lint's wire pass cross-checks that every MsgType appears between the
// corpus markers below.

std::string FromHex(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    return c - 'a' + 10;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

std::string ToHex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

/// Decodes a frame body with its typed decoder and re-encodes the message
/// into `*out`.
using BodyCodec = std::function<Status(std::string_view body, std::string* out)>;

template <typename Msg>
BodyCodec Codec(Result<Msg> (*decode)(std::string_view),
                void (*encode)(const Msg&, std::string*)) {
  return [decode, encode](std::string_view body, std::string* out) {
    SQ_ASSIGN_OR_RETURN(Msg msg, decode(body));
    encode(msg, out);
    return Status::OK();
  };
}

/// The codec of the bodyless types (kHello, kAck).
Status EmptyBody(std::string_view body, std::string* /*out*/) {
  return body.empty() ? Status::OK() : Status::ParseError("body not empty");
}

Status StatusBodyCodec(std::string_view body, std::string* out) {
  Status decoded;
  SQ_RETURN_IF_ERROR(DecodeStatusBody(body, &decoded));
  EncodeStatusBody(decoded, out);
  return Status::OK();
}

struct GoldenFrame {
  MsgType type;
  std::string hex;  // full encoded frame: header + payload
  std::function<Frame()> build;
  BodyCodec codec;
};

std::vector<GoldenFrame> GoldenCorpus() {
  std::vector<GoldenFrame> corpus;
  auto add = [&corpus](MsgType type, std::string hex,
                       std::function<Frame()> build, BodyCodec codec) {
    corpus.push_back({type, std::move(hex), std::move(build), std::move(codec)});
  };
  // sqlint-golden-corpus-begin
  add(MsgType::kHello, "1200000020c2dfdf010101000000000000000000000000000000",
      [] {
        Frame f;
        f.type = MsgType::kHello;
        f.request_id = 1;
        return f;
      },
      EmptyBody);
  add(MsgType::kPointLookup,
      "3d00000014a713eb01020200000000000000bc0a000000000000060000006f72646572"
      "7301030000000000000000020000000201000000000000000405000000616c706861",
      [] {
        Frame f;
        f.type = MsgType::kPointLookup;
        f.request_id = 2;
        f.trace_id = 0xabc;
        PointLookupRequest m;
        m.read.table = "orders";
        m.read.has_ssid = true;
        m.read.ssid = 3;
        m.keys.push_back(kv::Value(int64_t{1}));
        m.keys.push_back(kv::Value("alpha"));
        EncodePointLookupRequest(m, &f.body);
        return f;
      },
      Codec(DecodePointLookupRequest, EncodePointLookupRequest));
  add(MsgType::kScanBatches,
      "2a00000095360af8010903000000000000000000000000000000060000006f72646572"
      "730000000000000000000002000000",
      [] {
        Frame f;
        f.type = MsgType::kScanBatches;
        f.request_id = 3;
        ScanPartitionRequest m;
        m.read.table = "orders";
        m.partition = 2;
        EncodeScanPartitionRequest(m, &f.body);
        return f;
      },
      Codec(DecodeScanPartitionRequest, EncodeScanPartitionRequest));
  add(MsgType::kReplicationDelta,
      "560000007a27a7e4010505000000000000000000000000000000060000006f72646572"
      "73070000000000000002000000020a000000000000000001000000050000007072696365"
      "030000000000000440020b000000000000000100000000",
      [] {
        Frame f;
        f.type = MsgType::kReplicationDelta;
        f.request_id = 5;
        ReplicationDelta m;
        m.table = "orders";
        m.ssid = 7;
        DeltaEntry put;
        put.key = kv::Value(int64_t{10});
        put.value.Set("price", kv::Value(2.5));
        m.entries.push_back(std::move(put));
        DeltaEntry del;
        del.key = kv::Value(int64_t{11});
        del.tombstone = true;
        m.entries.push_back(std::move(del));
        EncodeReplicationDelta(m, &f.body);
        return f;
      },
      Codec(DecodeReplicationDelta, EncodeReplicationDelta));
  add(MsgType::kCheckpointMarker,
      "1b00000097380b1d010606000000000000000000000000000000010c00000000000000",
      [] {
        Frame f;
        f.type = MsgType::kCheckpointMarker;
        f.request_id = 6;
        CheckpointMarker m{CheckpointPhase::kCommit, 12};
        EncodeCheckpointMarker(m, &f.body);
        return f;
      },
      Codec(DecodeCheckpointMarker, EncodeCheckpointMarker));
  add(MsgType::kResolveSsid,
      "1b000000d5b99b8e010707000000000000000000000000000000010400000000000000",
      [] {
        Frame f;
        f.type = MsgType::kResolveSsid;
        f.request_id = 7;
        ResolveSsidRequest m{true, 4};
        EncodeResolveSsidRequest(m, &f.body);
        return f;
      },
      Codec(DecodeResolveSsidRequest, EncodeResolveSsidRequest));
  add(MsgType::kFetchSystemTable,
      "1f0000001653ad83010808000000000000000000000000000000090000005f5f6d6574"
      "72696373",
      [] {
        Frame f;
        f.type = MsgType::kFetchSystemTable;
        f.request_id = 8;
        FetchSystemTableRequest m;
        m.table = "__metrics";
        EncodeFetchSystemTableRequest(m, &f.body);
        return f;
      },
      Codec(DecodeFetchSystemTableRequest,
            EncodeFetchSystemTableRequest));
  add(MsgType::kHelloReply,
      "220000009c6636d90140010000000000000000000000000000000200000004000000"
      "080000000c000000",
      [] {
        Frame f;
        f.type = MsgType::kHelloReply;
        f.request_id = 1;
        HelloReply m{2, 4, 8, 12};
        EncodeHelloReply(m, &f.body);
        return f;
      },
      Codec(DecodeHelloReply, EncodeHelloReply));
  add(MsgType::kRows,
      "460000008bd72d270141020000000000000000000000000000000500000000000000"
      "0100000002010000000000000001030000000000000001000000050000007072696365"
      "022a00000000000000",
      [] {
        Frame f;
        f.type = MsgType::kRows;
        f.request_id = 2;
        RowsReply m;
        m.rows_scanned = 5;
        WireRow r;
        r.key = kv::Value(int64_t{1});
        r.has_ssid = true;
        r.ssid = 3;
        r.value.Set("price", kv::Value(int64_t{42}));
        m.rows.push_back(std::move(r));
        EncodeRowsReply(m, &f.body);
        return f;
      },
      Codec(DecodeRowsReply, EncodeRowsReply));
  add(MsgType::kAck, "1200000010437c08014305000000000000000000000000000000",
      [] {
        Frame f;
        f.type = MsgType::kAck;
        f.request_id = 5;
        return f;
      },
      EmptyBody);
  add(MsgType::kResolveSsidReply,
      "1a00000069ad487c0144070000000000000000000000000000000400000000000000",
      [] {
        Frame f;
        f.type = MsgType::kResolveSsidReply;
        f.request_id = 7;
        ResolveSsidReply m{4};
        EncodeResolveSsidReply(m, &f.body);
        return f;
      },
      Codec(DecodeResolveSsidReply, EncodeResolveSsidReply));
  add(MsgType::kError,
      "27000000049d31f601450900000000000000000000000000000002100000006e6f2073"
      "75636820736e617073686f74",
      [] {
        Frame f;
        f.type = MsgType::kError;
        f.request_id = 9;
        EncodeStatusBody(Status::NotFound("no such snapshot"), &f.body);
        return f;
      },
      StatusBodyCodec);
  add(MsgType::kSystemTableReply,
      "b100000083ebad9d014608000000000000000000000000000000010000000200000004"
      "0000006e616d6504150000006e65742e7365727665722e727063732e68656c6c6f0500"
      "000076616c756502030000000000000001000000170000006e65742e7365727665722e"
      "68616e646c655f6e616e6f730300000000000000000000000200000000000000010000"
      "00000000000300000000000000460000000000000082000000000000000000000000c0"
      "724000401e18240a0600",
      [] {
        Frame f;
        f.type = MsgType::kSystemTableReply;
        f.request_id = 8;
        SystemTableReply m;
        kv::Object row;
        row.Set("name", kv::Value("net.server.rpcs.hello"));
        row.Set("value", kv::Value(int64_t{3}));
        m.rows.push_back(std::move(row));
        WireHistogram h;
        h.name = "net.server.handle_nanos";
        h.buckets = {0, 2, 1};
        h.count = 3;
        h.min = 70;
        h.max = 130;
        h.sum = 300.0;
        m.histograms.push_back(std::move(h));
        m.server_unix_micros = 1700000000000000;
        EncodeSystemTableReply(m, &f.body);
        return f;
      },
      Codec(DecodeSystemTableReply, EncodeSystemTableReply));
  add(MsgType::kBatches,
      "7a000000d3d05be9014703000000000000000000000000000000010000000102000000"
      "0000000001020000000200000002010000000000000002040000000000000002000000"
      "000000000100000000000000000500000070726963650002032a000000000000000700"
      "00000000000006000000726567696f6e000401020000007231",
      [] {
        Frame f;
        f.type = MsgType::kBatches;
        f.request_id = 3;
        auto rows = std::make_shared<kv::ColumnBatch>();
        rows->AppendRow(kv::Value(int64_t{1}), 2,
                        kv::Object{{"price", kv::Value(int64_t{42})},
                                   {"region", kv::Value("r1")}});
        rows->AppendRow(kv::Value(int64_t{4}), 1,
                        kv::Object{{"price", kv::Value(int64_t{7})}});
        BatchesReply m;
        m.batches.push_back(WireBatch{true, 2, std::move(rows)});
        EncodeBatchesReply(m, &f.body);
        return f;
      },
      Codec(DecodeBatchesReply, EncodeBatchesReply));
  // sqlint-golden-corpus-end
  return corpus;
}

TEST(WireCodec, GoldenCorpusCoversEveryMsgType) {
  const auto corpus = GoldenCorpus();
  std::set<uint8_t> covered;
  for (const GoldenFrame& g : corpus) {
    covered.insert(static_cast<uint8_t>(g.type));
  }
  for (uint8_t t = 0; t < 255; ++t) {
    EXPECT_EQ(IsKnownMsgType(t), covered.count(t) == 1)
        << "MsgType " << int{t} << " known/corpus mismatch";
  }
}

TEST(WireCodec, GoldenFramesEncodeByteExactly) {
  for (const GoldenFrame& g : GoldenCorpus()) {
    std::string encoded;
    EncodeFrame(g.build(), &encoded);
    EXPECT_EQ(ToHex(encoded), g.hex)
        << "wire-format drift for " << MsgTypeToString(g.type)
        << ": re-encoding the canonical message no longer reproduces the "
           "checked-in frame";
  }
}

TEST(WireCodec, GoldenFramesDecodeAndRoundTrip) {
  for (const GoldenFrame& g : GoldenCorpus()) {
    const std::string bytes = FromHex(g.hex);
    size_t consumed = 0;
    auto decoded = DecodeFrame(bytes, &consumed);
    ASSERT_TRUE(decoded.ok())
        << MsgTypeToString(g.type) << ": " << decoded.status();
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(decoded->type, g.type);
    std::string reencoded;
    EncodeFrame(*decoded, &reencoded);
    EXPECT_EQ(ToHex(reencoded), g.hex)
        << MsgTypeToString(g.type) << " does not round-trip byte-exactly";
  }
}

TEST(WireCodec, GoldenBodiesRoundTripThroughTheirCodecs) {
  for (const GoldenFrame& g : GoldenCorpus()) {
    auto frame = DecodeFrame(FromHex(g.hex));
    ASSERT_TRUE(frame.ok()) << MsgTypeToString(g.type) << ": "
                            << frame.status();
    std::string reencoded;
    const Status s = g.codec(frame->body, &reencoded);
    ASSERT_TRUE(s.ok()) << MsgTypeToString(g.type) << ": " << s;
    EXPECT_EQ(ToHex(reencoded), ToHex(frame->body))
        << MsgTypeToString(g.type) << " body does not round-trip byte-exactly";
  }
}

// Bodies arrive from other processes: a truncated body of any type (the
// columnar batches of kBatches included) must fail its decoder with a typed
// error, never crash or over-read.
TEST(WireCodec, EveryStrictBodyPrefixFailsWithATypedError) {
  for (const GoldenFrame& g : GoldenCorpus()) {
    auto frame = DecodeFrame(FromHex(g.hex));
    ASSERT_TRUE(frame.ok()) << MsgTypeToString(g.type) << ": "
                            << frame.status();
    const std::string& body = frame->body;
    for (size_t n = 0; n < body.size(); ++n) {
      std::string ignored;
      const Status s = g.codec(std::string_view(body).substr(0, n), &ignored);
      EXPECT_TRUE(s.IsParseError())
          << MsgTypeToString(g.type) << " prefix of " << n << " bytes: " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Socket layer.

TEST(Socket, FrameRoundTripOverLoopback) {
  auto listen = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listen.ok()) << listen.status();
  auto port = LocalPort(*listen);
  ASSERT_TRUE(port.ok()) << port.status();

  std::thread echo([fd = *listen] {
    auto conn = AcceptConn(fd);
    if (!conn.ok()) return;
    auto frame = RecvFrame(*conn, 0);
    if (frame.ok()) {
      frame->request_id += 1;
      (void)SendFrame(*conn, *frame, 0);
    }
    CloseFd(*conn);
  });

  const int64_t deadline = trace::NowNanos() + 5'000'000'000;
  auto conn = DialTcp("127.0.0.1", *port, deadline);
  ASSERT_TRUE(conn.ok()) << conn.status();
  int64_t bytes_out = 0;
  ASSERT_TRUE(
      SendFrame(*conn, SamplePointLookupFrame(), deadline, &bytes_out).ok());
  EXPECT_GT(bytes_out, 0);
  int64_t bytes_in = 0;
  auto reply = RecvFrame(*conn, deadline, &bytes_in);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->request_id, 8u);
  EXPECT_EQ(bytes_in, bytes_out);
  CloseFd(*conn);
  echo.join();
  CloseFd(*listen);
}

// ---------------------------------------------------------------------------
// In-process cluster fixture.

constexpr int32_t kClusterNodes = 3;
constexpr int32_t kClusterPartitions = kv::kDefaultPartitionCount;
constexpr int64_t kClusterKeys = 150;

kv::Object OrderValue(int64_t key) {
  kv::Object o;
  o.Set("total", kv::Value((key * 37) % 1000));
  o.Set("region", kv::Value("r" + std::to_string(key % 4)));
  return o;
}

kv::Object OrderValueV2(int64_t key) {
  kv::Object o = OrderValue(key);
  o.Set("total", kv::Value(5000 + key));
  return o;
}

struct ClusterNode {
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<kv::Grid> grid;
  std::unique_ptr<state::SnapshotRegistry> registry;
  std::unique_ptr<query::QueryService> query;
  std::unique_ptr<NodeServer> server;
};

std::unique_ptr<ClusterNode> StartNode(int32_t id, int32_t node_count) {
  auto n = std::make_unique<ClusterNode>();
  n->metrics = std::make_unique<MetricsRegistry>();
  n->grid = std::make_unique<kv::Grid>(kv::GridConfig{
      .node_count = 1, .partition_count = kClusterPartitions,
      .backup_count = 0});
  n->registry = std::make_unique<state::SnapshotRegistry>(
      n->grid.get(),
      state::SnapshotRegistry::Options{.retained_versions = 2,
                                       .async_prune = false,
                                       .metrics = nullptr});
  n->query = std::make_unique<query::QueryService>(
      n->grid.get(), n->registry.get(), nullptr, n->metrics.get());
  n->query->set_node_id(id);
  NodeServerOptions opts;
  opts.node_id = id;
  opts.owned = kv::PartitionRangeOf(id, node_count, kClusterPartitions);
  opts.partition_count = kClusterPartitions;
  opts.query = n->query.get();
  opts.grid = n->grid.get();
  opts.registry = n->registry.get();
  opts.checkpoint = n->registry.get();
  opts.metrics = n->metrics.get();
  n->server = std::make_unique<NodeServer>(opts);
  SQ_CHECK(n->server->Start().ok()) << "node " << id << " failed to start";
  return n;
}

/// Three node servers, a coordinator QueryService routing through a
/// ClusterClient, and a single-process reference service holding the same
/// data for differential assertions.
struct TestCluster {
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  std::unique_ptr<MetricsRegistry> coord_metrics;
  std::unique_ptr<kv::Grid> coord_grid;
  std::unique_ptr<state::SnapshotRegistry> coord_registry;
  std::unique_ptr<ClusterClient> client;
  std::unique_ptr<query::QueryService> coordinator;

  std::unique_ptr<kv::Grid> ref_grid;
  std::unique_ptr<state::SnapshotRegistry> ref_registry;
  std::unique_ptr<query::QueryService> reference;

  ~TestCluster() {
    for (auto& n : nodes) {
      if (n && n->server) n->server->Stop();
    }
  }
};

std::unique_ptr<TestCluster> StartCluster(RpcOptions rpc = {},
                                          bool load_data = true) {
  auto tc = std::make_unique<TestCluster>();
  ClusterTopology topology;
  topology.partition_count = kClusterPartitions;
  for (int32_t i = 0; i < kClusterNodes; ++i) {
    tc->nodes.push_back(StartNode(i, kClusterNodes));
    topology.nodes.push_back(
        NodeAddress{i, "127.0.0.1", tc->nodes.back()->server->port()});
  }
  tc->coord_metrics = std::make_unique<MetricsRegistry>();
  tc->client = std::make_unique<ClusterClient>(topology, rpc,
                                               tc->coord_metrics.get());
  // The coordinator's own grid stays empty: with a router attached every
  // table read must be answered by the nodes, which is exactly what the
  // differential test wants to prove.
  tc->coord_grid = std::make_unique<kv::Grid>(kv::GridConfig{
      .node_count = 1, .partition_count = kClusterPartitions,
      .backup_count = 0});
  tc->coord_registry = std::make_unique<state::SnapshotRegistry>(
      tc->coord_grid.get(),
      state::SnapshotRegistry::Options{.retained_versions = 2,
                                       .async_prune = false,
                                       .metrics = nullptr});
  tc->coordinator = std::make_unique<query::QueryService>(
      tc->coord_grid.get(), tc->coord_registry.get(), nullptr,
      tc->coord_metrics.get());
  tc->coordinator->AttachCluster(tc->client.get());

  tc->ref_grid = std::make_unique<kv::Grid>(kv::GridConfig{
      .node_count = 1, .partition_count = kClusterPartitions,
      .backup_count = 0});
  tc->ref_registry = std::make_unique<state::SnapshotRegistry>(
      tc->ref_grid.get(),
      state::SnapshotRegistry::Options{.retained_versions = 2,
                                       .async_prune = false,
                                       .metrics = nullptr});
  tc->reference = std::make_unique<query::QueryService>(
      tc->ref_grid.get(), tc->ref_registry.get(), nullptr, nullptr);

  if (!load_data) return tc;

  // Cluster side loads over the wire (replication deltas + 2PC markers);
  // reference side writes the same data directly.
  std::vector<DeltaEntry> live;
  std::vector<DeltaEntry> snap1;
  std::vector<DeltaEntry> snap2;
  for (int64_t k = 0; k < kClusterKeys; ++k) {
    live.push_back(DeltaEntry{kv::Value(k), false, OrderValue(k)});
    snap1.push_back(DeltaEntry{kv::Value(k), false, OrderValue(k)});
    if (k % 3 == 0) {
      snap2.push_back(DeltaEntry{kv::Value(k), false, OrderValueV2(k)});
    }
  }
  SQ_CHECK(tc->client->Apply("orders", 0, live).ok());
  SQ_CHECK(tc->client->Apply("snapshot_orders", 1, snap1).ok());
  SQ_CHECK(tc->client->RunCheckpoint(1).ok());
  SQ_CHECK(tc->client->Apply("snapshot_orders", 2, snap2).ok());
  SQ_CHECK(tc->client->RunCheckpoint(2).ok());

  auto* ref_live = tc->ref_grid->GetOrCreateLiveMap("orders");
  auto* ref_snap = tc->ref_grid->GetOrCreateSnapshotTable("snapshot_orders");
  for (int64_t k = 0; k < kClusterKeys; ++k) {
    ref_live->Put(kv::Value(k), OrderValue(k));
    ref_snap->Write(1, kv::Value(k), OrderValue(k));
  }
  tc->ref_registry->OnCheckpointCommitted(1);
  for (int64_t k = 0; k < kClusterKeys; ++k) {
    if (k % 3 == 0) ref_snap->Write(2, kv::Value(k), OrderValueV2(k));
  }
  tc->ref_registry->OnCheckpointCommitted(2);
  return tc;
}

std::string RowsToString(const sql::ResultSet& rs) {
  std::string out;
  for (const auto& row : rs.rows) {
    out += "[";
    for (const auto& cell : row) out += cell.ToString() + ",";
    out += "] ";
  }
  return out;
}

/// Runs `sql` on the cluster coordinator and the single-process reference
/// and requires bit-identical results (columns, row order, cell values) and
/// equal scan statistics, under both scan engines and at parallelism 1 and
/// 4: remote partitions must go through the same filter and fold as local
/// ones.
void ExpectSameResults(TestCluster* tc, const std::string& sql,
                       const query::QueryOptions& options) {
  for (const bool force_row_scan : {false, true}) {
    for (const int32_t parallelism : {1, 4}) {
      query::QueryOptions variant = options;
      variant.force_row_scan = force_row_scan;
      variant.parallelism = parallelism;
      const std::string label = sql + " [force_row_scan=" +
                                (force_row_scan ? "true" : "false") +
                                ", parallelism=" +
                                std::to_string(parallelism) + "]";
      auto cluster = tc->coordinator->ExecuteWithStats(sql, variant);
      auto local = tc->reference->ExecuteWithStats(sql, variant);
      ASSERT_TRUE(local.ok()) << label << ": " << local.status();
      ASSERT_TRUE(cluster.ok()) << label << ": " << cluster.status();
      EXPECT_EQ(cluster->result.columns, local->result.columns) << label;
      EXPECT_EQ(cluster->result.rows, local->result.rows)
          << label << "\n  cluster: " << RowsToString(cluster->result)
          << "\n  local:   " << RowsToString(local->result);
      const sql::ExecStats& c = cluster->stats;
      const sql::ExecStats& l = local->stats;
      EXPECT_EQ(c.rows_scanned, l.rows_scanned) << label;
      EXPECT_EQ(c.rows_returned, l.rows_returned) << label;
      EXPECT_EQ(c.partitions_scanned, l.partitions_scanned) << label;
      EXPECT_EQ(c.batches_scanned, l.batches_scanned) << label;
      EXPECT_EQ(c.used_vectorized, l.used_vectorized) << label;
    }
  }
}

query::QueryOptions ReadCommitted() {
  query::QueryOptions options;
  options.isolation = state::IsolationLevel::kReadCommittedNoFailures;
  return options;
}

TEST(ClusterNet, HelloReportsIdentityAndOwnedRange) {
  auto tc = StartCluster({}, /*load_data=*/false);
  for (int32_t i = 0; i < kClusterNodes; ++i) {
    auto hello = tc->client->Hello(i);
    ASSERT_TRUE(hello.ok()) << hello.status();
    EXPECT_EQ(hello->node_id, i);
    const kv::PartitionRange range =
        kv::PartitionRangeOf(i, kClusterNodes, kClusterPartitions);
    EXPECT_EQ(hello->partition_begin, range.begin);
    EXPECT_EQ(hello->partition_end, range.end);
    EXPECT_EQ(hello->partition_count, kClusterPartitions);
  }
}

TEST(ClusterNet, DifferentialLiveQueries) {
  auto tc = StartCluster();
  ExpectSameResults(
      tc.get(),
      "SELECT count(*), sum(total), min(total), max(total), avg(total) "
      "FROM orders",
      ReadCommitted());
  ExpectSameResults(tc.get(),
                    "SELECT key, total FROM orders WHERE total > 300 "
                    "ORDER BY key",
                    ReadCommitted());
  ExpectSameResults(tc.get(),
                    "SELECT region, count(*), sum(total) FROM orders "
                    "GROUP BY region ORDER BY region",
                    ReadCommitted());
  ExpectSameResults(tc.get(), "SELECT key, total FROM orders WHERE key = 7",
                    ReadCommitted());
  ExpectSameResults(tc.get(),
                    "SELECT key, total FROM orders WHERE key IN (11, 3, 97)",
                    ReadCommitted());
}

TEST(ClusterNet, DifferentialSnapshotQueries) {
  auto tc = StartCluster();
  for (auto& n : tc->nodes) {
    EXPECT_EQ(n->registry->latest_committed(), 2);
  }
  const query::QueryOptions serializable;  // default isolation
  ExpectSameResults(tc.get(),
                    "SELECT count(*), sum(total) FROM snapshot_orders",
                    serializable);
  ExpectSameResults(tc.get(),
                    "SELECT key, total FROM snapshot_orders "
                    "WHERE total >= 5000 ORDER BY key",
                    serializable);
  ExpectSameResults(tc.get(),
                    "SELECT region, count(*), sum(total) FROM snapshot_orders "
                    "GROUP BY region ORDER BY region",
                    serializable);
  ExpectSameResults(tc.get(),
                    "SELECT count(DISTINCT region) FROM snapshot_orders",
                    serializable);
  // Explicit version pins: the ssid conjunct and the option both must
  // resolve over the wire (the coordinator's own registry is empty).
  ExpectSameResults(tc.get(),
                    "SELECT count(*), sum(total) FROM snapshot_orders "
                    "WHERE ssid = 1",
                    serializable);
  query::QueryOptions pinned = serializable;
  pinned.snapshot_id = 1;
  ExpectSameResults(tc.get(), "SELECT sum(total) FROM snapshot_orders",
                    pinned);
  // The multi-version view.
  ExpectSameResults(tc.get(),
                    "SELECT key, ssid FROM snapshot_orders__versions "
                    "ORDER BY key, ssid",
                    serializable);
  // Multi-key lookups into it: both paths emit keys outermost, versions
  // innermost, with no ORDER BY to hide a difference.
  ExpectSameResults(tc.get(),
                    "SELECT key, ssid FROM snapshot_orders__versions "
                    "WHERE key IN (3, 6)",
                    serializable);
}

TEST(ClusterNet, LiveTableNeedsWeakIsolationOnBothPaths) {
  auto tc = StartCluster();
  const query::QueryOptions serializable;
  auto cluster = tc->coordinator->Execute("SELECT count(*) FROM orders",
                                          serializable);
  auto local = tc->reference->Execute("SELECT count(*) FROM orders",
                                      serializable);
  EXPECT_FALSE(cluster.ok());
  EXPECT_FALSE(local.ok());
  EXPECT_EQ(cluster.status().code(), local.status().code());
}

TEST(ClusterNet, UnknownSnapshotIdFailsOnBothPaths) {
  auto tc = StartCluster();
  query::QueryOptions pinned;
  pinned.snapshot_id = 99;
  auto cluster = tc->coordinator->Execute(
      "SELECT count(*) FROM snapshot_orders", pinned);
  auto local = tc->reference->Execute(
      "SELECT count(*) FROM snapshot_orders", pinned);
  EXPECT_FALSE(cluster.ok());
  EXPECT_FALSE(local.ok());
}

TEST(ClusterNet, ReplicationDeltaAppliesPutsAndTombstones) {
  auto tc = StartCluster();
  std::vector<DeltaEntry> delta;
  delta.push_back(DeltaEntry{kv::Value(int64_t{5}), true, kv::Object{}});
  delta.push_back(
      DeltaEntry{kv::Value(int64_t{200}), false, OrderValue(200)});
  ASSERT_TRUE(tc->client->Apply("orders", 0, delta).ok());
  auto* ref_live = tc->ref_grid->GetOrCreateLiveMap("orders");
  ref_live->Remove(kv::Value(int64_t{5}));
  ref_live->Put(kv::Value(int64_t{200}), OrderValue(200));

  ExpectSameResults(tc.get(), "SELECT count(*), sum(total) FROM orders",
                    ReadCommitted());
  ExpectSameResults(tc.get(), "SELECT key FROM orders WHERE key = 5",
                    ReadCommitted());
  ExpectSameResults(tc.get(), "SELECT total FROM orders WHERE key = 200",
                    ReadCommitted());
}

TEST(ClusterNet, MisroutedPartitionGetsTypedOutOfRange) {
  auto tc = StartCluster({}, /*load_data=*/false);
  // A partition owned by node 2, asked of node 0: the server must refuse
  // rather than silently read its own (wrong) share of the keyspace.
  ScanPartitionRequest req;
  req.read.table = "orders";
  req.partition = tc->nodes[2]->server->options().owned.begin;
  std::string body;
  EncodeScanPartitionRequest(req, &body);
  std::string reply;
  Status s = tc->client->Call(0, MsgType::kScanBatches, body,
                              MsgType::kBatches, &reply, trace::SpanContext{},
                              /*idempotent=*/true);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << s;
}

TEST(ClusterNet, DeadNodeYieldsTypedErrorNotAHang) {
  auto tc =
      StartCluster(RpcOptions{.deadline_ms = 250, .max_attempts = 2,
                              .backoff_ms = 10});
  tc->nodes[1]->server->Stop();
  tc->client->Disconnect();
  const int64_t t0 = trace::NowNanos();
  auto result = tc->coordinator->Execute("SELECT count(*) FROM orders",
                                         ReadCommitted());
  const int64_t elapsed_ms = (trace::NowNanos() - t0) / 1'000'000;
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable() || result.status().IsTimeout())
      << result.status();
  EXPECT_LT(elapsed_ms, 60'000);
}

TEST(ClusterNet, SilentPeerHitsDeadline) {
  // A listener that accepts into its backlog but never answers: the RPC must
  // come back kTimeout at the per-attempt deadline, not hang.
  auto listen = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listen.ok()) << listen.status();
  auto port = LocalPort(*listen);
  ASSERT_TRUE(port.ok()) << port.status();

  ClusterTopology topology;
  topology.partition_count = kClusterPartitions;
  topology.nodes.push_back(NodeAddress{0, "127.0.0.1", *port});
  ClusterClient client(topology,
                       RpcOptions{.deadline_ms = 150, .max_attempts = 1,
                                  .backoff_ms = 1});
  const int64_t t0 = trace::NowNanos();
  auto hello = client.Hello(0);
  const int64_t elapsed_ms = (trace::NowNanos() - t0) / 1'000'000;
  ASSERT_FALSE(hello.ok());
  EXPECT_TRUE(hello.status().IsTimeout()) << hello.status();
  EXPECT_LT(elapsed_ms, 10'000);
  CloseFd(*listen);
}

TEST(ClusterNet, CheckpointAbortsWhenANodeIsDown) {
  auto tc =
      StartCluster(RpcOptions{.deadline_ms = 250, .max_attempts = 2,
                              .backoff_ms = 10});
  tc->nodes[2]->server->Stop();
  tc->client->Disconnect();
  Status s = tc->client->RunCheckpoint(3);
  EXPECT_TRUE(s.IsAborted()) << s;
  // The surviving nodes saw the abort marker: their latest committed
  // snapshot is unchanged and id 3 never becomes queryable.
  EXPECT_EQ(tc->nodes[0]->registry->latest_committed(), 2);
  EXPECT_EQ(tc->nodes[1]->registry->latest_committed(), 2);
  EXPECT_FALSE(tc->nodes[0]->registry->IsQueryable(3));
}

TEST(ClusterNet, MetricsAndNodeColumn) {
  auto tc = StartCluster();
  auto result = tc->coordinator->Execute(
      "SELECT count(*), sum(total) FROM orders", ReadCommitted());
  ASSERT_TRUE(result.ok()) << result.status();

  // Client side: one scan RPC per partition, bytes both ways.
  EXPECT_GT(tc->coord_metrics->GetCounter("net.client.bytes_out")->Value(), 0);
  EXPECT_GT(tc->coord_metrics->GetCounter("net.client.bytes_in")->Value(), 0);
  EXPECT_EQ(
      tc->coord_metrics->GetCounter("net.client.rpcs.scan_batches")->Value(),
      kClusterPartitions);

  // Server side on every node: the scan fanned out across all owned ranges.
  for (auto& n : tc->nodes) {
    EXPECT_GT(n->metrics->GetCounter("net.server.bytes_in")->Value(), 0);
    EXPECT_GT(n->metrics->GetCounter("net.server.bytes_out")->Value(), 0);
    EXPECT_GT(n->metrics->GetCounter("net.server.connections")->Value(), 0);
    const kv::PartitionRange& owned = n->server->options().owned;
    EXPECT_EQ(n->metrics->GetCounter("net.server.rpcs.scan_batches")->Value(),
              owned.end - owned.begin)
        << "node " << n->server->options().node_id;
  }

  // System tables stay attributable cluster-wide: every __metrics row of a
  // node carries its node id.
  ClusterNode* node1 = tc->nodes[1].get();
  node1->query->RegisterEngineIntrospection(nullptr, node1->metrics.get());
  auto rows = node1->query->ScanSystemObjects("__metrics");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_FALSE(rows->empty());
  for (const auto& row : *rows) {
    EXPECT_EQ(row.Get("node"), kv::Value(int64_t{1}));
  }
}

TEST(ClusterNet, RetriesAreCountedAndRecoverAfterReconnect) {
  auto tc = StartCluster();
  // Kill the cached connections mid-flight: the next idempotent RPC sees a
  // closed socket, retries on a fresh connection and still succeeds.
  ASSERT_TRUE(tc->coordinator
                  ->Execute("SELECT count(*) FROM orders", ReadCommitted())
                  .ok());
  tc->client->Disconnect();
  auto result = tc->coordinator->Execute("SELECT count(*) FROM orders",
                                         ReadCommitted());
  ASSERT_TRUE(result.ok()) << result.status();
}

// ---------------------------------------------------------------------------
// Cluster-wide observability: federated system tables, the __nodes health
// registry, per-type RPC telemetry, and the merged trace export.

/// The coordinator is given a node id outside the cluster's range so its own
/// locally-attributed rows are distinguishable from the federated ones.
constexpr int32_t kCoordinatorNodeId = 9;

TEST(ClusterNet, PerTypeRpcCountersRegisteredForEveryMsgType) {
  // Both constructors eagerly register one counter per known message type,
  // so `__metrics` always carries the full per-type set — a type that was
  // never sent still shows up as an explicit zero. sq-lint's wire pass
  // cross-checks that every MsgTypeToString name appears between the
  // markers below, so adding a message type without telemetry fails lint.
  auto tc = StartCluster({}, /*load_data=*/false);
  // sqlint-rpc-metrics-begin
  const std::vector<std::string> wire_names = {
      "hello",           "point_lookup",       "replication_delta",
      "checkpoint_marker", "resolve_ssid",   "fetch_system_table",
      "scan_batches",    "hello_reply",        "rows",
      "ack",             "resolve_ssid_reply", "error",
      "system_table_reply", "batches",
  };
  // sqlint-rpc-metrics-end
  auto names_of = [](MetricsRegistry* m) {
    std::set<std::string> names;
    for (const MetricSample& s : m->Collect()) names.insert(s.name);
    return names;
  };
  const std::set<std::string> client = names_of(tc->coord_metrics.get());
  const std::set<std::string> server = names_of(tc->nodes[0]->metrics.get());
  for (const std::string& n : wire_names) {
    EXPECT_EQ(client.count("net.client.rpcs." + n), 1u) << n;
    EXPECT_EQ(server.count("net.server.rpcs." + n), 1u) << n;
  }
  // The marker list is itself exhaustive against the enum.
  size_t known = 0;
  for (int t = 0; t < 256; ++t) {
    if (IsKnownMsgType(static_cast<uint8_t>(t))) ++known;
  }
  EXPECT_EQ(wire_names.size(), known);
}

TEST(ClusterNet, FederatedMetricsScanIsUnionOfPerNodeScans) {
  auto tc = StartCluster({}, /*load_data=*/false);
  tc->coordinator->set_node_id(kCoordinatorNodeId);
  tc->coordinator->RegisterEngineIntrospection(nullptr,
                                               tc->coord_metrics.get());
  for (int32_t i = 0; i < kClusterNodes; ++i) {
    ClusterNode* n = tc->nodes[i].get();
    n->query->RegisterEngineIntrospection(nullptr, n->metrics.get());
    n->metrics->GetCounter("test.sentinel")->Increment(1000 + i);
    for (int r = 0; r <= i; ++r) {
      n->metrics->GetHistogram("test.lat_nanos")->Record(1000 * (i + 1));
    }
  }

  // The coordinator-side scan must equal its local rows plus the union of
  // what each node reports for itself, row for row.
  auto fed = tc->coordinator->Execute(
      "SELECT node, value FROM __metrics WHERE name = 'test.sentinel' "
      "ORDER BY node");
  ASSERT_TRUE(fed.ok()) << fed.status();
  ASSERT_EQ(fed->rows.size(), 3u);  // the coordinator has no sentinel
  for (int32_t i = 0; i < kClusterNodes; ++i) {
    EXPECT_EQ(fed->rows[i][0], kv::Value(int64_t{i}));
    EXPECT_EQ(fed->rows[i][1], kv::Value(int64_t{1000 + i}));
    auto direct = tc->nodes[i]->query->ScanSystemObjects("__metrics");
    ASSERT_TRUE(direct.ok()) << direct.status();
    bool found = false;
    for (const kv::Object& row : *direct) {
      if (row.Get("name") != kv::Value("test.sentinel")) continue;
      found = true;
      EXPECT_EQ(row.Get("value"), fed->rows[i][1]);
    }
    EXPECT_TRUE(found) << "node " << i;
  }

  // Histogram columns are rebuilt on the coordinator from raw bucket
  // counts (percentiles never merge); count and exact max survive the trip.
  auto hist = tc->coordinator->Execute(
      "SELECT node, value, max FROM __metrics WHERE name = 'test.lat_nanos' "
      "ORDER BY node");
  ASSERT_TRUE(hist.ok()) << hist.status();
  ASSERT_EQ(hist->rows.size(), 3u);
  for (int32_t i = 0; i < kClusterNodes; ++i) {
    EXPECT_EQ(hist->rows[i][0], kv::Value(int64_t{i}));
    EXPECT_EQ(hist->rows[i][1], kv::Value(int64_t{i + 1}));  // sample count
    EXPECT_EQ(hist->rows[i][2], kv::Value(int64_t{1000 * (i + 1)}));
  }

  // Bit-stable ordering: a federated scan is still a deterministic query.
  auto again = tc->coordinator->Execute(
      "SELECT node, value FROM __metrics WHERE name = 'test.sentinel' "
      "ORDER BY node");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->rows, fed->rows);
}

TEST(ClusterNet, ExplainOfFederatedTableSendsNoRpc) {
  auto tc = StartCluster({}, /*load_data=*/false);
  tc->coordinator->RegisterEngineIntrospection(nullptr,
                                               tc->coord_metrics.get());
  for (auto& n : tc->nodes) {
    n->query->RegisterEngineIntrospection(nullptr, n->metrics.get());
  }
  Counter* fetches =
      tc->coord_metrics->GetCounter("net.client.rpcs.fetch_system_table");
  const int64_t before = fetches->Value();

  // Planning opens the table's source but fetches nothing.
  auto plan = tc->coordinator->Execute("EXPLAIN SELECT * FROM __metrics");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_FALSE(plan->rows.empty());
  EXPECT_EQ(fetches->Value() - before, 0);

  // Executing it federates: one fetch per node.
  auto scan = tc->coordinator->Execute("SELECT * FROM __metrics");
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(fetches->Value() - before, kClusterNodes);
}

TEST(ClusterNet, FederatedSpansScanReturnsDistributedTree) {
  // The in-process nodes share this binary's trace journal, which the
  // differential tests above fill with tens of thousands of query spans. A
  // federated `__spans` fetch ships a node's whole journal, and near the
  // journal's capacity that can outlast the RPC deadline, so each span test
  // starts from an empty journal.
  trace::ClearForTest();
  auto tc = StartCluster({}, /*load_data=*/false);
  tc->coordinator->set_node_id(kCoordinatorNodeId);
  const uint64_t trace_id = trace::NewTraceId();
  {
    trace::ScopedSpan span(trace::Category::kQuery, "test.federated_span",
                           trace::RootContext(trace_id, /*forced=*/true));
  }

  // Every node serves the span under its own node id (the in-process nodes
  // share one trace journal; what the test proves is the fan-out, the merge
  // and the node attribution — multi-process stitching is covered by the
  // forked-cluster test).
  const std::string sql =
      "SELECT node, name FROM __spans WHERE trace_id = " +
      std::to_string(trace_id) + " ORDER BY node";
  auto result = tc->coordinator->Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 4u);  // nodes 0, 1, 2 + the coordinator
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result->rows[i][0], kv::Value(static_cast<int64_t>(i)));
    EXPECT_EQ(result->rows[i][1], kv::Value("test.federated_span"));
  }
  EXPECT_EQ(result->rows[3][0], kv::Value(int64_t{kCoordinatorNodeId}));

  auto again = tc->coordinator->Execute(sql);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->rows, result->rows);
}

TEST(ClusterNet, DeadNodeDegradesFederatedScanToTypedPartialResults) {
  trace::ClearForTest();  // see FederatedSpansScanReturnsDistributedTree
  // The deadline has headroom for parallel-ctest CPU contention: the dead
  // node fails fast on connect (kUnavailable), not by burning the deadline,
  // so a generous value does not slow the degradation path it bounds.
  auto tc = StartCluster(RpcOptions{.deadline_ms = 2000, .max_attempts = 2,
                                    .backoff_ms = 10},
                         /*load_data=*/false);
  tc->coordinator->set_node_id(kCoordinatorNodeId);
  const uint64_t trace_id = trace::NewTraceId();
  {
    trace::ScopedSpan span(trace::Category::kQuery, "test.partial_span",
                           trace::RootContext(trace_id, /*forced=*/true));
  }
  // Contact every node once so the kill is a transition from ok to
  // unreachable, not a node that was never seen.
  for (int32_t i = 0; i < kClusterNodes; ++i) {
    ASSERT_TRUE(tc->client->Hello(i).ok());
  }
  tc->nodes[1]->server->Stop();
  tc->client->Disconnect();

  // The scan degrades: the dead node's rows are missing, everything else is
  // present, and the whole thing returns within the RPC deadline budget —
  // never a hang, never a query-wide failure.
  const int64_t t0 = trace::NowNanos();
  auto result = tc->coordinator->Execute(
      "SELECT node FROM __spans WHERE trace_id = " +
      std::to_string(trace_id) + " ORDER BY node");
  const int64_t elapsed_ms = (trace::NowNanos() - t0) / 1'000'000;
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0], kv::Value(int64_t{0}));
  EXPECT_EQ(result->rows[1][0], kv::Value(int64_t{2}));
  EXPECT_EQ(result->rows[2][0], kv::Value(int64_t{kCoordinatorNodeId}));
  EXPECT_LT(elapsed_ms, 30'000);

  // Why the rows are missing is visible in __nodes: the dead node's health
  // row says unreachable while the survivors stay ok.
  auto health = tc->coordinator->Execute(
      "SELECT node, status FROM __nodes WHERE msg_type = '' ORDER BY node");
  ASSERT_TRUE(health.ok()) << health.status();
  ASSERT_EQ(health->rows.size(), 3u);
  EXPECT_EQ(health->rows[0][1], kv::Value("ok"));
  EXPECT_EQ(health->rows[1][1], kv::Value("unreachable"));
  EXPECT_EQ(health->rows[2][1], kv::Value("ok"));
}

TEST(ClusterNet, NodesHealthRegistryTracksLivenessAndRpcStats) {
  auto tc = StartCluster();
  ASSERT_TRUE(tc->coordinator
                  ->Execute("SELECT count(*) FROM orders", ReadCommitted())
                  .ok());

  auto health = tc->coordinator->Execute(
      "SELECT node, status, host, port, partition_begin, partition_end, "
      "rpcs, bytes_in, bytes_out FROM __nodes WHERE msg_type = '' "
      "ORDER BY node");
  ASSERT_TRUE(health.ok()) << health.status();
  ASSERT_EQ(health->rows.size(), 3u);
  for (int32_t i = 0; i < kClusterNodes; ++i) {
    const auto& row = health->rows[static_cast<size_t>(i)];
    EXPECT_EQ(row[0], kv::Value(int64_t{i}));
    EXPECT_EQ(row[1], kv::Value("ok"));
    EXPECT_EQ(row[2], kv::Value("127.0.0.1"));
    EXPECT_EQ(row[3],
              kv::Value(int64_t{tc->nodes[static_cast<size_t>(i)]
                                    ->server->port()}));
    const kv::PartitionRange owned =
        kv::PartitionRangeOf(i, kClusterNodes, kClusterPartitions);
    EXPECT_EQ(row[4], kv::Value(int64_t{owned.begin}));
    EXPECT_EQ(row[5], kv::Value(int64_t{owned.end}));
    EXPECT_GT(row[6].AsInt64(), 0) << "rpcs";
    EXPECT_GT(row[7].AsInt64(), 0) << "bytes_in";
    EXPECT_GT(row[8].AsInt64(), 0) << "bytes_out";
  }

  // Per-type breakdown rows: the loader's replication deltas are visible
  // with raw-bucket latency percentiles (p99 >= p50 > 0).
  auto by_type = tc->coordinator->Execute(
      "SELECT node, rpcs, rpc_p50_nanos, rpc_p99_nanos FROM __nodes "
      "WHERE msg_type = 'replication_delta' ORDER BY node");
  ASSERT_TRUE(by_type.ok()) << by_type.status();
  ASSERT_EQ(by_type->rows.size(), 3u);
  for (const auto& row : by_type->rows) {
    EXPECT_GT(row[1].AsInt64(), 0);
    EXPECT_GT(row[2].AsInt64(), 0);
    EXPECT_GE(row[3].AsInt64(), row[2].AsInt64());
  }

  // And the same liveness is exported as net.health.* metrics.
  EXPECT_EQ(tc->coord_metrics->GetGauge("net.health.alive.0")->Value(), 1);
  EXPECT_EQ(tc->coord_metrics->GetGauge("net.health.alive.1")->Value(), 1);
  EXPECT_EQ(tc->coord_metrics->GetGauge("net.health.alive.2")->Value(), 1);
}

// ---------------------------------------------------------------------------
// Merged trace export: structural RFC 8259 validation.

/// Minimal RFC 8259 recognizer (objects, arrays, strings with escape rules,
/// numbers, literals) — enough to prove the merged export parses under any
/// conforming consumer, with no JSON library dependency.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : s_(text) {}

  bool Validate() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return p_ == s_.size();
  }

 private:
  bool Value() {
    if (p_ >= s_.size()) return false;
    switch (s_[p_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++p_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    while (true) {
      SkipWs();
      if (p_ >= s_.size() || s_[p_] != '"' || !String()) return false;
      SkipWs();
      if (!Peek(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Peek(',')) return false;
    }
  }

  bool Array() {
    ++p_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Peek(',')) return false;
    }
  }

  bool String() {
    ++p_;  // '"'
    while (p_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[p_]);
      if (c == '"') {
        ++p_;
        return true;
      }
      if (c < 0x20) return false;  // raw control characters are illegal
      if (c == '\\') {
        ++p_;
        if (p_ >= s_.size()) return false;
        const char e = s_[p_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p_;
            if (p_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[p_])) == 0) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++p_;
    }
    return false;
  }

  bool Number() {
    const size_t begin = p_;
    Peek('-');  // optional sign
    if (p_ >= s_.size() ||
        std::isdigit(static_cast<unsigned char>(s_[p_])) == 0) {
      return false;
    }
    if (s_[p_] == '0') {
      ++p_;
    } else {
      Digits();
    }
    if (p_ < s_.size() && s_[p_] == '.') {
      ++p_;
      if (p_ >= s_.size() ||
          std::isdigit(static_cast<unsigned char>(s_[p_])) == 0) {
        return false;
      }
      Digits();
    }
    if (p_ < s_.size() && (s_[p_] == 'e' || s_[p_] == 'E')) {
      ++p_;
      if (p_ < s_.size() && (s_[p_] == '+' || s_[p_] == '-')) ++p_;
      if (p_ >= s_.size() ||
          std::isdigit(static_cast<unsigned char>(s_[p_])) == 0) {
        return false;
      }
      Digits();
    }
    return p_ > begin;
  }

  void Digits() {
    while (p_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[p_])) != 0) {
      ++p_;
    }
  }

  bool Literal(std::string_view lit) {
    if (s_.substr(p_, lit.size()) != lit) return false;
    p_ += lit.size();
    return true;
  }

  bool Peek(char c) {
    if (p_ < s_.size() && s_[p_] == c) {
      ++p_;
      return true;
    }
    return false;
  }

  void SkipWs() {
    while (p_ < s_.size() && (s_[p_] == ' ' || s_[p_] == '\t' ||
                              s_[p_] == '\n' || s_[p_] == '\r')) {
      ++p_;
    }
  }

  std::string_view s_;
  size_t p_ = 0;
};

TEST(ClusterNet, MergedClusterTraceExportIsValidJson) {
  trace::ClearForTest();  // see FederatedSpansScanReturnsDistributedTree
  auto tc = StartCluster({}, /*load_data=*/false);
  tc->coordinator->set_node_id(kCoordinatorNodeId);
  {
    trace::ScopedSpan span(trace::Category::kQuery, "test.export_span",
                           trace::RootContext(trace::NewTraceId(),
                                              /*forced=*/true));
  }
  const std::string path =
      ::testing::TempDir() + "sq_cluster_trace_test.json";
  ASSERT_TRUE(tc->coordinator->ExportClusterTrace(path).ok());

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonValidator(json).Validate())
      << "merged export is not RFC 8259 JSON";

  // One process per node, the coordinator included, each with an auditable
  // clock-offset attribute on its spans.
  for (const char* needle :
       {"process_name", "\"node 0\"", "\"node 1\"", "\"node 2\"",
        "\"node 9\"", "clock_offset_micros", "test.export_span"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace sq::net
