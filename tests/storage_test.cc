#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "dataflow/checkpoint.h"
#include "dataflow/execution.h"
#include "dataflow/job_graph.h"
#include "dataflow/operators.h"
#include "kv/grid.h"
#include "kv/object.h"
#include "kv/value.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"
#include "storage/crc32c.h"
#include "storage/durable_listener.h"
#include "storage/serde.h"
#include "storage/snapshot_log.h"

namespace sq::storage {
namespace {

namespace fs = std::filesystem;

kv::Object MakeObject(int64_t n) {
  kv::Object o;
  o.Set("n", kv::Value(n));
  o.Set("label", kv::Value("v" + std::to_string(n)));
  return o;
}

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/sq_storage_test_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC-32C check value: "123456789" -> 0xE3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  // 32 zero bytes -> 0x8A9136AA (RFC 3720 test vector).
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "hello, snapshot log";
  uint32_t crc = 0;
  for (char c : data) crc = Crc32cExtend(crc, &c, 1);
  EXPECT_EQ(crc, Crc32c(data));
}

// The SSE4.2 path and the table loop must agree bit for bit: on random
// bytes, every length up to 4096 (so every 8-byte tail), unaligned starts and
// nonzero seeds (extending a previous CRC).
TEST(Crc32cTest, HardwareAndPortablePathsAgree) {
  if (!internal_crc32c::HasHardware()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  Rng rng(0xC5C32Cu);
  std::string buf(4096 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.NextBounded(256));
  for (size_t len = 0; len <= 4096; ++len) {
    const size_t offset = len % 8;
    const uint32_t seed = len % 3 == 0 ? 0u : static_cast<uint32_t>(rng.Next());
    const char* data = buf.data() + offset;
    ASSERT_EQ(internal_crc32c::ExtendHardware(seed, data, len),
              internal_crc32c::ExtendPortable(seed, data, len))
        << "len " << len << " offset " << offset << " seed " << seed;
  }
}

TEST(Crc32cTest, MaskRoundtripAndDiffers) {
  for (uint32_t crc : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu, Crc32c("x")}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

// ---------------------------------------------------------------------------
// Serde

TEST(SerdeTest, ValueRoundtripAllTypes) {
  const std::vector<kv::Value> values = {
      kv::Value(),         kv::Value(true),        kv::Value(false),
      kv::Value(int64_t{-42}), kv::Value(3.25),    kv::Value(""),
      kv::Value("hello"),  kv::Value(int64_t{1} << 60)};
  std::string buf;
  for (const kv::Value& v : values) PutValue(&buf, v);
  Reader reader(buf);
  for (const kv::Value& v : values) {
    kv::Value out;
    ASSERT_TRUE(reader.ReadValue(&out));
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(reader.exhausted());
}

TEST(SerdeTest, ObjectRoundtrip) {
  kv::Object o;
  o.Set("id", kv::Value(int64_t{7}));
  o.Set("name", kv::Value("order"));
  o.Set("price", kv::Value(12.5));
  std::string buf;
  PutObject(&buf, o);
  Reader reader(buf);
  kv::Object out;
  ASSERT_TRUE(reader.ReadObject(&out));
  EXPECT_EQ(out, o);
}

TEST(SerdeTest, TruncationPoisonsReader) {
  std::string buf;
  PutString(&buf, "some payload");
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Reader reader(std::string_view(buf).substr(0, cut));
    std::string out;
    EXPECT_FALSE(reader.ReadString(&out)) << "cut=" << cut;
    EXPECT_FALSE(reader.ok());
  }
}

TEST(SerdeTest, HugeObjectCountRejectedBeforeAllocation) {
  std::string buf;
  PutU32(&buf, 0xFFFFFFFFu);  // claims 4B fields, no data follows
  Reader reader(buf);
  kv::Object out;
  EXPECT_FALSE(reader.ReadObject(&out));
  EXPECT_FALSE(reader.ok());
}

TEST(SerdeTest, UnknownValueTagIsCorrupt) {
  std::string buf;
  PutU8(&buf, 99);
  Reader reader(buf);
  kv::Value out;
  EXPECT_FALSE(reader.ReadValue(&out));
  EXPECT_FALSE(reader.ok());
}

// ---------------------------------------------------------------------------
// SnapshotLog: append / commit / reopen

// One partition's delta at `ssid`: a row {n, label} per (key, n) pair,
// then a tombstone per key in `tombstones`.
kv::ColumnBatch Delta(int64_t ssid,
                      std::initializer_list<std::pair<int64_t, int64_t>> kvs,
                      std::initializer_list<int64_t> tombstones = {}) {
  kv::ColumnBatch delta;
  for (const auto& [k, v] : kvs) {
    delta.AppendRow(kv::Value(k), ssid, MakeObject(v));
  }
  for (const int64_t k : tombstones) delta.AppendTombstone(kv::Value(k), ssid);
  return delta;
}

// The view of `table` at `ssid` read from the log, key -> n.
std::map<int64_t, int64_t> ReadView(const SnapshotLog& log,
                                    const std::string& table, int64_t ssid) {
  std::map<int64_t, int64_t> view;
  auto partitions = log.ReadSnapshot(table, ssid, kv::Partitioner(4));
  EXPECT_TRUE(partitions.ok()) << partitions.status();
  if (!partitions.ok()) return view;
  for (const auto& rows : *partitions) {
    for (size_t r = 0; r < rows->row_count(); ++r) {
      view[rows->keys()[r].int64_value()] =
          rows->MaterializeRow(r).Get("n").int64_value();
    }
  }
  return view;
}

TEST(SnapshotLogTest, CommitMakesSnapshotDurableAcrossReopen) {
  TempDir dir;
  {
    auto log = SnapshotLog::Open({.dir = dir.path()});
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE(
        (*log)
            ->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 10}, {2, 20}}))
            .ok());
    ASSERT_TRUE(
        (*log)->AppendDelta("snapshot_orders", 1, 1, Delta(1, {{3, 30}})).ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
    EXPECT_TRUE((*log)->IsDurable(1));
    EXPECT_EQ((*log)->LatestDurable(), 1);
    EXPECT_GT((*log)->PersistedBytes(1), 0);
  }
  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->IsDurable(1));
  EXPECT_EQ((*reopened)->CommittedIds(), std::vector<int64_t>({1}));
  EXPECT_EQ((*reopened)->recovery_info().torn_bytes_skipped, 0);
  EXPECT_EQ(ReadView(**reopened, "snapshot_orders", 1),
            (std::map<int64_t, int64_t>{{1, 10}, {2, 20}, {3, 30}}));
}

// Regression test for a determinism bug sq-lint's pass flagged: the
// durable-fallback scan built its merged view in an unordered_map and
// emitted rows in hash order, which reached query output. Emission must be
// byte-identical across processes and library versions: per partition of
// the reader's partitioner, keys in the order they first appear in the log.
TEST(SnapshotLogTest, DurableReadEmitsRowsPerPartitionInFirstAppearanceOrder) {
  TempDir dir;
  auto log = SnapshotLog::Open({.dir = dir.path(), .segment_bytes = 64});
  ASSERT_TRUE(log.ok()) << log.status();
  // Append keys in a scrambled order, across several snapshots and segment
  // rotations, so hash order and key order both differ from log order.
  ASSERT_TRUE((*log)
                  ->AppendDelta("snapshot_orders", 1, 0,
                                Delta(1, {{7, 70}, {2, 20}, {11, 110}}))
                  .ok());
  ASSERT_TRUE((*log)->Commit(1).ok());
  ASSERT_TRUE((*log)
                  ->AppendDelta("snapshot_orders", 2, 0,
                                Delta(2, {{5, 50}, {1, 10}, {9, 90}, {2, 21}}))
                  .ok());
  ASSERT_TRUE((*log)->Commit(2).ok());

  const kv::Partitioner partitioner(3);
  auto partitions = (*log)->ReadSnapshot("snapshot_orders", 2, partitioner);
  ASSERT_TRUE(partitions.ok()) << partitions.status();
  ASSERT_EQ(partitions->size(), 3u);
  for (int32_t p = 0; p < 3; ++p) {
    std::vector<int64_t> expected;
    for (const int64_t key : {7, 2, 11, 5, 1, 9}) {
      if (partitioner.PartitionOf(kv::Value(key)) == p) {
        expected.push_back(key);
      }
    }
    std::vector<int64_t> emitted;
    const kv::ColumnBatch& rows = *(*partitions)[p];
    for (size_t r = 0; r < rows.row_count(); ++r) {
      emitted.push_back(rows.keys()[r].int64_value());
    }
    EXPECT_EQ(emitted, expected) << "partition " << p;
  }
}

// Compacting the same inputs must produce byte-identical rewritten
// segments on any node (the on-disk mirror of the bit-identical merge
// invariant), so the rewrite order cannot come from a hash map either.
TEST(SnapshotLogTest, CompactionOutputIsByteIdenticalAcrossLogs) {
  auto build = [](const std::string& dir_path) {
    auto log = SnapshotLog::Open({.dir = dir_path,
                                  .segment_bytes = 1,
                                  .retained_snapshots = 1,
                                  .async_compact = false});
    ASSERT_TRUE(log.ok()) << log.status();
    for (int64_t id = 1; id <= 4; ++id) {
      ASSERT_TRUE((*log)
                      ->AppendDelta("snapshot_orders", id, 0,
                                    Delta(id, {{17 - id, id * 10}, {id, id}}))
                      .ok());
      ASSERT_TRUE((*log)->Commit(id).ok());
    }
    ASSERT_GT((*log)->Stats().compactions, 0);
  };
  TempDir a;
  TempDir b;
  build(a.path());
  build(b.path());

  // Commit records embed a wall-clock timestamp, so raw segment bytes can
  // never match across runs; strip those blocks and compare everything else
  // (all the data records, which is where hash-order nondeterminism lived).
  auto read_sorted_segments = [](const std::string& dir_path) {
    constexpr size_t kFileHeader = 16;   // magic + version + reserved
    constexpr size_t kBlockHeader = 8;   // u32 length + u32 masked crc
    constexpr char kCommitRecord = 2;
    std::vector<std::string> contents;
    for (const auto& entry : fs::directory_iterator(dir_path)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("segment-", 0) != 0) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      const std::string raw((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
      if (raw.size() < kFileHeader) {
        ADD_FAILURE() << name << " is shorter than a segment header";
        continue;
      }
      std::string kept = raw.substr(0, kFileHeader);
      size_t off = kFileHeader;
      while (off + kBlockHeader <= raw.size()) {
        uint32_t len = 0;
        std::memcpy(&len, raw.data() + off, sizeof(len));
        if (off + kBlockHeader + len > raw.size()) {
          ADD_FAILURE() << name << " has a truncated record block";
          break;
        }
        if (raw[off + kBlockHeader] != kCommitRecord) {
          kept.append(raw, off, kBlockHeader + len);
        }
        off += kBlockHeader + len;
      }
      contents.push_back(std::move(kept));
    }
    std::sort(contents.begin(), contents.end());
    return contents;
  };
  EXPECT_EQ(read_sorted_segments(a.path()), read_sorted_segments(b.path()));
}

TEST(SnapshotLogTest, UncommittedAppendsAreDiscardedOnReopen) {
  TempDir dir;
  {
    auto log = SnapshotLog::Open({.dir = dir.path(), .flush_bytes = 1});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(
        (*log)->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 10}})).ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
    // Phase-1 spill of snapshot 2 (flush_bytes=1 forces it to the file) with
    // no commit: must vanish on reopen.
    ASSERT_TRUE(
        (*log)->AppendDelta("snapshot_orders", 2, 0, Delta(2, {{9, 99}})).ok());
  }
  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->IsDurable(1));
  EXPECT_FALSE((*reopened)->IsDurable(2));
  EXPECT_GT((*reopened)->recovery_info().torn_bytes_skipped, 0);
  EXPECT_EQ(ReadView(**reopened, "snapshot_orders", 1),
            (std::map<int64_t, int64_t>{{1, 10}}));
}

TEST(SnapshotLogTest, AbortDiscardsSpilledTailAndAllowsIdReuse) {
  TempDir dir;
  auto log = SnapshotLog::Open({.dir = dir.path(), .flush_bytes = 1});
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(
      (*log)->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 10}})).ok());
  ASSERT_TRUE((*log)->Abort(1).ok());
  // The failure-recovery protocol reuses the aborted id for the retry.
  ASSERT_TRUE(
      (*log)->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 11}})).ok());
  ASSERT_TRUE((*log)->Commit(1).ok());
  EXPECT_EQ(ReadView(**log, "snapshot_orders", 1),
            (std::map<int64_t, int64_t>{{1, 11}}));
  EXPECT_EQ((*log)->Stats().aborts, 1);
}

TEST(SnapshotLogTest, MismatchedPendingSsidIsRejected) {
  TempDir dir;
  auto log = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(
      (*log)->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 10}})).ok());
  EXPECT_FALSE(
      (*log)->AppendDelta("snapshot_orders", 2, 0, Delta(2, {{2, 20}})).ok());
  EXPECT_FALSE((*log)->Commit(2).ok());
  ASSERT_TRUE((*log)->Commit(1).ok());
}

TEST(SnapshotLogTest, TornTailIsTruncatedByChecksum) {
  TempDir dir;
  std::string segment_path;
  {
    auto log = SnapshotLog::Open({.dir = dir.path()});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(
        (*log)->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 10}})).ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
  }
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().filename().string().rfind("segment-", 0) == 0) {
      segment_path = entry.path().string();
    }
  }
  ASSERT_FALSE(segment_path.empty());
  const auto durable_size = fs::file_size(segment_path);
  {
    // A torn record: plausible header, garbage payload.
    std::ofstream out(segment_path, std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\xAA\xBB\xCC\xDDgarbage-torn-write", 26);
  }
  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->IsDurable(1));
  EXPECT_EQ((*reopened)->recovery_info().torn_bytes_skipped, 26);
  EXPECT_EQ(fs::file_size(segment_path), durable_size);
  EXPECT_EQ(ReadView(**reopened, "snapshot_orders", 1),
            (std::map<int64_t, int64_t>{{1, 10}}));
}

// A flush that fails part-way must not leave its prefix in the segment:
// the retried batch would land behind torn bytes, Commit would report
// success, and reopening would truncate the committed snapshot away.
TEST(SnapshotLogTest, FailedFlushLeavesNoTornPrefixBeforeALaterCommit) {
  TempDir dir;
  {
    auto log = SnapshotLog::Open({.dir = dir.path(), .flush_bytes = 1});
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE(
        (*log)->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 10}})).ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
    std::string segment_path;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      if (entry.path().filename().string().rfind("segment-", 0) == 0) {
        segment_path = entry.path().string();
      }
    }
    ASSERT_FALSE(segment_path.empty());
    const auto committed_size = fs::file_size(segment_path);

    // A file-size limit 16 bytes past the segment's end turns the next
    // flush into a short write followed by EFBIG (SIGXFSZ ignored).
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit limited = saved;
    limited.rlim_cur = committed_size + 16;
    const auto previous_handler = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
    const Status failed = (*log)->AppendDelta("snapshot_orders", 2, 0,
                                              Delta(2, {{2, 20}, {3, 30}}));
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, previous_handler);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(fs::file_size(segment_path), committed_size);

    // The limit is gone: the pending batch flushes whole with the commit.
    ASSERT_TRUE((*log)->Commit(2).ok());
  }
  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_info().torn_bytes_skipped, 0);
  EXPECT_TRUE((*reopened)->IsDurable(2));
  EXPECT_EQ(ReadView(**reopened, "snapshot_orders", 2),
            (std::map<int64_t, int64_t>{{1, 10}, {2, 20}, {3, 30}}));
}

TEST(SnapshotLogTest, MultiSegmentHistoryReadsBackAcrossReopen) {
  TempDir dir;
  {
    auto log = SnapshotLog::Open({.dir = dir.path(),
                                  .segment_bytes = 1});  // rotate per commit
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(
        (*log)
            ->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 10}, {2, 20}}))
            .ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
  }
  std::string newest_segment;
  {
    // A second writer appends to the same log after a reopen, so the
    // history spans segments written by two log instances.
    auto log = SnapshotLog::Open({.dir = dir.path(), .segment_bytes = 1});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)
                    ->AppendDelta("snapshot_orders", 2, 0,
                                  Delta(2, {{2, 21}, {3, 30}}, {1}))
                    .ok());
    ASSERT_TRUE((*log)->Commit(2).ok());
  }
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("segment-", 0) == 0 &&
        (newest_segment.empty() || entry.path().string() > newest_segment)) {
      newest_segment = entry.path().string();
    }
  }
  ASSERT_FALSE(newest_segment.empty());
  const auto durable_size = fs::file_size(newest_segment);
  {
    // Torn tail on top of that history: plausible header, garbage body.
    std::ofstream out(newest_segment, std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\xAA\xBB\xCC\xDDgarbage-torn-write", 26);
  }

  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->IsDurable(1));
  EXPECT_TRUE((*reopened)->IsDurable(2));
  EXPECT_EQ((*reopened)->recovery_info().torn_bytes_skipped, 26);
  EXPECT_EQ(fs::file_size(newest_segment), durable_size);
  EXPECT_EQ(ReadView(**reopened, "snapshot_orders", 1),
            (std::map<int64_t, int64_t>{{1, 10}, {2, 20}}));
  EXPECT_EQ(ReadView(**reopened, "snapshot_orders", 2),
            (std::map<int64_t, int64_t>{{2, 21}, {3, 30}}));

  // Replay rebuilds the grid from the multi-segment history: values written
  // by both log instances land in the same table.
  kv::Grid grid(kv::GridConfig{});
  auto info = (*reopened)->ReplayInto(&grid, /*retained_versions=*/2);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->latest_committed, 2);
  kv::SnapshotTable* orders = grid.GetSnapshotTable("snapshot_orders");
  ASSERT_NE(orders, nullptr);
  EXPECT_FALSE(orders->GetAt(kv::Value(int64_t{1}), 2).has_value());
  EXPECT_EQ(orders->GetAt(kv::Value(int64_t{1}), 1)->Get("n").int64_value(),
            10);
  EXPECT_EQ(orders->GetAt(kv::Value(int64_t{2}), 2)->Get("n").int64_value(),
            21);
  EXPECT_EQ(orders->GetAt(kv::Value(int64_t{3}), 2)->Get("n").int64_value(),
            30);
}

std::string OnlySegmentPath(const std::string& dir) {
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("segment-", 0) == 0) {
      segments.push_back(entry.path().string());
    }
  }
  EXPECT_EQ(segments.size(), 1u);
  return segments.empty() ? std::string() : segments[0];
}

// Frames `payload` as one checksum-valid log record.
std::string FrameRecord(const std::string& payload) {
  std::string record;
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU32(&record, MaskCrc(Crc32c(payload)));
  return record + payload;
}

std::string CommitRecord(int64_t ssid) {
  std::string payload;
  PutU8(&payload, 2);  // commit record
  PutI64(&payload, ssid);
  PutI64(&payload, 0);  // commit time
  return FrameRecord(payload);
}

// Appends `record` to the log in `dir` (one segment, snapshot 1 committed),
// optionally followed by a commit record of snapshot 2, which puts `record`
// inside the committed prefix. Returns the offset `record` landed at.
uint64_t AppendRawRecord(const std::string& dir, const std::string& record,
                         bool commit_after) {
  const std::string path = OnlySegmentPath(dir);
  const uint64_t offset = fs::file_size(path);
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << record;
  if (commit_after) out << CommitRecord(2);
  return offset;
}

void WriteOneCommittedSnapshot(const std::string& dir) {
  auto log = SnapshotLog::Open({.dir = dir});
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(
      (*log)->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 10}})).ok());
  ASSERT_TRUE((*log)->Commit(1).ok());
}

TEST(SnapshotLogTest, CommittedRecordOfUnknownTypeFailsOpen) {
  TempDir dir;
  WriteOneCommittedSnapshot(dir.path());
  std::string payload;
  PutU8(&payload, 99);
  payload += "from a future writer";
  const uint64_t offset =
      AppendRawRecord(dir.path(), FrameRecord(payload), /*commit_after=*/true);

  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_FALSE(reopened.ok());
  const std::string message = reopened.status().message();
  EXPECT_NE(message.find(OnlySegmentPath(dir.path())), std::string::npos)
      << message;
  EXPECT_NE(message.find("offset " + std::to_string(offset)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("type 99"), std::string::npos) << message;
}

// The retired row-at-a-time delta record (type 1) is rejected, never
// dropped: skipping it would silently lose its rows.
TEST(SnapshotLogTest, CommittedRowFormatDeltaFailsOpen) {
  TempDir dir;
  WriteOneCommittedSnapshot(dir.path());
  std::string payload;
  PutU8(&payload, 1);
  PutString(&payload, "snapshot_orders");
  PutU32(&payload, 0);  // partition
  PutU32(&payload, 1);  // entries
  PutI64(&payload, 2);  // entry ssid
  PutU8(&payload, 0);   // not a tombstone
  PutValue(&payload, kv::Value(int64_t{2}));
  PutObject(&payload, MakeObject(20));
  const uint64_t offset =
      AppendRawRecord(dir.path(), FrameRecord(payload), /*commit_after=*/true);

  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_FALSE(reopened.ok());
  const std::string message = reopened.status().message();
  EXPECT_NE(message.find("offset " + std::to_string(offset)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("type 1"), std::string::npos) << message;
}

TEST(SnapshotLogTest, CommittedUndecodableDeltaFailsOpen) {
  TempDir dir;
  WriteOneCommittedSnapshot(dir.path());
  std::string payload;
  PutU8(&payload, 4);  // columnar delta
  PutString(&payload, "snapshot_orders");
  PutU32(&payload, 0);
  payload += "not a column batch";
  AppendRawRecord(dir.path(), FrameRecord(payload), /*commit_after=*/true);

  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("type 4"), std::string::npos)
      << reopened.status();
}

// Past the last commit record the active segment is uncommitted garbage by
// definition: an unknown record there is truncated like any torn tail.
TEST(SnapshotLogTest, UncommittedRecordOfUnknownTypeIsTruncated) {
  TempDir dir;
  WriteOneCommittedSnapshot(dir.path());
  const std::string path = OnlySegmentPath(dir.path());
  const auto durable_size = fs::file_size(path);
  std::string payload;
  PutU8(&payload, 99);
  AppendRawRecord(dir.path(), FrameRecord(payload), /*commit_after=*/false);

  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(fs::file_size(path), durable_size);
  EXPECT_EQ(ReadView(**reopened, "snapshot_orders", 1),
            (std::map<int64_t, int64_t>{{1, 10}}));
}

TEST(SnapshotLogTest, MissingManifestFallsBackToDirectoryScan) {
  TempDir dir;
  {
    auto log = SnapshotLog::Open(
        {.dir = dir.path(), .segment_bytes = 256});  // force rotations
    ASSERT_TRUE(log.ok());
    for (int64_t id = 1; id <= 4; ++id) {
      ASSERT_TRUE((*log)
                      ->AppendDelta("snapshot_orders", id, 0,
                                    Delta(id, {{id, id * 10}}))
                      .ok());
      ASSERT_TRUE((*log)->Commit(id).ok());
    }
    EXPECT_GT((*log)->Stats().segments, 1);
  }
  fs::remove(dir.path() + "/MANIFEST");
  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->CommittedIds(),
            std::vector<int64_t>({1, 2, 3, 4}));
  EXPECT_EQ(ReadView(**reopened, "snapshot_orders", 4),
            (std::map<int64_t, int64_t>{{1, 10}, {2, 20}, {3, 30}, {4, 40}}));
}

TEST(SnapshotLogTest, CorruptManifestFallsBackToDirectoryScan) {
  TempDir dir;
  {
    auto log = SnapshotLog::Open({.dir = dir.path()});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(
        (*log)->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 10}})).ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
  }
  {
    std::ofstream out(dir.path() + "/MANIFEST", std::ios::binary);
    out << "not a manifest at all\n";
  }
  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->IsDurable(1));
}

TEST(SnapshotLogTest, BackwardDifferentialReadAcrossSnapshots) {
  TempDir dir;
  auto log = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(log.ok());
  // ssid 1: keys 1,2.  ssid 2: key 2 updated, key 3 added, key 1 deleted.
  ASSERT_TRUE(
      (*log)->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 10}, {2, 20}}))
          .ok());
  ASSERT_TRUE((*log)->Commit(1).ok());
  ASSERT_TRUE((*log)
                  ->AppendDelta("snapshot_orders", 2, 0,
                                Delta(2, {{2, 21}, {3, 30}}, {1}))
                  .ok());
  ASSERT_TRUE((*log)->Commit(2).ok());

  EXPECT_EQ(ReadView(**log, "snapshot_orders", 1),
            (std::map<int64_t, int64_t>{{1, 10}, {2, 20}}));
  // ssid 2 merges: key 1 tombstoned away, key 2 overridden, key 3 new.
  EXPECT_EQ(ReadView(**log, "snapshot_orders", 2),
            (std::map<int64_t, int64_t>{{2, 21}, {3, 30}}));
  // Not-committed id is not readable.
  EXPECT_FALSE(
      (*log)->ReadSnapshot("snapshot_orders", 3, kv::Partitioner(1)).ok());
}

// ---------------------------------------------------------------------------
// Compaction

TEST(SnapshotLogTest, CompactionPreservesBaseEntriesForDifferentialReads) {
  TempDir dir;
  auto log = SnapshotLog::Open({.dir = dir.path(),
                                .segment_bytes = 1,  // rotate every commit
                                .retained_snapshots = 2,
                                .async_compact = false});
  ASSERT_TRUE(log.ok());
  // Key 1 written only at ssid 1; key 2 rewritten each snapshot; key 3
  // deleted at ssid 2.
  ASSERT_TRUE((*log)
                  ->AppendDelta("snapshot_orders", 1, 0,
                                Delta(1, {{1, 10}, {2, 20}, {3, 30}}))
                  .ok());
  ASSERT_TRUE((*log)->Commit(1).ok());
  ASSERT_TRUE((*log)
                  ->AppendDelta("snapshot_orders", 2, 0,
                                Delta(2, {{2, 21}}, {3}))
                  .ok());
  ASSERT_TRUE((*log)->Commit(2).ok());
  ASSERT_TRUE(
      (*log)->AppendDelta("snapshot_orders", 3, 0, Delta(3, {{2, 22}})).ok());
  ASSERT_TRUE((*log)->Commit(3).ok());
  ASSERT_TRUE(
      (*log)->AppendDelta("snapshot_orders", 4, 0, Delta(4, {{2, 23}})).ok());
  ASSERT_TRUE((*log)->Commit(4).ok());

  // retained_snapshots=2 -> floor is ssid 3; ids 1-2 fell off the window.
  EXPECT_FALSE((*log)->IsDurable(1));
  EXPECT_FALSE((*log)->IsDurable(2));
  EXPECT_TRUE((*log)->IsDurable(3));
  EXPECT_TRUE((*log)->IsDurable(4));
  EXPECT_GT((*log)->Stats().compactions, 0);

  // Key 1's base entry (ssid 1) must survive compaction: ssid 3's view
  // still needs it. Key 3's tombstone chain is gone entirely.
  EXPECT_EQ(ReadView(**log, "snapshot_orders", 3),
            (std::map<int64_t, int64_t>{{1, 10}, {2, 22}}));
  EXPECT_EQ(ReadView(**log, "snapshot_orders", 4),
            (std::map<int64_t, int64_t>{{1, 10}, {2, 23}}));
}

TEST(SnapshotLogTest, CompactionSurvivesReopen) {
  TempDir dir;
  {
    auto log = SnapshotLog::Open({.dir = dir.path(),
                                  .segment_bytes = 1,
                                  .retained_snapshots = 1,
                                  .async_compact = false});
    ASSERT_TRUE(log.ok());
    for (int64_t id = 1; id <= 5; ++id) {
      ASSERT_TRUE((*log)
                      ->AppendDelta("snapshot_orders", id, 0,
                                    Delta(id, {{1, id * 10}, {id + 10, id}}))
                      .ok());
      ASSERT_TRUE((*log)->Commit(id).ok());
    }
  }
  auto reopened = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->IsDurable(5));
  const auto view = ReadView(**reopened, "snapshot_orders", 5);
  EXPECT_EQ(view.at(1), 50);
  // Base entries of earlier snapshots survive with their original ssids.
  EXPECT_EQ(view.at(11), 1);
  EXPECT_EQ(view.at(15), 5);
}

TEST(SnapshotLogTest, AsyncCompactorDrainsAndShutsDownCleanly) {
  TempDir dir;
  auto log = SnapshotLog::Open({.dir = dir.path(),
                                .segment_bytes = 1,
                                .retained_snapshots = 1,
                                .async_compact = true});
  ASSERT_TRUE(log.ok());
  for (int64_t id = 1; id <= 6; ++id) {
    ASSERT_TRUE(
        (*log)
            ->AppendDelta("snapshot_orders", id, 0, Delta(id, {{1, id}}))
            .ok());
    ASSERT_TRUE((*log)->Commit(id).ok());
  }
  (*log)->FlushCompaction();
  EXPECT_GT((*log)->Stats().compactions, 0);
  EXPECT_EQ(ReadView(**log, "snapshot_orders", 6),
            (std::map<int64_t, int64_t>{{1, 6}}));
  // Destruction with a possibly queued compaction must not hang or race
  // (run under ASan/TSan in CI).
}

// ---------------------------------------------------------------------------
// Replay into the grid + registry restore

TEST(SnapshotLogTest, ReplayIntoRebuildsGridAndRegistry) {
  TempDir dir;
  {
    auto log = SnapshotLog::Open({.dir = dir.path()});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(
        (*log)
            ->AppendDelta("snapshot_orders", 1, 0, Delta(1, {{1, 10}, {2, 20}}))
            .ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
    ASSERT_TRUE((*log)
                    ->AppendDelta("snapshot_orders", 2, 0,
                                  Delta(2, {{2, 21}}, {1}))
                    .ok());
    ASSERT_TRUE((*log)->Commit(2).ok());
    ASSERT_TRUE(
        (*log)->AppendDelta("snapshot_riders", 3, 0, Delta(3, {{7, 70}})).ok());
    ASSERT_TRUE((*log)->Commit(3).ok());
  }

  auto log = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(log.ok());
  kv::Grid grid(kv::GridConfig{});
  auto info = (*log)->ReplayInto(&grid, /*retained_versions=*/2);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->latest_committed, 3);
  EXPECT_EQ(info->committed_count, 3);

  kv::SnapshotTable* orders = grid.GetSnapshotTable("snapshot_orders");
  ASSERT_NE(orders, nullptr);
  EXPECT_FALSE(orders->GetAt(kv::Value(int64_t{1}), 2).has_value());
  EXPECT_EQ(orders->GetAt(kv::Value(int64_t{2}), 2)->Get("n").int64_value(),
            21);
  kv::SnapshotTable* riders = grid.GetSnapshotTable("snapshot_riders");
  ASSERT_NE(riders, nullptr);
  EXPECT_EQ(riders->GetAt(kv::Value(int64_t{7}), 3)->Get("n").int64_value(),
            70);

  state::SnapshotRegistry registry(
      &grid, state::SnapshotRegistry::Options{.retained_versions = 2,
                                              .async_prune = false});
  registry.RestoreCommitted((*log)->CommittedIds());
  EXPECT_EQ(registry.latest_committed(), 3);
  EXPECT_TRUE(registry.IsQueryable(2));
  EXPECT_TRUE(registry.IsQueryable(3));
  EXPECT_FALSE(registry.IsQueryable(1));  // outside the retention window
}

// ---------------------------------------------------------------------------
// DurableSnapshotListener through the checkpoint chain

TEST(DurableListenerTest, ChainPersistsGridSnapshotsThroughCheckpoints) {
  TempDir dir;
  kv::Grid grid(kv::GridConfig{});
  auto log = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(log.ok());
  state::SnapshotRegistry registry(
      &grid, state::SnapshotRegistry::Options{.retained_versions = 2,
                                              .async_prune = false});
  DurableSnapshotListener durable(&grid, log->get());
  dataflow::CheckpointListenerChain chain({&durable, &registry});

  kv::SnapshotTable* table = grid.GetOrCreateSnapshotTable("snapshot_orders");
  // Simulate checkpoint 1's phase-1 writes, then drive the chain.
  table->Write(1, kv::Value(int64_t{1}), MakeObject(10));
  table->Write(1, kv::Value(int64_t{2}), MakeObject(20));
  ASSERT_TRUE(chain.OnCheckpointPrepared(1).ok());
  chain.OnCheckpointCommitted(1);
  EXPECT_EQ(registry.latest_committed(), 1);
  EXPECT_TRUE((*log)->IsDurable(1));

  // Checkpoint 2 aborts: neither the registry nor the log may keep it.
  table->Write(2, kv::Value(int64_t{1}), MakeObject(11));
  ASSERT_TRUE(chain.OnCheckpointPrepared(2).ok());
  chain.OnCheckpointAborted(2);
  EXPECT_FALSE((*log)->IsDurable(2));
  EXPECT_FALSE(table->GetExact(kv::Value(int64_t{1}), 2).has_value());

  // Retry commits under the same id (the engine reuses aborted ids).
  table->Write(2, kv::Value(int64_t{1}), MakeObject(12));
  ASSERT_TRUE(chain.OnCheckpointPrepared(2).ok());
  chain.OnCheckpointCommitted(2);
  EXPECT_TRUE((*log)->IsDurable(2));
  EXPECT_EQ(ReadView(**log, "snapshot_orders", 2),
            (std::map<int64_t, int64_t>{{1, 12}, {2, 20}}));
}

// ---------------------------------------------------------------------------
// SQueryStateStore disk fallback

TEST(DurableListenerTest, RestoreFromTableFallsBackToDisk) {
  TempDir dir;
  auto log = SnapshotLog::Open({.dir = dir.path()});
  ASSERT_TRUE(log.ok());
  {
    // A previous incarnation persisted checkpoint 1 of "orders".
    kv::Grid old_grid(kv::GridConfig{});
    kv::SnapshotTable* table =
        old_grid.GetOrCreateSnapshotTable("snapshot_orders");
    DurableSnapshotListener durable(&old_grid, log->get());
    for (int64_t k = 0; k < 50; ++k) {
      table->Write(1, kv::Value(k), MakeObject(k * 100));
    }
    ASSERT_TRUE(durable.OnCheckpointPrepared(1).ok());
    durable.OnCheckpointCommitted(1);
  }

  // Fresh (post-crash) grid: the in-memory snapshot table is empty, so
  // RestoreFromTable must fall through to the log.
  kv::Grid grid(kv::GridConfig{});
  state::SQueryConfig config;
  config.parallelism = 2;
  config.durable_log = log->get();
  state::SQueryStateStats stats;
  state::SQueryStateStore store0(&grid, "orders", 0, config, &stats);
  state::SQueryStateStore store1(&grid, "orders", 1, config, &stats);
  ASSERT_TRUE(store0.RestoreFromTable(1).ok());
  ASSERT_TRUE(store1.RestoreFromTable(1).ok());
  EXPECT_EQ(store0.Size() + store1.Size(), 50u);
  // Ownership is disjoint: both instances together hold each key once.
  int found = 0;
  for (int64_t k = 0; k < 50; ++k) {
    const bool in0 = store0.Get(kv::Value(k)).has_value();
    const bool in1 = store1.Get(kv::Value(k)).has_value();
    EXPECT_NE(in0, in1) << "key " << k;
    if (in0 || in1) ++found;
  }
  EXPECT_EQ(found, 50);
}

// ---------------------------------------------------------------------------
// Time-travel reads against the live log

// Reads of one durable snapshot run while other threads append and commit
// newer snapshots and compact the old segments (rewriting the files the
// read lists). The read holds the log's lock only to list the segments, so
// it must notice a compaction that landed meanwhile and read again: every
// read returns the same rows.
TEST(SnapshotLogTest, DurableReadsStayExactUnderAppendsCommitsAndCompaction) {
  TempDir dir;
  auto log = SnapshotLog::Open({.dir = dir.path(),
                                .segment_bytes = 1,  // rotate per commit
                                .sync_on_commit = false,
                                .async_compact = false});
  ASSERT_TRUE(log.ok()) << log.status();
  constexpr int64_t kRead = 6;
  for (int64_t id = 1; id <= kRead; ++id) {
    const std::initializer_list<int64_t> none = {};
    const std::initializer_list<int64_t> gone = {2};
    ASSERT_TRUE((*log)
                    ->AppendDelta("snapshot_orders", id, 0,
                                  Delta(id, {{id, id * 10}, {100, id}},
                                        id == 4 ? gone : none))
                    .ok());
    ASSERT_TRUE((*log)->Commit(id).ok());
  }
  const std::map<int64_t, int64_t> expected = {
      {1, 10}, {3, 30}, {4, 40}, {5, 50}, {6, 60}, {100, 6}};
  ASSERT_EQ(ReadView(**log, "snapshot_orders", kRead), expected);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int64_t id = kRead + 1; id <= kRead + 300 && !stop.load(); ++id) {
      ASSERT_TRUE((*log)
                      ->AppendDelta("snapshot_orders", id, 0,
                                    Delta(id, {{id, id}, {100, id}}))
                      .ok());
      ASSERT_TRUE((*log)->Commit(id).ok());
    }
  });
  std::thread compactor([&] {
    // Every pass rewrites the segments below kRead into one.
    while (!stop.load()) (*log)->CompactTo(kRead);
  });
  // At least 100 reads, and on until compaction has rewritten the files
  // under them a few times.
  for (int i = 0; i < 100 || (*log)->Stats().compactions < 5; ++i) {
    ASSERT_LT(i, 100000) << "the compactor never ran";
    ASSERT_EQ(ReadView(**log, "snapshot_orders", kRead), expected)
        << "read " << i;
  }
  stop.store(true);
  writer.join();
  compactor.join();
  EXPECT_EQ(ReadView(**log, "snapshot_orders", kRead), expected);
}

// The log read and the in-memory chain are two implementations of one
// backward differential read. A seeded engine-shaped history (random
// writes, rewrites and tombstones over 8 partitions, persisted through the
// durable listener, segments rotating and compacting) is replayed into a
// fresh grid; for every durable ssid each partition's log read must equal
// that grid's ColumnarPartitionAt row for row.
TEST(SnapshotLogTest, DurableReadsEqualTheReplayedGridRowForRow) {
  constexpr int32_t kPartitions = 8;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    TempDir dir;
    auto log = SnapshotLog::Open({.dir = dir.path(),
                                  .segment_bytes = 2048,
                                  .retained_snapshots = 6,
                                  .sync_on_commit = false,
                                  .async_compact = false});
    ASSERT_TRUE(log.ok()) << log.status();
    {
      kv::Grid grid(kv::GridConfig{.node_count = 1,
                                   .partition_count = kPartitions,
                                   .backup_count = 0});
      state::SnapshotRegistry registry(
          &grid, {.retained_versions = 2, .async_prune = false});
      DurableSnapshotListener durable(&grid, log->get());
      dataflow::CheckpointListenerChain chain({&durable, &registry});
      kv::SnapshotTable* table = grid.GetOrCreateSnapshotTable("snapshot_t");
      Rng rng(seed);
      for (int64_t id = 1; id <= 12; ++id) {
        for (int i = 0; i < 40; ++i) {
          const kv::Value key(static_cast<int64_t>(rng.NextBounded(60)));
          if (rng.NextBool(0.2)) {
            table->WriteTombstone(id, key);
          } else {
            kv::Object o;
            o.Set("n", kv::Value(static_cast<int64_t>(rng.NextBounded(1000))));
            if (rng.NextBool(0.5)) {
              o.Set("s", kv::Value("v" + std::to_string(i)));
            }
            table->Write(id, key, std::move(o));
          }
        }
        ASSERT_TRUE(chain.OnCheckpointPrepared(id).ok());
        chain.OnCheckpointCommitted(id);
      }
    }
    ASSERT_GT((*log)->Stats().compactions, 0) << "seed " << seed;
    kv::Grid replayed(kv::GridConfig{.node_count = 1,
                                     .partition_count = kPartitions,
                                     .backup_count = 0});
    ASSERT_TRUE((*log)->ReplayInto(&replayed, /*retained_versions=*/0).ok());
    const kv::SnapshotTable* table = replayed.GetSnapshotTable("snapshot_t");
    ASSERT_NE(table, nullptr);
    const auto rows_of = [](const kv::ColumnBatch& batch) {
      std::vector<std::string> rows;
      for (size_t r = 0; r < batch.row_count(); ++r) {
        rows.push_back(batch.keys()[r].ToString() + " @" +
                       std::to_string(batch.ssids()[r]) + " " +
                       batch.MaterializeRow(r).ToString());
      }
      return rows;
    };
    for (const int64_t ssid : (*log)->CommittedIds()) {
      auto read = (*log)->ReadSnapshot("snapshot_t", ssid,
                                       replayed.partitioner());
      ASSERT_TRUE(read.ok()) << read.status();
      ASSERT_EQ(read->size(), static_cast<size_t>(kPartitions));
      for (int32_t p = 0; p < kPartitions; ++p) {
        EXPECT_EQ(rows_of(*(*read)[p]),
                  rows_of(*table->ColumnarPartitionAt(p, ssid)))
            << "seed " << seed << ", ssid " << ssid << ", partition " << p;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Phase-1 failures abort the checkpoint

/// Fails OnCheckpointPrepared for one checkpoint id.
class FailingPrepareListener : public dataflow::CheckpointListener {
 public:
  explicit FailingPrepareListener(int64_t fail_id) : fail_id_(fail_id) {}
  Status OnCheckpointPrepared(int64_t checkpoint_id) override {
    if (checkpoint_id == fail_id_) {
      return Status::Internal("injected prepare failure");
    }
    return Status::OK();
  }

 private:
  const int64_t fail_id_;
};

/// Lets a test settle the count job's state: while open, each record
/// increments the count of key offset % 7; while closed, records carry the
/// key -1, which the operator ignores.
class CountGate {
 public:
  bool Admit() {
    std::lock_guard<std::mutex> lock(mu_);
    if (open_) ++sent_;
    return open_;
  }
  void Applied() { applied_.fetch_add(1); }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
  }
  /// Closes the gate and waits until every admitted record is applied.
  void Settle() {
    int64_t sent = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = false;
      sent = sent_;
    }
    while (applied_.load() < sent) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::mutex mu_;
  bool open_ = true;
  int64_t sent_ = 0;
  std::atomic<int64_t> applied_{0};
};

/// A running unbounded source -> keyed count job over `grid`, checkpointing
/// only when triggered, with `listener` observing its checkpoints.
std::unique_ptr<dataflow::Job> StartCountJob(
    kv::Grid* grid, dataflow::CheckpointListener* listener, bool incremental,
    CountGate* gate) {
  dataflow::JobGraph graph;
  dataflow::GeneratorSource::Options options;
  options.total_records = -1;
  options.target_rate = 20000.0;
  const int32_t src = graph.AddSource(
      "src", 1,
      dataflow::MakeGeneratorSourceFactory(
          options, [gate](int64_t offset, dataflow::OperatorContext* ctx) {
            const int64_t key = gate->Admit() ? offset % 7 : -1;
            return dataflow::Record::Data(kv::Value(key), kv::Object(),
                                          ctx->NowNanos());
          }));
  const int32_t count = graph.AddOperator(
      "count", 1,
      dataflow::MakeLambdaOperatorFactory(
          [gate](const dataflow::Record& r, dataflow::OperatorContext* ctx) {
            if (r.key == kv::Value(int64_t{-1})) return Status::OK();
            kv::Object state = ctx->GetState(r.key).value_or(kv::Object());
            state.Set("count", kv::Value(state.Get("count").AsInt64() + 1));
            ctx->PutState(r.key, std::move(state));
            gate->Applied();
            return Status::OK();
          }));
  SQ_CHECK_OK(graph.Connect(src, count, dataflow::EdgeKind::kKeyed));
  dataflow::JobConfig config;
  config.checkpoint_interval_ms = 0;
  config.partitioner = &grid->partitioner();
  config.listener = listener;
  state::SQueryConfig state_config;
  state_config.incremental = incremental;
  config.state_store_factory =
      state::MakeSQueryStateStoreFactory(grid, state_config);
  auto job = dataflow::Job::Create(graph, std::move(config));
  SQ_CHECK(job.ok()) << job.status().ToString();
  SQ_CHECK_OK((*job)->Start());
  return std::move(*job);
}

/// Checkpoint 1 commits, the keys change, checkpoint 2 fails in phase 1
/// (however `before_fail` arranges it), checkpoint 3 commits with no change
/// since 2: the failed id is aborted everywhere — never published, not in
/// the log, listed aborted in the job's checkpoint history — the previous id
/// stays latest until 3, and snapshot 3, in memory and in the log, holds the
/// live state (an incremental delta 3 must carry the changes of aborted 2).
void ExpectPhase1FailureAborts(const std::string& dir, bool incremental,
                               dataflow::CheckpointListener* extra,
                               const std::function<void()>& before_fail,
                               const std::function<void()>& after_fail) {
  kv::Grid grid(kv::GridConfig{.node_count = 1, .partition_count = 8,
                               .backup_count = 0});
  auto log = SnapshotLog::Open({.dir = dir, .flush_bytes = 1});
  ASSERT_TRUE(log.ok()) << log.status();
  state::SnapshotRegistry registry(
      &grid, {.retained_versions = 2, .async_prune = false});
  DurableSnapshotListener durable(&grid, log->get());
  dataflow::CheckpointListenerChain chain;
  chain.Add(&durable);
  if (extra != nullptr) chain.Add(extra);
  chain.Add(&registry);
  CountGate gate;
  std::unique_ptr<dataflow::Job> job =
      StartCountJob(&grid, &chain, incremental, &gate);
  // Let every key reach the state, so each checkpoint has a delta to log.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Result<int64_t> first = job->TriggerCheckpoint();
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(*first, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Settle();
  before_fail();
  Result<int64_t> failed = job->TriggerCheckpoint();
  after_fail();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsAborted()) << failed.status();
  EXPECT_EQ(job->latest_committed_checkpoint(), 1);
  EXPECT_EQ(registry.latest_committed(), 1);
  EXPECT_EQ((*log)->LatestDurable(), 1);
  EXPECT_FALSE((*log)->IsDurable(2));
  const kv::SnapshotTable* table = grid.GetSnapshotTable("snapshot_count");
  ASSERT_NE(table, nullptr);
  for (int32_t p = 0; p < table->partition_count(); ++p) {
    EXPECT_EQ(table->DeltaAt(p, 2), nullptr) << "partition " << p;
  }
  bool listed_aborted = false;
  for (const dataflow::CheckpointRow& row : job->RecentCheckpoints()) {
    if (row.id == 2) listed_aborted = !row.committed;
  }
  EXPECT_TRUE(listed_aborted);

  Result<int64_t> next = job->TriggerCheckpoint();
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(*next, 3);
  EXPECT_EQ(registry.latest_committed(), 3);
  EXPECT_EQ((*log)->LatestDurable(), 3);
  EXPECT_EQ((*log)->CommittedIds(), (std::vector<int64_t>{1, 3}));

  const kv::LiveMap* live = grid.GetLiveMap("count");
  ASSERT_NE(live, nullptr);
  auto logged = (*log)->ReadSnapshot("snapshot_count", 3, grid.partitioner());
  ASSERT_TRUE(logged.ok()) << logged.status();
  std::map<kv::Value, kv::Object> durable_rows;
  for (const auto& batch : *logged) {
    for (size_t r = 0; r < batch->row_count(); ++r) {
      durable_rows.emplace(batch->keys()[r], batch->MaterializeRow(r));
    }
  }
  EXPECT_EQ(durable_rows.size(), 7u);
  for (int64_t k = 0; k < 7; ++k) {
    const kv::Value key(k);
    const std::optional<kv::Object> now = live->Get(key);
    ASSERT_TRUE(now.has_value()) << "key " << k;
    const std::optional<kv::Object> at3 = table->GetAt(key, 3);
    ASSERT_TRUE(at3.has_value()) << "key " << k;
    EXPECT_EQ(at3->ToString(), now->ToString()) << "key " << k;
    auto row = durable_rows.find(key);
    ASSERT_NE(row, durable_rows.end()) << "key " << k;
    EXPECT_EQ(row->second.ToString(), now->ToString()) << "key " << k;
  }
  ASSERT_TRUE(job->Stop().ok());
}

/// Limits the file size to just past the log's current segment, so the next
/// append (flush_bytes = 1 writes it through) is a short write and EFBIG,
/// as in FailedFlushLeavesNoTornPrefixBeforeALaterCommit.
class SegmentSizeLimit {
 public:
  explicit SegmentSizeLimit(std::string dir) : dir_(std::move(dir)) {}

  void Apply() {
    std::string segment;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().filename().string().rfind("segment-", 0) == 0) {
        segment = entry.path().string();
      }
    }
    ASSERT_FALSE(segment.empty());
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    rlimit limited = saved_;
    limited.rlim_cur = fs::file_size(segment) + 16;
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  }

  void Lift() {
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_), 0);
    std::signal(SIGXFSZ, previous_handler_);
  }

 private:
  std::string dir_;
  rlimit saved_{};
  void (*previous_handler_)(int) = SIG_DFL;
};

TEST(DurableListenerTest, FailingListenerInTheChainAbortsTheCheckpoint) {
  TempDir dir;
  FailingPrepareListener failing(/*fail_id=*/2);
  ExpectPhase1FailureAborts(dir.path(), /*incremental=*/false, &failing,
                            [] {}, [] {});
}

TEST(DurableListenerTest,
     FailingListenerInTheChainAbortsTheIncrementalCheckpoint) {
  TempDir dir;
  FailingPrepareListener failing(/*fail_id=*/2);
  ExpectPhase1FailureAborts(dir.path(), /*incremental=*/true, &failing,
                            [] {}, [] {});
}

TEST(DurableListenerTest, FailedLogAppendAbortsTheCheckpoint) {
  TempDir dir;
  SegmentSizeLimit limit(dir.path());
  ExpectPhase1FailureAborts(
      dir.path(), /*incremental=*/false, nullptr, [&] { limit.Apply(); },
      [&] { limit.Lift(); });
}

TEST(DurableListenerTest, FailedLogAppendAbortsTheIncrementalCheckpoint) {
  TempDir dir;
  SegmentSizeLimit limit(dir.path());
  ExpectPhase1FailureAborts(
      dir.path(), /*incremental=*/true, nullptr, [&] { limit.Apply(); },
      [&] { limit.Lift(); });
}

}  // namespace
}  // namespace sq::storage
