#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dataflow/checkpoint.h"
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

std::vector<SnapshotLog::DeltaEntry> Delta(
    std::initializer_list<std::pair<int64_t, int64_t>> kvs) {
  std::vector<SnapshotLog::DeltaEntry> entries;
  for (const auto& [k, v] : kvs) {
    entries.push_back(
        SnapshotLog::DeltaEntry{kv::Value(k), false, MakeObject(v)});
  }
  return entries;
}

SnapshotLog::DeltaEntry Tombstone(int64_t key) {
  return SnapshotLog::DeltaEntry{kv::Value(key), true, kv::Object()};
}

std::map<int64_t, int64_t> ReadView(const SnapshotLog& log,
                                    const std::string& table, int64_t ssid) {
  std::map<int64_t, int64_t> view;
  EXPECT_TRUE(log.ScanSnapshot(table, ssid,
                               [&view](int32_t, const kv::Value& key,
                                       int64_t, const kv::Object& value) {
                                 view[key.int64_value()] =
                                     value.Get("n").int64_value();
                               })
                  .ok());
  return view;
}

TEST(SnapshotLogTest, CommitMakesSnapshotDurableAcrossReopen) {
  TempDir dir;
  {
    auto log = SnapshotLog::Open({.dir = dir.path()});
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE(
        (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 10}, {2, 20}}))
            .ok());
    ASSERT_TRUE(
        (*log)->AppendDelta("snapshot_orders", 1, 1, Delta({{3, 30}})).ok());
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
  EXPECT_EQ((*reopened)->TableNames(),
            std::vector<std::string>({"snapshot_orders"}));
}

// Regression test for a determinism bug sq-lint's pass flagged: the
// durable-fallback scan built its merged view in an unordered_map and
// emitted rows in hash order, which reached query output. Emission must be
// in key order, byte-identical across processes and library versions.
TEST(SnapshotLogTest, DurableScanEmitsRowsInKeyOrder) {
  TempDir dir;
  auto log = SnapshotLog::Open({.dir = dir.path(), .segment_bytes = 64});
  ASSERT_TRUE(log.ok()) << log.status();
  // Append keys in a scrambled order, across several snapshots and segment
  // rotations, so hash order and insertion order both differ from key order.
  ASSERT_TRUE((*log)
                  ->AppendDelta("snapshot_orders", 1, 0,
                                Delta({{7, 70}, {2, 20}, {11, 110}}))
                  .ok());
  ASSERT_TRUE((*log)->Commit(1).ok());
  ASSERT_TRUE((*log)
                  ->AppendDelta("snapshot_orders", 2, 0,
                                Delta({{5, 50}, {1, 10}, {9, 90}}))
                  .ok());
  ASSERT_TRUE((*log)->Commit(2).ok());

  std::vector<int64_t> emitted;
  ASSERT_TRUE((*log)
                  ->ScanSnapshot("snapshot_orders", 2,
                                 [&emitted](int32_t, const kv::Value& key,
                                            int64_t, const kv::Object&) {
                                   emitted.push_back(key.int64_value());
                                 })
                  .ok());
  EXPECT_EQ(emitted, (std::vector<int64_t>{1, 2, 5, 7, 9, 11}));
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
                                    Delta({{17 - id, id * 10}, {id, id}}))
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
        (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 10}})).ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
    // Phase-1 spill of snapshot 2 (flush_bytes=1 forces it to the file) with
    // no commit: must vanish on reopen.
    ASSERT_TRUE(
        (*log)->AppendDelta("snapshot_orders", 2, 0, Delta({{9, 99}})).ok());
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
      (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 10}})).ok());
  ASSERT_TRUE((*log)->Abort(1).ok());
  // The failure-recovery protocol reuses the aborted id for the retry.
  ASSERT_TRUE(
      (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 11}})).ok());
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
      (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 10}})).ok());
  EXPECT_FALSE(
      (*log)->AppendDelta("snapshot_orders", 2, 0, Delta({{2, 20}})).ok());
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
        (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 10}})).ok());
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
        (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 10}})).ok());
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
                                              Delta({{2, 20}, {3, 30}}));
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
        (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 10}, {2, 20}}))
            .ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
  }
  std::string newest_segment;
  {
    // A second writer appends to the same log after a reopen, so the
    // history spans segments written by two log instances.
    auto log = SnapshotLog::Open({.dir = dir.path(), .segment_bytes = 1});
    ASSERT_TRUE(log.ok());
    std::vector<SnapshotLog::DeltaEntry> delta2 = Delta({{2, 21}, {3, 30}});
    delta2.push_back(Tombstone(1));
    ASSERT_TRUE((*log)->AppendDelta("snapshot_orders", 2, 0, delta2).ok());
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
      (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 10}})).ok());
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
                                    Delta({{id, id * 10}}))
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
        (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 10}})).ok());
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
      (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 10}, {2, 20}}))
          .ok());
  ASSERT_TRUE((*log)->Commit(1).ok());
  std::vector<SnapshotLog::DeltaEntry> delta2 = Delta({{2, 21}, {3, 30}});
  delta2.push_back(Tombstone(1));
  ASSERT_TRUE((*log)->AppendDelta("snapshot_orders", 2, 0, delta2).ok());
  ASSERT_TRUE((*log)->Commit(2).ok());

  EXPECT_EQ(ReadView(**log, "snapshot_orders", 1),
            (std::map<int64_t, int64_t>{{1, 10}, {2, 20}}));
  // ssid 2 merges: key 1 tombstoned away, key 2 overridden, key 3 new.
  EXPECT_EQ(ReadView(**log, "snapshot_orders", 2),
            (std::map<int64_t, int64_t>{{2, 21}, {3, 30}}));
  // Not-committed id is not readable.
  EXPECT_FALSE((*log)
                   ->ScanSnapshot("snapshot_orders", 3,
                                  [](int32_t, const kv::Value&, int64_t,
                                     const kv::Object&) {})
                   .ok());
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
                                Delta({{1, 10}, {2, 20}, {3, 30}}))
                  .ok());
  ASSERT_TRUE((*log)->Commit(1).ok());
  std::vector<SnapshotLog::DeltaEntry> delta2 = Delta({{2, 21}});
  delta2.push_back(Tombstone(3));
  ASSERT_TRUE((*log)->AppendDelta("snapshot_orders", 2, 0, delta2).ok());
  ASSERT_TRUE((*log)->Commit(2).ok());
  ASSERT_TRUE(
      (*log)->AppendDelta("snapshot_orders", 3, 0, Delta({{2, 22}})).ok());
  ASSERT_TRUE((*log)->Commit(3).ok());
  ASSERT_TRUE(
      (*log)->AppendDelta("snapshot_orders", 4, 0, Delta({{2, 23}})).ok());
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
                                    Delta({{1, id * 10}, {id + 10, id}}))
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
        (*log)->AppendDelta("snapshot_orders", id, 0, Delta({{1, id}})).ok());
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
        (*log)->AppendDelta("snapshot_orders", 1, 0, Delta({{1, 10}, {2, 20}}))
            .ok());
    ASSERT_TRUE((*log)->Commit(1).ok());
    std::vector<SnapshotLog::DeltaEntry> delta2 = Delta({{2, 21}});
    delta2.push_back(Tombstone(1));
    ASSERT_TRUE((*log)->AppendDelta("snapshot_orders", 2, 0, delta2).ok());
    ASSERT_TRUE((*log)->Commit(2).ok());
    ASSERT_TRUE(
        (*log)->AppendDelta("snapshot_riders", 3, 0, Delta({{7, 70}})).ok());
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
  chain.OnCheckpointPrepared(1);
  chain.OnCheckpointCommitted(1);
  EXPECT_EQ(registry.latest_committed(), 1);
  EXPECT_TRUE((*log)->IsDurable(1));
  EXPECT_EQ(durable.write_failures(), 0);

  // Checkpoint 2 aborts: neither the registry nor the log may keep it.
  table->Write(2, kv::Value(int64_t{1}), MakeObject(11));
  chain.OnCheckpointPrepared(2);
  chain.OnCheckpointAborted(2);
  EXPECT_FALSE((*log)->IsDurable(2));
  EXPECT_FALSE(table->GetExact(kv::Value(int64_t{1}), 2).has_value());

  // Retry commits under the same id (the engine reuses aborted ids).
  table->Write(2, kv::Value(int64_t{1}), MakeObject(12));
  chain.OnCheckpointPrepared(2);
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
    durable.OnCheckpointPrepared(1);
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

}  // namespace
}  // namespace sq::storage
