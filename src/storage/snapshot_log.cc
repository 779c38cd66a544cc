#include "storage/snapshot_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metric_names.h"
#include "storage/crc32c.h"
#include "storage/serde.h"
#include "trace/trace.h"

namespace sq::storage {

namespace {

namespace fs = std::filesystem;

constexpr char kSegmentMagic[8] = {'S', 'Q', 'S', 'N', 'P', 'L', 'O', 'G'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kSegmentHeaderSize = 16;  // magic + version + reserved
constexpr size_t kRecordHeaderSize = 8;    // u32 len + u32 masked crc
constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestBanner[] = "squery-snapshot-log 1";

// Type 1 was the retired row-at-a-time delta record. Like any type not
// listed here, a checksum-valid record of it inside a segment's committed
// prefix fails `Open` instead of being skipped.
enum RecordType : uint8_t {
  kCommitRecord = 2,
  // Unaligned checkpoints: records that overtook the barrier at one
  // consumer, logged so recovery can replay the in-flight data the
  // rolled-back upstream will not re-emit.
  kChannelLogRecord = 3,
  // One partition's delta encoded as a column batch (serde PutColumnBatch,
  // which carries its own encoding version).
  kColumnarDeltaRecord = 4,
};

std::string SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "segment-%06llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

Status WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(ErrnoMessage("write"));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SyncFd(int fd) {
  if (::fsync(fd) != 0) return Status::Internal(ErrnoMessage("fsync"));
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::Internal(ErrnoMessage("open dir " + dir));
  Status s = SyncFd(fd);
  ::close(fd);
  return s;
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Internal("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = std::move(ss).str();
  return Status::OK();
}

std::string SegmentHeader() {
  std::string header(kSegmentMagic, sizeof(kSegmentMagic));
  PutU32(&header, kFormatVersion);
  PutU32(&header, 0);  // reserved
  return header;
}

bool ValidSegmentHeader(std::string_view data) {
  if (data.size() < kSegmentHeaderSize) return false;
  if (std::memcmp(data.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return false;
  }
  Reader reader(data.substr(sizeof(kSegmentMagic)));
  uint32_t version = 0;
  return reader.ReadU32(&version) && version == kFormatVersion;
}

/// Frames `payload` as one log record appended to `out`.
void AppendRecord(std::string* out, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, MaskCrc(Crc32c(payload)));
  out->append(payload.data(), payload.size());
}

/// One delta record: a partition's rows of `table`, each carrying the ssid
/// it was written at (compacted records mix ssids).
struct DecodedDelta {
  std::string table;
  int32_t partition = 0;
  kv::ColumnBatch rows;
};

bool DecodeColumnarDelta(std::string_view payload, DecodedDelta* out) {
  Reader reader(payload);
  uint8_t type = 0;
  uint32_t partition = 0;
  if (!reader.ReadU8(&type) || type != kColumnarDeltaRecord) return false;
  if (!reader.ReadString(&out->table) || !reader.ReadU32(&partition)) {
    return false;
  }
  out->partition = static_cast<int32_t>(partition);
  return ReadColumnBatch(&reader, &out->rows);
}

/// The newest-wins merge of one table's delta records that time travel and
/// compaction share: fed the records in log order, it keeps per key the row
/// of its newest version at or before `ssid` (a tie goes to the later
/// record), keys in the order they first appear.
class DeltaMerge {
 public:
  explicit DeltaMerge(int64_t ssid) : ssid_(ssid) {}

  void Add(int32_t partition, kv::ColumnBatch rows) {
    const auto record = static_cast<uint32_t>(records_.size());
    records_.push_back(std::move(rows));
    const kv::ColumnBatch& batch = records_.back();
    for (size_t r = 0; r < batch.row_count(); ++r) {
      auto [slot, inserted] =
          slots_.try_emplace(batch.keys()[r], winners_.size());
      if (inserted) winners_.emplace_back();
      const int64_t ssid = batch.ssids()[r];
      if (ssid > ssid_) continue;
      Winner& winner = winners_[slot->second];
      if (winner.record != kNone &&
          records_[winner.record].ssids()[winner.row] > ssid) {
        continue;
      }
      winner = Winner{partition, record, static_cast<uint32_t>(r)};
    }
  }

  /// Calls `fn(logged partition, batch, row)` for each key's winning row
  /// that is not a tombstone, in first-appearance order.
  template <typename Fn>
  void ForEachRow(Fn fn) const {
    for (const Winner& winner : winners_) {
      if (winner.record == kNone) continue;
      const kv::ColumnBatch& batch = records_[winner.record];
      if (batch.tombstone(winner.row)) continue;
      fn(winner.partition, batch, static_cast<size_t>(winner.row));
    }
  }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};
  struct Winner {
    int32_t partition = 0;
    uint32_t record = kNone;
    uint32_t row = 0;
  };

  int64_t ssid_;
  std::vector<kv::ColumnBatch> records_;
  // sq-lint: unordered-ok(key -> winners_ index; rows follow winners_ order)
  std::unordered_map<kv::Value, size_t, kv::ValueHash> slots_;
  std::vector<Winner> winners_;  // first-appearance order
};

std::string EncodeColumnarDeltaPayload(const std::string& table,
                                       int32_t partition,
                                       const kv::ColumnBatch& batch) {
  std::string payload;
  PutU8(&payload, kColumnarDeltaRecord);
  PutString(&payload, table);
  PutU32(&payload, static_cast<uint32_t>(partition));
  PutColumnBatch(&payload, batch);
  return payload;
}

struct DecodedChannelLog {
  std::string vertex;
  int32_t instance = 0;
  int64_t ssid = 0;
  std::vector<SnapshotLog::LoggedRecord> records;
};

bool DecodeChannelLog(std::string_view payload, DecodedChannelLog* out) {
  Reader reader(payload);
  uint8_t type = 0;
  uint32_t instance = 0;
  uint32_t count = 0;
  if (!reader.ReadU8(&type) || type != kChannelLogRecord) return false;
  if (!reader.ReadString(&out->vertex) || !reader.ReadU32(&instance) ||
      !reader.ReadI64(&out->ssid) || !reader.ReadU32(&count)) {
    return false;
  }
  out->instance = static_cast<int32_t>(instance);
  out->records.clear();
  out->records.reserve(std::min<size_t>(count, reader.remaining()));
  for (uint32_t i = 0; i < count; ++i) {
    SnapshotLog::LoggedRecord record;
    uint32_t from = 0;
    if (!reader.ReadI64(&record.source_nanos) || !reader.ReadU32(&from) ||
        !reader.ReadValue(&record.key) || !reader.ReadObject(&record.payload)) {
      return false;
    }
    record.from_instance = static_cast<int32_t>(from);
    out->records.push_back(std::move(record));
  }
  return true;
}

bool DecodeCommit(std::string_view payload, int64_t* ssid) {
  Reader reader(payload);
  uint8_t type = 0;
  int64_t micros = 0;
  return reader.ReadU8(&type) && type == kCommitRecord &&
         reader.ReadI64(ssid) && reader.ReadI64(&micros);
}

/// Callbacks for the decoded records of a segment; a null callback skips its
/// record type without decoding the body.
struct RecordVisitor {
  std::function<void(int64_t ssid, size_t end)> commit;
  std::function<void(DecodedDelta& delta, size_t payload_bytes)> delta;
  std::function<void(DecodedChannelLog& log, size_t payload_bytes)>
      channel_log;
};

/// What one walk over a segment's records found.
struct RecordWalk {
  size_t valid_end = 0;  // offset of the first torn/corrupt record
  int64_t records = 0;   // checksum-valid records walked
  /// First checksum-valid record of an unknown type or whose body does not
  /// decode (npos = none), and why.
  size_t bad_offset = std::string_view::npos;
  uint8_t bad_type = 0;
  const char* bad_reason = "";
};

/// Walks the records of `data` from `offset`, decoding each checksum-valid
/// one for `visit`, up to the first torn or corrupt record. A record of an
/// unknown type, or whose body does not decode, is noted rather than fatal so
/// the walk still finds the commit boundary; the caller decides whether it
/// matters.
RecordWalk WalkRecords(std::string_view data, size_t offset,
                       const RecordVisitor& visit) {
  RecordWalk walk;
  while (offset + kRecordHeaderSize <= data.size()) {
    Reader header(data.substr(offset, kRecordHeaderSize));
    uint32_t len = 0;
    uint32_t masked_crc = 0;
    // The reader was sized to exactly one header, so these cannot fail.
    (void)header.ReadU32(&len);
    (void)header.ReadU32(&masked_crc);
    const size_t end = offset + kRecordHeaderSize + len;
    if (len == 0 || end > data.size()) break;  // torn tail
    const std::string_view payload =
        data.substr(offset + kRecordHeaderSize, len);
    if (Crc32c(payload) != UnmaskCrc(masked_crc)) break;  // corrupt
    const auto type = static_cast<uint8_t>(payload[0]);
    bool known = true;
    bool decoded = true;
    switch (type) {
      case kCommitRecord: {
        int64_t ssid = 0;
        decoded = DecodeCommit(payload, &ssid);
        if (decoded && visit.commit) visit.commit(ssid, end);
        break;
      }
      case kChannelLogRecord: {
        if (!visit.channel_log) break;
        DecodedChannelLog channel_log;
        decoded = DecodeChannelLog(payload, &channel_log);
        if (decoded) visit.channel_log(channel_log, payload.size());
        break;
      }
      case kColumnarDeltaRecord: {
        if (!visit.delta) break;
        DecodedDelta delta;
        decoded = DecodeColumnarDelta(payload, &delta);
        if (decoded) visit.delta(delta, payload.size());
        break;
      }
      default:
        known = false;
    }
    if ((!known || !decoded) && walk.bad_offset == std::string_view::npos) {
      walk.bad_offset = offset;
      walk.bad_type = type;
      walk.bad_reason =
          known ? "undecodable body of record type" : "unknown record type";
    }
    ++walk.records;
    offset = end;
  }
  walk.valid_end = offset;
  return walk;
}

Status BadRecordError(const std::string& path, const RecordWalk& walk) {
  return Status::Internal("snapshot log segment " + path + ", offset " +
                          std::to_string(walk.bad_offset) + ": " +
                          walk.bad_reason + " " +
                          std::to_string(walk.bad_type));
}

/// Reads the committed prefix (the first `durable_bytes`) of the segment at
/// `path` and walks its records for `visit`. Fails on a bad record; adds the
/// records walked to `*records` if given.
Status VisitCommittedRecords(const std::string& path, uint64_t durable_bytes,
                             const RecordVisitor& visit,
                             int64_t* records = nullptr) {
  std::string data;
  SQ_RETURN_IF_ERROR(ReadFileBytes(path, &data));
  const size_t limit = std::min<size_t>(data.size(), durable_bytes);
  const RecordWalk walk = WalkRecords(std::string_view(data).substr(0, limit),
                                      kSegmentHeaderSize, visit);
  if (walk.bad_offset != std::string_view::npos) {
    return BadRecordError(path, walk);
  }
  if (records != nullptr) *records += walk.records;
  return Status::OK();
}

int64_t NowUnixMicros() {
  // Anchored wall time (see the clock rule in common/clock.h): commit-record
  // timestamps stay comparable with span/export timestamps even if the wall
  // clock steps mid-run.
  return SteadyToUnixMicros(SystemClock::Default()->NowNanos());
}

}  // namespace

SnapshotLog::SnapshotLog(StorageOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    m_persisted_bytes_ =
        options_.metrics->GetCounter(metric_names::kStoragePersistedBytes);
    m_commits_ = options_.metrics->GetCounter(metric_names::kStorageCommits);
    m_compactions_ = options_.metrics->GetCounter(metric_names::kStorageCompactions);
    m_segments_ = options_.metrics->GetGauge(metric_names::kStorageSegments);
    m_fsync_ = options_.metrics->GetHistogram(metric_names::kStorageFsyncNanos);
  }
}

SnapshotLog::~SnapshotLog() {
  {
    MutexLock lock(&compact_mu_);
    compact_stop_ = true;
    compact_cv_.NotifyAll();
  }
  if (compactor_.joinable()) compactor_.join();
  MutexLock lock(&mu_);
  if (active_fd_ >= 0) {
    ::close(active_fd_);
    active_fd_ = -1;
  }
}

Result<std::unique_ptr<SnapshotLog>> SnapshotLog::Open(
    StorageOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("storage dir must not be empty");
  }
  auto log = std::unique_ptr<SnapshotLog>(new SnapshotLog(std::move(options)));
  SQ_RETURN_IF_ERROR(log->OpenImpl());
  if (log->options_.async_compact) {
    log->compactor_ = std::thread([raw = log.get()] { raw->RunCompactor(); });
  }
  return log;
}

Status SnapshotLog::OpenImpl() {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + options_.dir + ": " +
                            ec.message());
  }

  MutexLock lock(&mu_);
  std::vector<uint64_t> seqs;
  uint64_t next_seq = 1;
  if (!LoadManifest(&seqs, &next_seq).ok()) {
    // MANIFEST missing or corrupt: the segment files are the ground truth,
    // so fall back to a directory scan.
    seqs.clear();
    for (const auto& entry : fs::directory_iterator(options_.dir)) {
      const std::string name = entry.path().filename().string();
      unsigned long long seq = 0;
      if (std::sscanf(name.c_str(), "segment-%llu.log", &seq) == 1) {
        seqs.push_back(seq);
      }
    }
    std::sort(seqs.begin(), seqs.end());
    next_seq = seqs.empty() ? 1 : seqs.back() + 1;
  }
  next_seq_ = next_seq;
  segments_.clear();
  for (uint64_t seq : seqs) {
    Segment segment;
    segment.seq = seq;
    segment.path = options_.dir + "/" + SegmentFileName(seq);
    if (!fs::exists(segment.path)) continue;  // stale manifest entry
    segments_.push_back(std::move(segment));
  }

  SQ_RETURN_IF_ERROR(ScanSegmentsLocked());
  SQ_RETURN_IF_ERROR(OpenActiveLocked(segments_.empty()));
  SQ_RETURN_IF_ERROR(WriteManifestLocked());
  recovery_.latest_committed = committed_.empty() ? 0 : committed_.back();
  recovery_.committed_count = static_cast<int64_t>(committed_.size());
  recovery_.segments = static_cast<int64_t>(segments_.size());
  if (m_segments_ != nullptr) {
    m_segments_->Set(static_cast<int64_t>(segments_.size()));
  }
  return Status::OK();
}

Status SnapshotLog::ScanSegmentsLocked() {
  committed_.clear();
  bytes_per_ssid_.clear();
  recovery_.channel_log_records = 0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    Segment& segment = segments_[i];
    const bool is_active = i + 1 == segments_.size();
    std::string data;
    SQ_RETURN_IF_ERROR(ReadFileBytes(segment.path, &data));
    if (!ValidSegmentHeader(data)) {
      if (!is_active) {
        return Status::Internal("segment " + segment.path +
                                " has a corrupt header");
      }
      // A crash can tear even the header write of a fresh active segment;
      // reset it to an empty, well-formed file.
      recovery_.torn_bytes_skipped += static_cast<int64_t>(data.size());
      data.clear();
    }

    size_t last_commit_end = data.empty() ? 0 : kSegmentHeaderSize;
    RecordVisitor visit;
    visit.commit = [&](int64_t ssid, size_t end) {
      committed_.push_back(ssid);
      last_commit_end = end;
    };
    visit.channel_log = [&](DecodedChannelLog& channel_log,
                            size_t payload_bytes) {
      bytes_per_ssid_[channel_log.ssid] += static_cast<int64_t>(payload_bytes);
      // Compaction candidates are segments whose max_ssid is below the
      // retention floor; counting the channel log here keeps a live log's
      // segment out of that set (a rewrite keeps delta bases only and would
      // silently drop it).
      segment.max_ssid = std::max(segment.max_ssid, channel_log.ssid);
      recovery_.channel_log_records +=
          static_cast<int64_t>(channel_log.records.size());
    };
    visit.delta = [&](DecodedDelta& delta, size_t payload_bytes) {
      for (const int64_t ssid : delta.rows.ssids()) {
        bytes_per_ssid_[ssid] +=
            static_cast<int64_t>(payload_bytes / delta.rows.row_count());
        segment.max_ssid = std::max(segment.max_ssid, ssid);
      }
    };
    const RecordWalk walk =
        WalkRecords(data, data.empty() ? 0 : kSegmentHeaderSize, visit);
    recovery_.records_scanned += walk.records;

    // The active segment's tail beyond the last commit record is
    // uncommitted (phase-1 spill of a checkpoint that never committed) or
    // torn mid-write; both are truncated so the log ends at a commit
    // boundary. Non-active segments are sealed at commit boundaries by
    // construction, so only real corruption can shorten them.
    const size_t durable_end = is_active ? last_commit_end : walk.valid_end;
    // A record the reader cannot use inside that committed prefix would
    // silently drop rows; fail instead (the uncommitted tail is garbage and
    // may hold anything).
    if (walk.bad_offset < durable_end) {
      return BadRecordError(segment.path, walk);
    }
    if (durable_end < data.size()) {
      recovery_.torn_bytes_skipped +=
          static_cast<int64_t>(data.size() - durable_end);
      ++recovery_.torn_records_skipped;
      SQ_LOG(Warning) << "snapshot log " << segment.path << ": truncating "
                      << (data.size() - durable_end)
                      << " torn/uncommitted tail bytes";
      if (::truncate(segment.path.c_str(), static_cast<off_t>(durable_end)) !=
          0) {
        return Status::Internal(ErrnoMessage("truncate " + segment.path));
      }
    }
    segment.durable_bytes = durable_end;
  }
  std::sort(committed_.begin(), committed_.end());
  committed_.erase(std::unique(committed_.begin(), committed_.end()),
                   committed_.end());
  return Status::OK();
}

Status SnapshotLog::OpenActiveLocked(bool create_new) {
  if (create_new || segments_.empty() ||
      segments_.back().durable_bytes >= options_.segment_bytes) {
    Segment segment;
    segment.seq = next_seq_++;
    segment.path = options_.dir + "/" + SegmentFileName(segment.seq);
    // O_APPEND so writes land at the real end-of-file even after an abort
    // ftruncates the spilled tail away (a plain fd would keep its old offset
    // and leave a zero-filled hole the scanner reads as a torn record).
    const int fd =
        ::open(segment.path.c_str(),
               O_CREAT | O_WRONLY | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) return Status::Internal(ErrnoMessage("open " + segment.path));
    const std::string header = SegmentHeader();
    Status s = WriteAll(fd, header.data(), header.size());
    if (s.ok()) s = SyncFd(fd);
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
    segment.durable_bytes = header.size();
    segments_.push_back(std::move(segment));
    active_fd_ = fd;
    active_size_ = header.size();
    SQ_RETURN_IF_ERROR(SyncDir(options_.dir));
  } else {
    Segment& segment = segments_.back();
    const int fd =
        ::open(segment.path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) return Status::Internal(ErrnoMessage("open " + segment.path));
    if (segment.durable_bytes == 0) {
      // Header was torn away during recovery; rewrite it.
      const std::string header = SegmentHeader();
      Status s = WriteAll(fd, header.data(), header.size());
      if (s.ok()) s = SyncFd(fd);
      if (!s.ok()) {
        ::close(fd);
        return s;
      }
      segment.durable_bytes = header.size();
    }
    active_fd_ = fd;
    active_size_ = segment.durable_bytes;
  }
  if (m_segments_ != nullptr) {
    m_segments_->Set(static_cast<int64_t>(segments_.size()));
  }
  return Status::OK();
}

Status SnapshotLog::LoadManifest(std::vector<uint64_t>* seqs,
                                 uint64_t* next_seq) const {
  std::string data;
  SQ_RETURN_IF_ERROR(
      ReadFileBytes(options_.dir + "/" + kManifestName, &data));
  std::istringstream in(data);
  std::string banner;
  if (!std::getline(in, banner) || banner != kManifestBanner) {
    return Status::Internal("manifest banner mismatch");
  }
  std::string crc_line;
  if (!std::getline(in, crc_line) || crc_line.rfind("crc ", 0) != 0) {
    return Status::Internal("manifest crc line missing");
  }
  const uint32_t expected =
      static_cast<uint32_t>(std::stoul(crc_line.substr(4), nullptr, 16));
  const size_t body_pos = banner.size() + 1 + crc_line.size() + 1;
  const std::string body = data.substr(std::min(body_pos, data.size()));
  if (Crc32c(body) != expected) {
    return Status::Internal("manifest checksum mismatch");
  }
  std::istringstream body_in(body);
  std::string line;
  while (std::getline(body_in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "next_segment") {
      fields >> *next_seq;
    } else if (tag == "segments") {
      uint64_t seq = 0;
      while (fields >> seq) seqs->push_back(seq);
    }
  }
  std::sort(seqs->begin(), seqs->end());
  return Status::OK();
}

Status SnapshotLog::WriteManifestLocked() {
  std::string body;
  body += "next_segment " + std::to_string(next_seq_) + "\n";
  body += "segments";
  for (const Segment& segment : segments_) {
    body += " " + std::to_string(segment.seq);
  }
  body += "\n";
  body += "latest_committed " +
          std::to_string(committed_.empty() ? 0 : committed_.back()) + "\n";
  body += "committed_count " + std::to_string(committed_.size()) + "\n";
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", Crc32c(body));
  std::string contents = std::string(kManifestBanner) + "\ncrc " + crc_hex +
                         "\n" + body;

  const std::string tmp = options_.dir + "/" + kManifestName + ".tmp";
  const std::string final_path = options_.dir + "/" + kManifestName;
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::Internal(ErrnoMessage("open " + tmp));
  Status s = WriteAll(fd, contents.data(), contents.size());
  if (s.ok()) s = SyncFd(fd);
  ::close(fd);
  SQ_RETURN_IF_ERROR(s);
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return Status::Internal(ErrnoMessage("rename " + tmp));
  }
  return SyncDir(options_.dir);
}

Status SnapshotLog::AppendDelta(const std::string& table, int64_t ssid,
                                int32_t partition,
                                const kv::ColumnBatch& delta) {
  if (delta.row_count() == 0) return Status::OK();
  for (const int64_t row_ssid : delta.ssids()) {
    if (row_ssid != ssid) {
      return Status::InvalidArgument(
          "delta row written at snapshot " + std::to_string(row_ssid) +
          " appended under snapshot " + std::to_string(ssid));
    }
  }
  const std::string payload =
      EncodeColumnarDeltaPayload(table, partition, delta);

  MutexLock lock(&mu_);
  if (pending_ssid_ != 0 && pending_ssid_ != ssid) {
    return Status::FailedPrecondition(
        "snapshot " + std::to_string(pending_ssid_) +
        " is still uncommitted; abort or commit it before appending " +
        std::to_string(ssid));
  }
  pending_ssid_ = ssid;
  AppendRecord(&batch_, payload);
  bytes_per_ssid_[ssid] += static_cast<int64_t>(payload.size());
  if (batch_.size() >= options_.flush_bytes) {
    SQ_RETURN_IF_ERROR(FlushBatchLocked());
  }
  return Status::OK();
}

Status SnapshotLog::AppendChannelLog(int64_t ssid, const std::string& vertex,
                                     int32_t instance,
                                     const std::vector<LoggedRecord>& records) {
  if (records.empty()) return Status::OK();
  std::string payload;
  PutU8(&payload, kChannelLogRecord);
  PutString(&payload, vertex);
  PutU32(&payload, static_cast<uint32_t>(instance));
  PutI64(&payload, ssid);
  PutU32(&payload, static_cast<uint32_t>(records.size()));
  for (const LoggedRecord& record : records) {
    PutI64(&payload, record.source_nanos);
    PutU32(&payload, static_cast<uint32_t>(record.from_instance));
    PutValue(&payload, record.key);
    PutObject(&payload, record.payload);
  }

  MutexLock lock(&mu_);
  if (pending_ssid_ != 0 && pending_ssid_ != ssid) {
    return Status::FailedPrecondition(
        "snapshot " + std::to_string(pending_ssid_) +
        " is still uncommitted; abort or commit it before appending the "
        "channel log of " + std::to_string(ssid));
  }
  pending_ssid_ = ssid;
  AppendRecord(&batch_, payload);
  bytes_per_ssid_[ssid] += static_cast<int64_t>(payload.size());
  if (batch_.size() >= options_.flush_bytes) {
    SQ_RETURN_IF_ERROR(FlushBatchLocked());
  }
  return Status::OK();
}

Status SnapshotLog::FlushBatchLocked() {
  if (batch_.empty()) return Status::OK();
  Status written = WriteAll(active_fd_, batch_.data(), batch_.size());
  if (!written.ok()) {
    // A failed write may still have appended part of the batch. Cut it off:
    // the batch stays pending, and the next flush must append it whole at
    // active_size_, not behind a torn prefix that reopening would truncate
    // together with everything after it.
    if (::ftruncate(active_fd_, static_cast<off_t>(active_size_)) != 0) {
      return Status::Internal(ErrnoMessage("ftruncate " +
                                           segments_.back().path) +
                              " after " + written.ToString());
    }
    return written;
  }
  active_size_ += batch_.size();
  batch_.clear();
  return Status::OK();
}

Status SnapshotLog::SyncActiveLocked() {
  const int64_t start = trace::NowNanos();
  SQ_RETURN_IF_ERROR(SyncFd(active_fd_));
  const int64_t end = trace::NowNanos();
  const int64_t nanos = end - start;
  fsync_nanos_.Record(nanos);
  if (m_fsync_ != nullptr) m_fsync_->Record(nanos);
  // Reuse the already-measured interval as a span (child of log_commit).
  trace::RecordSpan(trace::Category::kStorage, "fsync",
                    trace::CurrentContext(), start, end);
  return Status::OK();
}

Status SnapshotLog::Commit(int64_t ssid) {
  // Nests under the checkpoint's phase2 span when called from the durable
  // listener chain (same thread); standalone commits root a storage trace.
  trace::ScopedSpan span(trace::Category::kStorage, "log_commit");
  span.AddAttr("ssid", ssid);
  int64_t compact_floor = 0;
  {
    MutexLock lock(&mu_);
    if (pending_ssid_ != 0 && pending_ssid_ != ssid) {
      return Status::FailedPrecondition(
          "commit of " + std::to_string(ssid) + " while snapshot " +
          std::to_string(pending_ssid_) + " is pending");
    }
    std::string payload;
    PutU8(&payload, kCommitRecord);
    PutI64(&payload, ssid);
    PutI64(&payload, NowUnixMicros());
    AppendRecord(&batch_, payload);

    const uint64_t before = segments_.back().durable_bytes;
    SQ_RETURN_IF_ERROR(FlushBatchLocked());
    if (options_.sync_on_commit) {
      SQ_RETURN_IF_ERROR(SyncActiveLocked());
    }
    Segment& active = segments_.back();
    active.durable_bytes = active_size_;
    active.max_ssid = std::max(active.max_ssid, ssid);
    pending_ssid_ = 0;
    if (committed_.empty() || committed_.back() < ssid) {
      committed_.push_back(ssid);
    }
    ++commits_;
    if (m_commits_ != nullptr) m_commits_->Increment();
    if (m_persisted_bytes_ != nullptr) {
      m_persisted_bytes_->Increment(
          static_cast<int64_t>(active_size_ - before));
    }

    if (active_size_ >= options_.segment_bytes) {
      SQ_RETURN_IF_ERROR(RotateLocked());
    }
    // The MANIFEST rewrite marks the id committed for fast reopen; the
    // commit record itself is the crash-consistent source of truth.
    SQ_RETURN_IF_ERROR(WriteManifestLocked());

    if (options_.retained_snapshots > 0 &&
        static_cast<int64_t>(committed_.size()) > options_.retained_snapshots) {
      compact_floor =
          committed_[committed_.size() -
                     static_cast<size_t>(options_.retained_snapshots)];
    }
  }
  if (compact_floor > 0) {
    if (options_.async_compact) {
      MutexLock lock(&compact_mu_);
      compact_queue_.push_back(compact_floor);
      compact_idle_ = false;
      compact_cv_.NotifyAll();
    } else {
      CompactTo(compact_floor);
    }
  }
  return Status::OK();
}

Status SnapshotLog::Abort(int64_t ssid) {
  MutexLock lock(&mu_);
  batch_.clear();
  bytes_per_ssid_.erase(ssid);
  pending_ssid_ = 0;
  ++aborts_;
  Segment& active = segments_.back();
  if (active_size_ > active.durable_bytes) {
    // Phase-1 spill of the aborted checkpoint reached the file; cut it off
    // so the segment ends at the last commit boundary again.
    if (::ftruncate(active_fd_, static_cast<off_t>(active.durable_bytes)) !=
        0) {
      return Status::Internal(ErrnoMessage("ftruncate " + active.path));
    }
    active_size_ = active.durable_bytes;
  }
  return Status::OK();
}

Status SnapshotLog::RotateLocked() {
  Status s = SyncFd(active_fd_);
  ::close(active_fd_);
  active_fd_ = -1;
  SQ_RETURN_IF_ERROR(s);
  return OpenActiveLocked(/*create_new=*/true);
}

std::vector<int64_t> SnapshotLog::CommittedIds() const {
  MutexLock lock(&mu_);
  return committed_;
}

int64_t SnapshotLog::LatestDurable() const {
  MutexLock lock(&mu_);
  return committed_.empty() ? 0 : committed_.back();
}

bool SnapshotLog::IsDurable(int64_t ssid) const {
  MutexLock lock(&mu_);
  return std::binary_search(committed_.begin(), committed_.end(), ssid);
}

int64_t SnapshotLog::PersistedBytes(int64_t ssid) const {
  MutexLock lock(&mu_);
  auto it = bytes_per_ssid_.find(ssid);
  return it == bytes_per_ssid_.end() ? 0 : it->second;
}

Result<std::vector<std::shared_ptr<const kv::ColumnBatch>>>
SnapshotLog::ReadSnapshot(const std::string& table, int64_t ssid,
                          const kv::Partitioner& partitioner) const {
  // The files are read without mu_, so appends and commits go on meanwhile:
  // they only grow the files past the durable sizes taken here. Compaction,
  // which rewrites and deletes segments, waits for the read to finish.
  ReaderMutexLock files(&files_mu_);
  std::vector<Segment> segments;
  {
    MutexLock lock(&mu_);
    if (!std::binary_search(committed_.begin(), committed_.end(), ssid)) {
      return Status::NotFound("snapshot " + std::to_string(ssid) +
                              " is not durable in " + options_.dir);
    }
    segments = segments_;
  }
  DeltaMerge merge(ssid);
  RecordVisitor visit;
  visit.delta = [&](DecodedDelta& delta, size_t) {
    if (delta.table == table) {
      merge.Add(delta.partition, std::move(delta.rows));
    }
  };
  for (const Segment& segment : segments) {
    SQ_RETURN_IF_ERROR(
        VisitCommittedRecords(segment.path, segment.durable_bytes, visit));
  }
  std::vector<std::shared_ptr<kv::ColumnBatch>> partitions;
  partitions.reserve(static_cast<size_t>(partitioner.partition_count()));
  for (int32_t p = 0; p < partitioner.partition_count(); ++p) {
    partitions.push_back(std::make_shared<kv::ColumnBatch>());
  }
  merge.ForEachRow([&](int32_t, const kv::ColumnBatch& rows, size_t row) {
    partitions[partitioner.PartitionOf(rows.keys()[row])]->AppendRowFrom(
        rows, row);
  });
  return std::vector<std::shared_ptr<const kv::ColumnBatch>>(
      partitions.begin(), partitions.end());
}

Status SnapshotLog::ScanChannelLog(int64_t ssid, const ChannelLogFn& fn) const {
  MutexLock lock(&mu_);
  if (!std::binary_search(committed_.begin(), committed_.end(), ssid)) {
    return Status::NotFound("snapshot " + std::to_string(ssid) +
                            " is not durable in " + options_.dir);
  }
  // Segments are visited in seq order and records within a segment in append
  // order, so each consumer's records come back in the order it logged them
  // (one consumer writes at most a handful of records per checkpoint, all in
  // a single phase-2 append).
  RecordVisitor visit;
  visit.channel_log = [&](DecodedChannelLog& channel_log, size_t) {
    if (channel_log.ssid != ssid) return;
    for (const LoggedRecord& record : channel_log.records) {
      fn(channel_log.vertex, channel_log.instance, record);
    }
  };
  for (const Segment& segment : segments_) {
    SQ_RETURN_IF_ERROR(
        VisitCommittedRecords(segment.path, segment.durable_bytes, visit));
  }
  return Status::OK();
}

Result<RecoveryInfo> SnapshotLog::ReplayInto(kv::Grid* grid,
                                             int retained_versions) const {
  MutexLock lock(&mu_);
  RecoveryInfo info = recovery_;
  info.records_scanned = 0;
  info.channel_log_records = 0;
  RecordVisitor visit;
  visit.channel_log = [&](DecodedChannelLog& channel_log, size_t) {
    info.channel_log_records +=
        static_cast<int64_t>(channel_log.records.size());
  };
  visit.delta = [&](DecodedDelta& delta, size_t) {
    kv::SnapshotTable* snap_table = grid->GetOrCreateSnapshotTable(delta.table);
    const kv::ColumnBatch& rows = delta.rows;
    for (size_t r = 0; r < rows.row_count(); ++r) {
      if (rows.tombstone(r)) {
        snap_table->WriteTombstone(rows.ssids()[r], rows.keys()[r]);
      } else {
        snap_table->Write(rows.ssids()[r], rows.keys()[r],
                          rows.MaterializeRow(r));
      }
    }
  };
  for (const Segment& segment : segments_) {
    SQ_RETURN_IF_ERROR(VisitCommittedRecords(
        segment.path, segment.durable_bytes, visit, &info.records_scanned));
  }
  // Prune the rebuilt tables to the in-memory retention window, exactly as
  // the registry would have after its last commit.
  if (!committed_.empty() && retained_versions > 0) {
    const size_t keep =
        std::min<size_t>(committed_.size(), static_cast<size_t>(retained_versions));
    const int64_t floor = committed_[committed_.size() - keep];
    for (const std::string& name : grid->SnapshotTableNames()) {
      if (kv::SnapshotTable* snap_table = grid->GetSnapshotTable(name)) {
        snap_table->Compact(floor);
      }
    }
  }
  info.latest_committed = committed_.empty() ? 0 : committed_.back();
  info.committed_count = static_cast<int64_t>(committed_.size());
  info.segments = static_cast<int64_t>(segments_.size());
  return info;
}

size_t SnapshotLog::CompactTo(int64_t floor_ssid) {
  trace::ScopedSpan span(trace::Category::kStorage, "compaction");
  span.AddAttr("floor_ssid", floor_ssid);
  WriterMutexLock files(&files_mu_);
  MutexLock lock(&mu_);
  // Candidates: sealed segments whose every entry is older than the floor.
  // The newest per-key entry among them is a base a retained snapshot may
  // still need for its backward differential read, so candidates are
  // rewritten to just those bases (base tombstones mean "absent at the
  // floor" and are dropped entirely) — the on-disk mirror of
  // SnapshotTable::Compact.
  std::vector<size_t> inputs;
  for (size_t i = 0; i + 1 < segments_.size(); ++i) {
    if (segments_[i].max_ssid < floor_ssid) inputs.push_back(i);
  }
  if (inputs.empty()) return 0;

  // Tables by name and partitions ascending, so the rewritten segment's
  // bytes are deterministic: a recovered node and a live node compacting the
  // same inputs must produce identical segments.
  std::map<std::string, DeltaMerge> merges;
  int64_t max_base_ssid = 0;
  RecordVisitor visit;
  visit.delta = [&](DecodedDelta& delta, size_t) {
    for (const int64_t ssid : delta.rows.ssids()) {
      max_base_ssid = std::max(max_base_ssid, ssid);
    }
    merges.try_emplace(delta.table, std::numeric_limits<int64_t>::max())
        .first->second.Add(delta.partition, std::move(delta.rows));
  };
  for (size_t i : inputs) {
    Status s = VisitCommittedRecords(segments_[i].path,
                                     segments_[i].durable_bytes, visit);
    if (!s.ok()) {
      SQ_LOG(Warning) << "compaction skipped: " << s;
      return 0;
    }
  }

  // Serialize the surviving bases into one compacted segment, one delta
  // record per (table, partition).
  std::string contents = SegmentHeader();
  for (const auto& [table, merge] : merges) {
    std::map<int32_t, kv::ColumnBatch> by_partition;
    merge.ForEachRow(
        [&by_partition](int32_t partition, const kv::ColumnBatch& rows,
                        size_t row) {
          by_partition[partition].AppendRowFrom(rows, row);
        });
    for (const auto& [partition, rows] : by_partition) {
      AppendRecord(&contents,
                   EncodeColumnarDeltaPayload(table, partition, rows));
    }
  }

  // Install: write the compacted segment under the seq of the newest input
  // (tmp + rename, replacing that input), then delete the other inputs. A
  // crash between the steps leaves extra segments behind; replay is
  // idempotent per (key, ssid), so they are harmless until re-compacted.
  const size_t newest_input = inputs.back();
  Segment compacted;
  compacted.seq = segments_[newest_input].seq;
  compacted.path = segments_[newest_input].path;
  compacted.durable_bytes = contents.size();
  compacted.max_ssid = max_base_ssid;
  const std::string tmp = compacted.path + ".tmp";
  {
    const int fd =
        ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return 0;
    Status s = WriteAll(fd, contents.data(), contents.size());
    if (s.ok()) s = SyncFd(fd);
    ::close(fd);
    if (!s.ok() || ::rename(tmp.c_str(), compacted.path.c_str()) != 0) {
      return 0;
    }
  }
  size_t deleted = 0;
  for (size_t i : inputs) {
    if (i == newest_input) continue;
    std::error_code ec;
    fs::remove(segments_[i].path, ec);
    ++deleted;
  }
  // Best effort: a missed directory sync re-surfaces deleted segments after
  // a crash, which recovery already tolerates (newest entry per key wins).
  (void)SyncDir(options_.dir);

  std::vector<Segment> remaining;
  remaining.reserve(segments_.size() - deleted);
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (i == newest_input) {
      remaining.push_back(compacted);
    } else if (std::find(inputs.begin(), inputs.end(), i) == inputs.end()) {
      remaining.push_back(std::move(segments_[i]));
    }
  }
  segments_ = std::move(remaining);

  // Ids fully below the floor are no longer addressable snapshots.
  committed_.erase(
      std::remove_if(committed_.begin(), committed_.end(),
                     [floor_ssid](int64_t id) { return id < floor_ssid; }),
      committed_.end());
  bytes_per_ssid_.erase(bytes_per_ssid_.begin(),
                        bytes_per_ssid_.lower_bound(floor_ssid));

  ++compactions_;
  segments_deleted_ += static_cast<int64_t>(deleted);
  if (m_compactions_ != nullptr) m_compactions_->Increment();
  if (m_segments_ != nullptr) {
    m_segments_->Set(static_cast<int64_t>(segments_.size()));
  }
  // Best effort: the manifest is a recovery accelerator, not a correctness
  // input; a stale one just means a slower segment scan on next open.
  (void)WriteManifestLocked();
  return deleted;
}

void SnapshotLog::FlushCompaction() {
  if (!options_.async_compact) return;
  MutexLock lock(&compact_mu_);
  while (!compact_queue_.empty() || !compact_idle_) {
    compact_cv_.Wait(compact_mu_);
  }
}

void SnapshotLog::RunCompactor() {
  // Manual Lock/Unlock (not MutexLock) so the lock state at every loop
  // back-edge is consistent for thread safety analysis.
  compact_mu_.Lock();
  while (true) {
    while (!compact_stop_ && compact_queue_.empty()) {
      compact_cv_.Wait(compact_mu_);
    }
    if (compact_queue_.empty()) {
      if (compact_stop_) break;
      continue;
    }
    const int64_t floor = compact_queue_.back();  // newest floor wins
    compact_queue_.clear();
    compact_idle_ = false;
    compact_mu_.Unlock();
    CompactTo(floor);
    compact_mu_.Lock();
    if (compact_queue_.empty()) {
      compact_idle_ = true;
      compact_cv_.NotifyAll();
    }
    if (compact_stop_ && compact_queue_.empty()) break;
  }
  compact_mu_.Unlock();
}

LogStats SnapshotLog::Stats() const {
  MutexLock lock(&mu_);
  LogStats stats;
  for (const Segment& segment : segments_) {
    stats.persisted_bytes += static_cast<int64_t>(segment.durable_bytes);
  }
  stats.segments = static_cast<int64_t>(segments_.size());
  stats.commits = commits_;
  stats.aborts = aborts_;
  stats.compactions = compactions_;
  stats.segments_deleted = segments_deleted_;
  stats.fsync_p99_nanos = fsync_nanos_.Summarize().p99;
  return stats;
}

}  // namespace sq::storage
