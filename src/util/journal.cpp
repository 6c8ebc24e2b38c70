#include "util/journal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"

namespace marioh::util {

namespace {

using api::Status;
using api::StatusOr;

/// [payload_len u32][crc32 u32][key u64][flags u8]
constexpr size_t kHeaderBytes = 17;
constexpr uint8_t kFlagTerminal = 0x1;

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

void PutU32(char* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

void PutU64(char* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

uint32_t GetU32(const char* in) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(in[i]))
             << (8 * i);
  }
  return value;
}

uint64_t GetU64(const char* in) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(in[i]))
             << (8 * i);
  }
  return value;
}

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

constexpr uint64_t kLastSeq = std::numeric_limits<uint64_t>::max();

/// Parses "wal-<seq>.log"; nullopt for anything else in the directory,
/// including a seq that does not fit 64 bits.
std::optional<uint64_t> ParseSegmentName(const std::string& name) {
  constexpr const char* kPrefix = "wal-";
  constexpr const char* kSuffix = ".log";
  if (name.size() <= 8 || name.rfind(kPrefix, 0) != 0) return std::nullopt;
  if (name.substr(name.size() - 4) != kSuffix) return std::nullopt;
  const char* first = name.data() + 4;
  const char* last = name.data() + name.size() - 4;
  uint64_t seq = 0;
  // from_chars takes digits only (no sign, no space) and reports
  // out-of-range instead of throwing.
  auto [end, error] = std::from_chars(first, last, seq);
  if (error != std::errc() || end != last) return std::nullopt;
  return seq;
}

/// write(2) until every byte is down, retrying EINTR and short writes.
Status WriteFully(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(ErrnoMessage("journal write failed"));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

bool ParseJournalFsync(const std::string& name, JournalFsync* out) {
  if (name == "always") {
    *out = JournalFsync::kAlways;
  } else if (name == "never") {
    *out = JournalFsync::kNever;
  } else {
    return false;
  }
  return true;
}

Journal::Journal(std::string dir, JournalOptions options)
    : dir_(std::move(dir)), options_(options) {}

Journal::~Journal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    if (options_.fsync == JournalFsync::kAlways) (void)::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void Journal::SyncDirLocked() {
  if (options_.fsync != JournalFsync::kAlways) return;
  int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;  // best-effort: the data fsync is the load-bearing one
  (void)::fsync(fd);
  ::close(fd);
}

api::Status Journal::SyncActiveLocked() {
  if (FailPoints::active() &&
      FailPoints::Eval("journal.fsync") == FailAction::kError) {
    return Status::Unavailable(
        "failpoint 'journal.fsync': injected fsync failure");
  }
  // The fsync dominates the submit path under kAlways, so its duration
  // distribution is first-class telemetry.
  const auto fsync_start = std::chrono::steady_clock::now();
  if (::fsync(fd_) != 0) {
    return Status::Unavailable(ErrnoMessage("journal fsync failed"));
  }
  static obs::Histogram* const fsync_seconds =
      obs::MetricRegistry::Global().GetHistogram(
          "marioh_journal_fsync_seconds");
  fsync_seconds->Observe(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - fsync_start)
                             .count());
  ++stats_.fsyncs;
  active_unforced_ = false;
  return Status::Ok();
}

api::Status Journal::OpenSegmentLocked(uint64_t seq) {
  if (seq == 0) {
    // A rotation past wal-<2^64-1> wrapped; its segment would replay first.
    return Status::FailedPrecondition(
        "journal segment sequence numbers are exhausted");
  }
  std::string path = SegmentPath(dir_, seq);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Unavailable(
        ErrnoMessage("cannot open journal segment '" + path + "'"));
  }
  if (fd_ >= 0) {
    if (options_.fsync == JournalFsync::kAlways) (void)::fsync(fd_);
    ::close(fd_);
  }
  fd_ = fd;
  active_seq_ = seq;
  active_bytes_ = 0;
  active_unforced_ = false;  // the old segment was synced as it closed
  segment_keys_[seq];  // the segment exists even before its first record
  ++stats_.segments_created;
  // The new name must survive a crash too, or replay would miss records
  // appended to it.
  SyncDirLocked();
  return Status::Ok();
}

void Journal::CompactLocked() {
  bool removed = false;
  for (auto it = segment_keys_.begin(); it != segment_keys_.end();) {
    if (it->first == active_seq_) {
      ++it;
      continue;
    }
    bool all_closed = true;
    for (uint64_t key : it->second) {
      if (open_keys_.count(key) > 0) {
        all_closed = false;
        break;
      }
    }
    if (!all_closed) {
      ++it;
      continue;
    }
    // The record that closed one of these keys may be a written one in
    // the active segment: force it before the unlink, or a power cut
    // could keep the unlink and lose the terminal. On failure keep the
    // segment and retry at a later compaction.
    if (active_unforced_ && !SyncActiveLocked().ok()) break;
    // Every key journaled in this segment already reached a terminal
    // record somewhere, so replay learns nothing from it: drop it.
    if (::unlink(SegmentPath(dir_, it->first).c_str()) != 0 &&
        errno != ENOENT) {
      ++it;  // keep the bookkeeping consistent with the disk; retry later
      continue;
    }
    it = segment_keys_.erase(it);
    ++stats_.segments_compacted;
    removed = true;
  }
  if (removed) SyncDirLocked();
}

api::Status Journal::ReplaySegmentLocked(const std::string& path,
                                         uint64_t seq,
                                         const ReplayCallback& replay) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Unavailable("cannot read journal segment '" + path +
                               "'");
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  segment_keys_[seq];  // an empty segment still exists for compaction
  size_t offset = 0;
  bool torn = false;
  while (offset < data.size()) {
    if (data.size() - offset < kHeaderBytes) {
      torn = true;
      break;
    }
    const char* header = data.data() + offset;
    uint32_t payload_len = GetU32(header);
    uint32_t stored_crc = GetU32(header + 4);
    if (payload_len > kMaxPayloadBytes ||
        data.size() - offset - kHeaderBytes < payload_len) {
      torn = true;
      break;
    }
    // The CRC covers key + flags + payload, exactly as stored.
    uint32_t crc = Crc32(header + 8, 9 + payload_len);
    if (crc != stored_crc) {
      torn = true;
      break;
    }
    JournalRecord record;
    record.key = GetU64(header + 8);
    record.terminal = (static_cast<uint8_t>(header[16]) & kFlagTerminal) != 0;
    record.payload.assign(header + kHeaderBytes, payload_len);
    segment_keys_[seq].insert(record.key);
    if (record.terminal) {
      open_keys_.erase(record.key);
    } else {
      open_keys_.insert(record.key);
    }
    ++stats_.records_replayed;
    if (replay) replay(record);
    offset += kHeaderBytes + payload_len;
  }
  if (torn) {
    // A partially written record (crash mid-append) or corruption: cut
    // the segment back to the last record that checks out. Everything
    // before the cut is intact; everything after was never trustworthy.
    (void)::truncate(path.c_str(), static_cast<off_t>(offset));
    ++stats_.torn_tails_truncated;
    stats_.torn_bytes_dropped += data.size() - offset;
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<Journal>> Journal::Open(
    const std::string& dir, const ReplayCallback& replay,
    JournalOptions options) {
  if (FailPoints::active() &&
      FailPoints::Eval("journal.replay") == FailAction::kError) {
    return Status::Unavailable(
        "failpoint 'journal.replay': injected replay failure for journal "
        "directory '" + dir + "'");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Unavailable(
        ErrnoMessage("cannot create journal directory '" + dir + "'"));
  }
  std::vector<uint64_t> seqs;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::Unavailable(
        ErrnoMessage("cannot scan journal directory '" + dir + "'"));
  }
  while (struct dirent* entry = ::readdir(d)) {
    std::optional<uint64_t> seq = ParseSegmentName(entry->d_name);
    if (seq.has_value()) seqs.push_back(*seq);
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  if (!seqs.empty() && seqs.back() == kLastSeq) {
    // Its rotation would wrap to wal-00000000.log and replay out of
    // order; refuse before touching anything.
    return Status::FailedPrecondition(
        "journal segment '" + SegmentPath(dir, kLastSeq) +
        "' has the last sequence number and cannot rotate");
  }

  std::unique_ptr<Journal> journal(new Journal(dir, options));
  std::lock_guard<std::mutex> lock(journal->mutex_);
  for (uint64_t seq : seqs) {
    MARIOH_RETURN_IF_ERROR(
        journal->ReplaySegmentLocked(SegmentPath(dir, seq), seq, replay));
  }
  if (seqs.empty()) {
    MARIOH_RETURN_IF_ERROR(journal->OpenSegmentLocked(1));
  } else {
    // Resume appending to the newest segment (its torn tail, if any,
    // was truncated just above, so new records land on a good record
    // boundary).
    std::string path = SegmentPath(dir, seqs.back());
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) {
      return Status::Unavailable(
          ErrnoMessage("cannot reopen journal segment '" + path + "'"));
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::Unavailable(
          ErrnoMessage("cannot stat journal segment '" + path + "'"));
    }
    journal->fd_ = fd;
    journal->active_seq_ = seqs.back();
    journal->active_bytes_ = static_cast<size_t>(st.st_size);
  }
  journal->CompactLocked();
  return StatusOr<std::unique_ptr<Journal>>(std::move(journal));
}

api::Status Journal::Append(uint64_t key, std::string_view payload,
                            bool terminal, Durability durability) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "journal payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
        "-byte record cap");
  }
  if (fd_ < 0) {
    return Status::Unavailable("journal has no active segment");
  }
  bool torn_write = false;
  if (FailPoints::active()) {
    FailAction action = FailPoints::Eval("journal.append");
    if (action == FailAction::kError) {
      return Status::Unavailable(
          "failpoint 'journal.append': injected append failure");
    }
    if (action == FailAction::kShort) torn_write = true;
  }
  if (!torn_write && active_bytes_ >= options_.rotate_bytes) {
    MARIOH_RETURN_IF_ERROR(OpenSegmentLocked(active_seq_ + 1));
    CompactLocked();
  }

  std::string buffer(kHeaderBytes + payload.size(), '\0');
  PutU32(buffer.data(), static_cast<uint32_t>(payload.size()));
  PutU64(buffer.data() + 8, key);
  buffer[16] = static_cast<char>(terminal ? kFlagTerminal : 0);
  std::copy(payload.begin(), payload.end(),
            buffer.begin() + static_cast<ptrdiff_t>(kHeaderBytes));
  PutU32(buffer.data() + 4, Crc32(buffer.data() + 8, 9 + payload.size()));

  if (torn_write) {
    // Simulate a crash mid-write(2): leave a genuinely torn half-record
    // on disk and abandon the segment behind a rotation, so later
    // appends land cleanly in a fresh segment while replay gets a real
    // torn tail to truncate.
    size_t half = std::max<size_t>(1, buffer.size() / 2);
    (void)WriteFully(fd_, buffer.data(), half);
    api::Status rotated = OpenSegmentLocked(active_seq_ + 1);
    return Status::Unavailable(
        "failpoint 'journal.append': injected torn write (half-record "
        "left for replay to truncate)" +
        (rotated.ok() ? std::string()
                      : "; rotation also failed: " + rotated.message()));
  }

  size_t before = active_bytes_;
  api::Status written = WriteFully(fd_, buffer.data(), buffer.size());
  if (!written.ok()) {
    // Never leave a half-record in the *active* segment: later appends
    // would be unreadable past it.
    (void)::ftruncate(fd_, static_cast<off_t>(before));
    return written;
  }
  active_bytes_ += buffer.size();

  if (options_.fsync == JournalFsync::kAlways) {
    if (durability == Durability::kWritten) {
      active_unforced_ = true;
    } else if (api::Status synced = SyncActiveLocked(); !synced.ok()) {
      // The caller was promised stable storage; roll the record back so
      // a failed Append can never replay as an accepted one.
      (void)::ftruncate(fd_, static_cast<off_t>(before));
      active_bytes_ = before;
      return Status::Unavailable(synced.message() + "; record rolled back");
    }
  }

  ++stats_.records_appended;
  stats_.bytes_appended += buffer.size();
  segment_keys_[active_seq_].insert(key);
  if (terminal) {
    open_keys_.erase(key);
    CompactLocked();
  } else {
    open_keys_.insert(key);
  }
  return Status::Ok();
}

JournalStats Journal::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

size_t Journal::segment_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segment_keys_.size();
}

}  // namespace marioh::util
