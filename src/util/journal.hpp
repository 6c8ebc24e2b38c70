/// \file journal.hpp
/// \brief A write-ahead journal: an append-only, segmented, checksummed
/// record log that survives process death. `api::Service` journals the
/// request lifecycle through it (accept → attempts → terminal) so a
/// daemon killed mid-load can re-admit every accepted-but-unfinished job
/// on restart; the class itself is payload-agnostic and reusable.
///
/// **Record framing.** Each record is length-prefixed and checksummed:
///
///   [payload_len u32][crc32 u32][key u64][flags u8][payload bytes]
///
/// (little-endian, 17-byte header; the CRC covers key + flags + payload).
/// Records are written with one `write(2)` on an `O_APPEND` descriptor.
/// Each `Append` names its record's `Durability`: a *forced* record is
/// also fsync'd before `Append` returns (under the default
/// `JournalFsync::kAlways` policy), so once the call succeeds it is on
/// stable storage; a *written* record only reaches the page cache. It
/// survives the death of the process and reaches the disk with the next
/// forced append to its segment, the segment's rotation, or OS
/// writeback. Force exactly the records recovery must not lose.
///
/// **Torn-tail detection.** A crash can leave a partially written record
/// at the tail of a segment. Replay verifies length bounds and the CRC of
/// every record; at the first bad one it *truncates the segment file* at
/// the last good record boundary and moves on — a torn tail costs exactly
/// the record that was mid-write, never the journal.
///
/// **Segments, rotation, compaction.** The journal is a directory of
/// `wal-<seq>.log` segment files. The active segment rotates once it
/// exceeds `rotate_bytes`. Every record carries a caller key (the job
/// id); a record appended with `terminal = true` closes its key. A
/// non-active segment whose keys are all closed holds no information a
/// replay needs, so it is unlinked (compaction) — the journal's footprint
/// is proportional to the open backlog, not to history.
///
/// **Failpoints.** `journal.append` (error: reject the append;
/// short: leave a genuinely torn half-record behind and rotate),
/// `journal.fsync` (error: the synced-to-disk promise of a forced record
/// fails — the record is rolled back; written records never evaluate
/// it), and `journal.replay` (error: Open fails) make every
/// durability surface chaos-testable with the PR 8 machinery.
///
/// Layering note: this lives in util/ (it is generic infrastructure) but
/// reports errors through `api::Status` like every fallible surface of
/// the repo; api/status.hpp depends only on util/check.hpp, so the
/// include is acyclic.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>

#include "api/status.hpp"

namespace marioh::util {

/// When appended records reach stable storage.
enum class JournalFsync {
  /// fsync(2) after every *forced* append: a forced record whose Append
  /// returned OK is durable even through power loss, together with every
  /// written record before it in its segment. The default — durability
  /// is the whole point of a write-ahead journal.
  kAlways,
  /// Leave flushing to the OS page cache for every record, forced or
  /// not: much cheaper, but a power loss can lose the most recent appends
  /// (replay still truncates the torn tail cleanly). For workloads where
  /// re-running a lost tail is acceptable.
  kNever,
};

/// How far one `Journal::Append` takes its record before returning.
enum class Durability {
  /// write(2), then fsync(2) under `JournalFsync::kAlways`: on stable
  /// storage when Append returns OK. A failed fsync rolls the record back.
  kForced,
  /// write(2) only: the record survives SIGKILL in the page cache but
  /// can be lost to a power cut until a later forced append to its
  /// segment (or the segment's rotation, or OS writeback) syncs it.
  kWritten,
};

/// Parses "always" / "never" as printed above. Returns false (and leaves
/// `*out` alone) for anything else.
bool ParseJournalFsync(const std::string& name, JournalFsync* out);

struct JournalOptions {
  /// Rotate the active segment once it holds at least this many bytes.
  size_t rotate_bytes = 4u << 20;
  JournalFsync fsync = JournalFsync::kAlways;
};

/// Monotone counters since Open (replay counters describe the Open
/// itself).
struct JournalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t fsyncs = 0;
  uint64_t records_replayed = 0;  ///< good records seen during Open
  /// Segments whose tail failed the length/CRC checks during Open and
  /// were truncated at the last good record boundary.
  uint64_t torn_tails_truncated = 0;
  uint64_t torn_bytes_dropped = 0;
  uint64_t segments_created = 0;
  uint64_t segments_compacted = 0;  ///< fully-terminal segments unlinked
};

/// One replayed record, exactly as appended.
struct JournalRecord {
  uint64_t key = 0;
  bool terminal = false;
  std::string payload;
};

/// Append-only segmented record log. All methods are thread-safe; Append
/// serializes internally (records never interleave).
class Journal {
 public:
  using ReplayCallback = std::function<void(const JournalRecord&)>;

  /// Opens (creating the directory and first segment if needed) and
  /// replays every surviving record, in append order, into `replay`
  /// (which may be null to discard them). Torn tails are truncated on
  /// the way; fully-terminal non-active segments left over from a
  /// previous life are compacted. Names other than `wal-<seq>.log` with
  /// a seq that fits 64 bits are ignored. Errors (unreachable directory,
  /// unreadable segment, a newest segment numbered 2^64-1, which could
  /// not rotate without wrapping, the `journal.replay` failpoint) return
  /// a non-OK status and leave the directory untouched beyond tail
  /// truncation.
  static api::StatusOr<std::unique_ptr<Journal>> Open(
      const std::string& dir, const ReplayCallback& replay,
      JournalOptions options = {});

  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record and, when `durability` is kForced and the policy
  /// is kAlways, syncs it (and every written record before it in the
  /// active segment) to stable storage. `terminal = true` closes `key`,
  /// making segments that only hold closed keys eligible for compaction.
  /// On any failure —
  /// injected or real — no durable record remains (a partially written
  /// record is truncated or abandoned behind a rotation, where replay
  /// drops it), so a failed Append can never resurrect as a replayed
  /// record. kInvalidArgument for oversized payloads, kUnavailable for
  /// IO failures (retryable by the caller's policy).
  api::Status Append(uint64_t key, std::string_view payload, bool terminal,
                     Durability durability = Durability::kForced);

  JournalStats stats() const;

  /// Segment files currently on disk (including the active one).
  size_t segment_count() const;

  const std::string& dir() const { return dir_; }

  /// Hard cap on one record's payload (sanity bound for replay: a
  /// length prefix beyond it is treated as corruption).
  static constexpr size_t kMaxPayloadBytes = 16u << 20;

 private:
  Journal(std::string dir, JournalOptions options);

  /// Closes the active segment and opens `wal-<seq>.log` fresh for
  /// append. Requires `mutex_` held.
  api::Status OpenSegmentLocked(uint64_t seq);
  /// Unlinks every non-active segment whose keys are all closed. A key
  /// may be closed only by a written record of the active segment, so
  /// that segment is forced first: an unlink must never outlive, across
  /// a power loss, the terminal record that justified it. Requires
  /// `mutex_` held.
  void CompactLocked();
  /// fsync(2)s the active segment (honouring the `journal.fsync`
  /// failpoint) and times it. Requires `mutex_` held.
  api::Status SyncActiveLocked();
  /// fsync the directory itself so created/unlinked segment names are
  /// durable. Requires `mutex_` held; best-effort under kNever.
  void SyncDirLocked();
  /// Replays one segment file into `replay`, truncating a torn tail.
  /// Requires `mutex_` held (only called from Open).
  api::Status ReplaySegmentLocked(const std::string& path, uint64_t seq,
                                  const ReplayCallback& replay);

  mutable std::mutex mutex_;
  const std::string dir_;
  const JournalOptions options_;
  int fd_ = -1;           ///< active segment, O_WRONLY | O_APPEND
  uint64_t active_seq_ = 0;
  size_t active_bytes_ = 0;
  /// The active segment holds written records no fsync has covered yet
  /// (only ever set under kAlways).
  bool active_unforced_ = false;
  /// Keys with at least one record in each live segment, and the keys
  /// not yet closed by a terminal record — together they decide which
  /// segments compaction may drop.
  std::map<uint64_t, std::set<uint64_t>> segment_keys_;
  std::set<uint64_t> open_keys_;
  JournalStats stats_;
};

}  // namespace marioh::util
