// Tests for util::Journal — the write-ahead record log under the
// service's durability layer: record framing and replay order, CRC
// corruption and torn tails truncating cleanly at the last good record,
// segment rotation + compaction, fsync policy parsing, the
// journal.append / journal.fsync / journal.replay failpoints, forced
// versus written records (including a written record surviving SIGKILL),
// segment names outside 64 bits, and a seeded mutation test of replay.

#include "util/journal.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace marioh {
namespace {

using api::Status;
using api::StatusCode;
using api::StatusOr;
using util::FailPoints;
using util::Journal;
using util::Durability;
using util::JournalFsync;
using util::JournalOptions;
using util::JournalRecord;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Clear();
    dir_ = testing::TempDir() + "/marioh_journal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FailPoints::Clear();
    std::filesystem::remove_all(dir_);
  }

  /// Opens the journal collecting every replayed record into `replayed`.
  StatusOr<std::unique_ptr<Journal>> OpenCollecting(
      std::vector<JournalRecord>* replayed, JournalOptions options = {}) {
    return Journal::Open(
        dir_,
        [replayed](const JournalRecord& record) {
          replayed->push_back(record);
        },
        options);
  }

  /// Path of segment `wal-<seq>.log`.
  std::string SegmentPath(uint64_t seq) const {
    char name[32];
    std::snprintf(name, sizeof(name), "wal-%08llu.log",
                  static_cast<unsigned long long>(seq));
    return dir_ + "/" + name;
  }

  std::string dir_;
};

TEST_F(JournalTest, AppendsReplayInOrderWithExactPayloads) {
  {
    StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(nullptr);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE((*journal)->Append(1, "accept target=x", false).ok());
    ASSERT_TRUE((*journal)->Append(2, "accept target=y", false).ok());
    ASSERT_TRUE((*journal)->Append(1, "attempt 1", false).ok());
    // Binary payloads (embedded NUL, high bytes) must round-trip too.
    std::string binary("\x00\xff\x7f ok", 6);
    ASSERT_TRUE((*journal)->Append(3, binary, true).ok());
    EXPECT_EQ((*journal)->stats().records_appended, 4u);
  }
  std::vector<JournalRecord> replayed;
  StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(&replayed);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(replayed.size(), 4u);
  EXPECT_EQ(replayed[0].key, 1u);
  EXPECT_EQ(replayed[0].payload, "accept target=x");
  EXPECT_FALSE(replayed[0].terminal);
  EXPECT_EQ(replayed[1].key, 2u);
  EXPECT_EQ(replayed[2].payload, "attempt 1");
  EXPECT_EQ(replayed[3].key, 3u);
  EXPECT_EQ(replayed[3].payload, std::string("\x00\xff\x7f ok", 6));
  EXPECT_TRUE(replayed[3].terminal);
  EXPECT_EQ((*journal)->stats().records_replayed, 4u);
  EXPECT_EQ((*journal)->stats().torn_tails_truncated, 0u);
}

TEST_F(JournalTest, TornTailTruncatesToLastGoodRecord) {
  {
    StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(nullptr);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(1, "first", false).ok());
    ASSERT_TRUE((*journal)->Append(2, "second", false).ok());
  }
  // Simulate a crash mid-write: chop the tail mid-record.
  uintmax_t full = std::filesystem::file_size(SegmentPath(1));
  std::filesystem::resize_file(SegmentPath(1), full - 3);
  std::vector<JournalRecord> replayed;
  StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(&replayed);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  // The second record was mid-write; the first survives untouched.
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].payload, "first");
  EXPECT_EQ((*journal)->stats().torn_tails_truncated, 1u);
  EXPECT_GT((*journal)->stats().torn_bytes_dropped, 0u);
  // The truncation is physical: a third open sees a clean single-record
  // segment with no torn tail left to drop.
  ASSERT_TRUE((*journal)->Append(3, "third", false).ok());
}

TEST_F(JournalTest, CrcCorruptionTruncatesFromTheBadRecordOn) {
  {
    StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(nullptr);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(1, "good", false).ok());
    ASSERT_TRUE((*journal)->Append(2, "to-corrupt", false).ok());
    ASSERT_TRUE((*journal)->Append(3, "after", false).ok());
  }
  // Flip one payload byte of the middle record (17-byte header + 4
  // payload bytes puts the second record's payload at offset 21 + 17).
  {
    std::fstream file(SegmentPath(1),
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(21 + 17 + 2);
    file.put('X');
  }
  std::vector<JournalRecord> replayed;
  StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(&replayed);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  // Everything from the corrupted record on is untrustworthy (framing
  // gives no way to re-sync past a bad record) and is dropped.
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].payload, "good");
  EXPECT_EQ((*journal)->stats().torn_tails_truncated, 1u);
}

TEST_F(JournalTest, RotatesSegmentsPastThreshold) {
  JournalOptions options;
  options.rotate_bytes = 64;  // a couple of records per segment
  options.fsync = JournalFsync::kNever;
  StatusOr<std::unique_ptr<Journal>> journal =
      OpenCollecting(nullptr, options);
  ASSERT_TRUE(journal.ok());
  for (uint64_t key = 1; key <= 8; ++key) {
    ASSERT_TRUE(
        (*journal)->Append(key, "payload payload payload", false).ok());
  }
  EXPECT_GT((*journal)->stats().segments_created, 1u);
  EXPECT_GT((*journal)->segment_count(), 1u);
  // All keys still open: nothing compacts.
  EXPECT_EQ((*journal)->stats().segments_compacted, 0u);
}

TEST_F(JournalTest, CompactsSegmentsOnceAllTheirKeysAreTerminal) {
  JournalOptions options;
  options.rotate_bytes = 1;  // one record per segment
  options.fsync = JournalFsync::kNever;
  StatusOr<std::unique_ptr<Journal>> journal =
      OpenCollecting(nullptr, options);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(1, "accept a", false).ok());
  ASSERT_TRUE((*journal)->Append(2, "accept b", false).ok());
  size_t before = (*journal)->segment_count();
  ASSERT_TRUE((*journal)->Append(1, "terminal DONE", true).ok());
  ASSERT_TRUE((*journal)->Append(2, "terminal DONE", true).ok());
  // Every non-active segment now holds only closed keys.
  EXPECT_LT((*journal)->segment_count(), before);
  EXPECT_GT((*journal)->stats().segments_compacted, 0u);
  // Replay of the compacted journal sees no resurrected jobs.
  std::vector<JournalRecord> replayed;
  journal = StatusOr<std::unique_ptr<Journal>>(nullptr);  // close first
  journal = OpenCollecting(&replayed, options);
  ASSERT_TRUE(journal.ok());
  for (const JournalRecord& record : replayed) {
    EXPECT_TRUE(record.terminal || record.key == 0)
        << "non-terminal record for key " << record.key << " survived";
  }
}

TEST_F(JournalTest, TerminalKeysFromAPreviousLifeCompactAtOpen) {
  JournalOptions options;
  options.rotate_bytes = 1;
  options.fsync = JournalFsync::kNever;
  {
    StatusOr<std::unique_ptr<Journal>> journal =
        OpenCollecting(nullptr, options);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(1, "accept a", false).ok());
    ASSERT_TRUE((*journal)->Append(1, "terminal DONE", true).ok());
    ASSERT_TRUE((*journal)->Append(2, "accept b", false).ok());
  }
  std::vector<JournalRecord> replayed;
  StatusOr<std::unique_ptr<Journal>> journal =
      OpenCollecting(&replayed, options);
  ASSERT_TRUE(journal.ok());
  // Key 2 is open, so its accept must survive; key 1's records may or
  // may not have compacted before the close, but after this open every
  // fully-terminal non-active segment is gone.
  bool saw_open_accept = false;
  for (const JournalRecord& record : replayed) {
    if (record.key == 2 && record.payload == "accept b") {
      saw_open_accept = true;
    }
  }
  EXPECT_TRUE(saw_open_accept);
}

TEST_F(JournalTest, OversizedPayloadIsRejectedUpFront) {
  StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(nullptr);
  ASSERT_TRUE(journal.ok());
  std::string huge(Journal::kMaxPayloadBytes + 1, 'x');
  Status status = (*journal)->Append(1, huge, false);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*journal)->stats().records_appended, 0u);
}

TEST_F(JournalTest, ParseJournalFsyncNames) {
  JournalFsync fsync = JournalFsync::kNever;
  EXPECT_TRUE(util::ParseJournalFsync("always", &fsync));
  EXPECT_EQ(fsync, JournalFsync::kAlways);
  EXPECT_TRUE(util::ParseJournalFsync("never", &fsync));
  EXPECT_EQ(fsync, JournalFsync::kNever);
  EXPECT_FALSE(util::ParseJournalFsync("sometimes", &fsync));
  EXPECT_EQ(fsync, JournalFsync::kNever);  // untouched on failure
}

TEST_F(JournalTest, AppendFailpointRejectsWithoutDurableRecord) {
  StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(nullptr);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(1, "before", false).ok());
  std::string error;
  ASSERT_TRUE(FailPoints::Configure("journal.append", "error|count=1", &error))
      << error;
  Status injected = (*journal)->Append(2, "rejected", false);
  EXPECT_EQ(injected.code(), StatusCode::kUnavailable);
  ASSERT_TRUE((*journal)->Append(3, "after", false).ok());
  // The rejected append left nothing behind: replay sees keys 1 and 3.
  journal = StatusOr<std::unique_ptr<Journal>>(nullptr);
  std::vector<JournalRecord> replayed;
  journal = OpenCollecting(&replayed);
  ASSERT_TRUE(journal.ok());
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].key, 1u);
  EXPECT_EQ(replayed[1].key, 3u);
}

TEST_F(JournalTest, ShortAppendFailpointLeavesARealTornTail) {
  StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(nullptr);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(1, "before the torn write", false).ok());
  std::string error;
  ASSERT_TRUE(FailPoints::Configure("journal.append", "short|count=1", &error))
      << error;
  Status torn = (*journal)->Append(2, "half of me hits the disk", false);
  EXPECT_EQ(torn.code(), StatusCode::kUnavailable);
  // Appends continue in a fresh segment past the abandoned one.
  ASSERT_TRUE((*journal)->Append(3, "after", false).ok());
  journal = StatusOr<std::unique_ptr<Journal>>(nullptr);
  std::vector<JournalRecord> replayed;
  StatusOr<std::unique_ptr<Journal>> reopened = OpenCollecting(&replayed);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Replay truncates the genuine half-record and keeps both good ones.
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].key, 1u);
  EXPECT_EQ(replayed[1].key, 3u);
  EXPECT_EQ((*reopened)->stats().torn_tails_truncated, 1u);
}

TEST_F(JournalTest, FsyncFailpointRollsTheRecordBack) {
  StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(nullptr);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(1, "durable", false).ok());
  std::string error;
  ASSERT_TRUE(FailPoints::Configure("journal.fsync", "error|count=1", &error))
      << error;
  Status injected = (*journal)->Append(2, "never durable", false);
  EXPECT_EQ(injected.code(), StatusCode::kUnavailable);
  ASSERT_TRUE((*journal)->Append(3, "durable again", false).ok());
  // The fsync-failed record was rolled back: a failed Append can never
  // resurrect as a replayed record.
  journal = StatusOr<std::unique_ptr<Journal>>(nullptr);
  std::vector<JournalRecord> replayed;
  StatusOr<std::unique_ptr<Journal>> reopened = OpenCollecting(&replayed);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].key, 1u);
  EXPECT_EQ(replayed[1].key, 3u);
}

TEST_F(JournalTest, ReplayFailpointFailsOpen) {
  std::string error;
  ASSERT_TRUE(FailPoints::Configure("journal.replay", "error|count=1", &error))
      << error;
  StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(nullptr);
  EXPECT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kUnavailable);
  // Second open (failpoint exhausted) succeeds on the same directory.
  StatusOr<std::unique_ptr<Journal>> retried = OpenCollecting(nullptr);
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
}

TEST_F(JournalTest, NeverFsyncStillReplaysCleanly) {
  JournalOptions options;
  options.fsync = JournalFsync::kNever;
  {
    StatusOr<std::unique_ptr<Journal>> journal =
        OpenCollecting(nullptr, options);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(7, "page-cache only", false).ok());
    EXPECT_EQ((*journal)->stats().fsyncs, 0u);
  }
  std::vector<JournalRecord> replayed;
  StatusOr<std::unique_ptr<Journal>> journal =
      OpenCollecting(&replayed, options);
  ASSERT_TRUE(journal.ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].key, 7u);
}

/// A record as one comparable, printable line.
std::string Show(const JournalRecord& record) {
  return std::to_string(record.key) + (record.terminal ? " T " : " - ") +
         record.payload;
}

TEST_F(JournalTest, WrittenRecordsSkipTheFsyncUntilAForcedOneCoversThem) {
  StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(nullptr);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(1, "accept a", false, Durability::kForced)
                  .ok());
  EXPECT_EQ((*journal)->stats().fsyncs, 1u);
  ASSERT_TRUE(
      (*journal)->Append(1, "attempt 1", false, Durability::kWritten).ok());
  ASSERT_TRUE(
      (*journal)->Append(1, "terminal DONE", true, Durability::kWritten).ok());
  EXPECT_EQ((*journal)->stats().fsyncs, 1u);
  // An injected fsync failure cannot touch a written record: it has no
  // fsync to fail.
  std::string error;
  ASSERT_TRUE(FailPoints::Configure("journal.fsync", "error", &error))
      << error;
  EXPECT_TRUE(
      (*journal)->Append(2, "attempt 1", false, Durability::kWritten).ok());
  EXPECT_EQ((*journal)->Append(2, "terminal FAILED", true).code(),
            StatusCode::kUnavailable);
  FailPoints::Clear();
  ASSERT_TRUE((*journal)->Append(2, "terminal FAILED", true).ok());
  EXPECT_EQ((*journal)->stats().fsyncs, 2u);
  EXPECT_EQ((*journal)->stats().records_appended, 5u);
}

// Compaction may unlink a segment only once the terminal that closed its
// keys is durable: with that terminal written, not forced, the unlink
// forces the active segment first.
TEST_F(JournalTest, CompactionForcesTheWrittenTerminalItReliesOn) {
  JournalOptions options;
  options.rotate_bytes = 1;  // one record per segment
  StatusOr<std::unique_ptr<Journal>> journal =
      OpenCollecting(nullptr, options);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(1, "accept a", false).ok());
  EXPECT_EQ((*journal)->stats().fsyncs, 1u);
  ASSERT_TRUE(
      (*journal)->Append(1, "terminal DONE", true, Durability::kWritten).ok());
  EXPECT_EQ((*journal)->stats().segments_compacted, 1u);
  EXPECT_EQ((*journal)->stats().fsyncs, 2u);
  // Nothing written is pending now, so the next compaction needs no
  // extra fsync.
  ASSERT_TRUE((*journal)->Append(2, "accept b", false).ok());
  ASSERT_TRUE((*journal)->Append(2, "terminal DONE", true).ok());
  EXPECT_EQ((*journal)->stats().segments_compacted, 3u);
  EXPECT_EQ((*journal)->stats().fsyncs, 4u);
}

// A written record lives in the page cache, so it survives the death of
// the process that wrote it. The child forks before this test starts any
// thread and dies by SIGKILL right after its last append: no destructor,
// no flush.
TEST_F(JournalTest, WrittenRecordsSurviveSigkill) {
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    StatusOr<std::unique_ptr<Journal>> journal = Journal::Open(dir_, nullptr);
    if (!journal.ok() ||
        !(*journal)->Append(7, "accept a", false, Durability::kForced).ok() ||
        !(*journal)->Append(7, "attempt 1", false, Durability::kWritten)
             .ok() ||
        !(*journal)->Append(7, "terminal DONE", true, Durability::kWritten)
             .ok()) {
      ::_exit(2);
    }
    ::raise(SIGKILL);
    ::_exit(3);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exit status " << status;
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  JournalOptions options;
  options.rotate_bytes = 1;
  std::vector<JournalRecord> replayed;
  StatusOr<std::unique_ptr<Journal>> journal =
      OpenCollecting(&replayed, options);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(Show(replayed[0]), "7 - accept a");
  EXPECT_EQ(Show(replayed[1]), "7 - attempt 1");
  EXPECT_EQ(Show(replayed[2]), "7 T terminal DONE");
  EXPECT_EQ((*journal)->stats().torn_tails_truncated, 0u);
  // Key 7 is closed: the next append rotates and the old segment, which
  // holds only key 7, compacts.
  ASSERT_TRUE((*journal)->Append(8, "accept b", false).ok());
  EXPECT_EQ((*journal)->stats().segments_compacted, 1u);
}

// A foreign file whose name looks like a segment but whose number does
// not fit 64 bits is ignored like any other foreign file; a newest
// segment numbered 2^64-1 refuses to open, since its rotation would wrap
// to wal-00000000.log and replay out of order, and no rotation wraps.
TEST_F(JournalTest, SegmentNamesAtTheEdgeOf64Bits) {
  {
    StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(nullptr);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(1, "accept a", false).ok());
  }
  const std::string stray = dir_ + "/wal-99999999999999999999.log";
  std::ofstream(stray) << "not a segment";
  std::vector<JournalRecord> replayed;
  StatusOr<std::unique_ptr<Journal>> journal = OpenCollecting(&replayed);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(Show(replayed[0]), "1 - accept a");
  EXPECT_EQ((*journal)->segment_count(), 1u);
  journal = StatusOr<std::unique_ptr<Journal>>(nullptr);
  EXPECT_TRUE(std::filesystem::exists(stray));

  const std::string last = dir_ + "/wal-18446744073709551615.log";
  std::ofstream(last).flush();
  journal = Journal::Open(dir_, nullptr);
  EXPECT_EQ(journal.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(journal.status().message().find("wal-18446744073709551615.log"),
            std::string::npos)
      << journal.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(last));

  // One below the last opens, rotates once into the last number, and
  // then refuses the rotation that would wrap.
  std::filesystem::remove(last);
  std::ofstream(dir_ + "/wal-18446744073709551614.log").flush();
  JournalOptions options;
  options.rotate_bytes = 1;
  journal = Journal::Open(dir_, nullptr, options);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_TRUE((*journal)->Append(2, "accept b", false).ok());
  ASSERT_TRUE((*journal)->Append(3, "accept c", false).ok());
  EXPECT_TRUE(std::filesystem::exists(last));
  EXPECT_EQ((*journal)->Append(4, "accept d", false).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(std::filesystem::exists(SegmentPath(0)));
}

// Seeded mutation test of replay, like the ones the wire parser and the
// .hg/.eg readers have: every truncation of a segment, every single-bit
// flip and seeded random bytes at every offset, and random trailing
// garbage. Open must never crash (the suite runs under ASan+UBSan) and
// must replay exactly the records that precede the first damaged byte,
// with exact payloads. Its truncation is physical: a second Open
// replays the same records and finds no torn tail.
TEST_F(JournalTest, MutatedSegmentsReplayTheIntactPrefix) {
  const std::vector<JournalRecord> appended = {
      {1, false, "accept target=x"},
      {2, false, "accept target=y"},
      {1, false, "attempt 1"},
      {1, true, "terminal DONE"},
      {3, false, std::string("\x00\xff\x7f bin", 7)},
      {2, true, ""},
  };
  JournalOptions options;
  options.fsync = JournalFsync::kNever;  // replay is policy-independent
  {
    StatusOr<std::unique_ptr<Journal>> journal =
        OpenCollecting(nullptr, options);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (const JournalRecord& record : appended) {
      ASSERT_TRUE(
          (*journal)->Append(record.key, record.payload, record.terminal)
              .ok());
    }
  }
  std::string pristine;
  {
    std::ifstream in(SegmentPath(1), std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  // Record i occupies [ends[i-1], ends[i]): 17-byte header + payload.
  std::vector<size_t> ends;
  for (const JournalRecord& record : appended) {
    ends.push_back((ends.empty() ? 0 : ends.back()) + 17 +
                   record.payload.size());
  }
  ASSERT_EQ(pristine.size(), ends.back());
  // How many records lie wholly before byte `offset`.
  auto intact_before = [&ends](size_t offset) {
    return static_cast<size_t>(
        std::upper_bound(ends.begin(), ends.end(), offset) - ends.begin());
  };

  auto check = [&](const std::string& segment, size_t expected) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directory(dir_);
    {
      std::ofstream out(SegmentPath(1), std::ios::binary);
      out << segment;
    }
    const std::string what = "segment of " + std::to_string(segment.size()) +
                             " bytes, expected " + std::to_string(expected);
    for (int open = 0; open < 2; ++open) {
      std::vector<JournalRecord> replayed;
      StatusOr<std::unique_ptr<Journal>> journal =
          OpenCollecting(&replayed, options);
      ASSERT_TRUE(journal.ok()) << what << ": " << journal.status().ToString();
      ASSERT_EQ(replayed.size(), expected) << what << ", open " << open;
      for (size_t i = 0; i < expected; ++i) {
        EXPECT_EQ(Show(replayed[i]), Show(appended[i])) << what;
      }
      if (open == 1) {
        EXPECT_EQ((*journal)->stats().torn_tails_truncated, 0u) << what;
      }
    }
  };

  for (size_t length = 0; length <= pristine.size(); ++length) {
    check(pristine.substr(0, length), intact_before(length));
  }
  util::Rng rng(20261017);
  for (size_t offset = 0; offset < pristine.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = pristine;
      mutant[offset] = static_cast<char>(mutant[offset] ^ (1 << bit));
      check(mutant, intact_before(offset));
    }
    for (int draw = 0; draw < 4; ++draw) {
      std::string mutant = pristine;
      mutant[offset] = static_cast<char>(rng.UniformInt(0, 255));
      check(mutant, mutant == pristine ? appended.size()
                                       : intact_before(offset));
    }
  }
  for (int draw = 0; draw < 16; ++draw) {
    std::string garbage(static_cast<size_t>(rng.UniformInt(1, 40)), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.UniformInt(0, 255));
    check(pristine + garbage, appended.size());
  }
}

}  // namespace
}  // namespace marioh
