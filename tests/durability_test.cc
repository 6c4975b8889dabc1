// Durability contract tests: the write-ahead vote log, checkpoint files,
// and crash recovery. The headline property is crash/recover/parity — kill
// the process (modeled as a point-in-time copy of the durability
// directory, taken by a phase hook at each commit-protocol step), recover
// from the copy, and the rebuilt session must match an uninterrupted
// session fed the same durable prefix: bit-identical tallies, pair
// counts, and count-derived estimates, with EM inside its declared
// conformance tolerance. Runs across every registered workload family.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/dqm.h"
#include "crowd/response_log.h"
#include "crowd/wal.h"
#include "engine/durability.h"
#include "engine/engine.h"
#include "engine/session.h"
#include "workload/workload.h"

namespace dqm::engine {
namespace {

namespace fs = std::filesystem;

using crowd::CheckpointData;
using crowd::Vote;
using crowd::VoteEvent;
using crowd::VoteWal;

/// Fresh empty scratch directory under the test tmpdir (wiped if a prior
/// run left one behind).
std::string ScratchDir(const std::string& tag) {
  fs::path dir = fs::path(testing::TempDir()) / ("dqm_durability_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<VoteEvent> MakeVotes(size_t count, size_t num_items) {
  std::vector<VoteEvent> votes;
  votes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    votes.push_back(VoteEvent{static_cast<uint32_t>(i % 7),
                              static_cast<uint32_t>(i % 5),
                              static_cast<uint32_t>(i % num_items),
                              (i % 3 == 0) ? Vote::kDirty : Vote::kClean});
  }
  return votes;
}

Result<std::vector<VoteEvent>> CollectReplay(VoteWal& wal, size_t num_items,
                                             VoteWal::ReplayStats* stats) {
  std::vector<VoteEvent> replayed;
  auto apply = [&](std::span<const VoteEvent> events) -> Status {
    replayed.insert(replayed.end(), events.begin(), events.end());
    return Status::OK();
  };
  DQM_ASSIGN_OR_RETURN(*stats, wal.ReplayAndTruncate(num_items, apply));
  return replayed;
}

bool SameEvents(const std::vector<VoteEvent>& a,
                const std::vector<VoteEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].task != b[i].task || a[i].worker != b[i].worker ||
        a[i].item != b[i].item || a[i].vote != b[i].vote) {
      return false;
    }
  }
  return true;
}

TEST(Crc32Test, MatchesIeeeKnownAnswer) {
  // The canonical CRC-32 check vector.
  EXPECT_EQ(crowd::Crc32("123456789", 9), 0xCBF43926u);
  // Chaining across a split must equal the one-shot digest.
  uint32_t split = crowd::Crc32("6789", 4, crowd::Crc32("12345", 5));
  EXPECT_EQ(split, 0xCBF43926u);
}

TEST(ValidateVoteBoundsTest, CapsAndUniverse) {
  EXPECT_TRUE(crowd::ValidateVoteBounds(0, 0, 0, 1).ok());
  EXPECT_TRUE(crowd::ValidateVoteBounds(crowd::kMaxTaskId,
                                        crowd::kMaxWorkerId, 9, 10)
                  .ok());
  EXPECT_EQ(crowd::ValidateVoteBounds(0, 0, 10, 10).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(
      crowd::ValidateVoteBounds(0, crowd::kMaxWorkerId + 1, 0, 10).code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(
      crowd::ValidateVoteBounds(crowd::kMaxTaskId + 1, 0, 0, 10).code(),
      StatusCode::kOutOfRange);
}

TEST(VoteWalTest, AppendSyncReplayRoundTrip) {
  std::string dir = ScratchDir("wal_roundtrip");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> votes = MakeVotes(100, 16);

  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal->generation(), 1u);
  wal->Append(std::span<const VoteEvent>(votes.data(), 40));
  wal->Append(std::span<const VoteEvent>(votes.data() + 40, 60));
  ASSERT_TRUE(wal->Sync().ok());

  auto reopened = VoteWal::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->generation(), 1u);
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*reopened, 16, &stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(stats.votes, 100u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.torn_records, 0u);
  EXPECT_TRUE(SameEvents(*replayed, votes));
}

TEST(VoteWalTest, TornFinalRecordIsTruncatedAndLogStaysAppendable) {
  std::string dir = ScratchDir("wal_torn");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> votes = MakeVotes(30, 8);
  {
    auto wal = VoteWal::Open(path);
    ASSERT_TRUE(wal.ok());
    wal->Append(std::span<const VoteEvent>(votes.data(), 30));
    ASSERT_TRUE(wal->Sync().ok());
  }
  // A record torn mid-write by the crash: trailing bytes that are not a
  // complete frame.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\x40\x00\x00\x00\xde\xad", 6);
  }
  uintmax_t torn_size = fs::file_size(path);

  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok());
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*wal, 8, &stats);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(stats.votes, 30u);
  EXPECT_EQ(stats.torn_records, 1u);
  EXPECT_TRUE(SameEvents(*replayed, votes));
  // The torn tail is gone from disk...
  EXPECT_LT(fs::file_size(path), torn_size);
  // ...and the log accepts new records at the truncation point.
  std::vector<VoteEvent> more = MakeVotes(5, 8);
  wal->Append(more);
  ASSERT_TRUE(wal->Sync().ok());
  auto again = VoteWal::Open(path);
  ASSERT_TRUE(again.ok());
  auto all = CollectReplay(*again, 8, &stats);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(stats.votes, 35u);
  EXPECT_EQ(stats.torn_records, 0u);
}

TEST(VoteWalTest, CorruptedCrcDropsTheRecord) {
  std::string dir = ScratchDir("wal_crc");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> votes = MakeVotes(20, 8);
  {
    auto wal = VoteWal::Open(path);
    ASSERT_TRUE(wal.ok());
    wal->Append(std::span<const VoteEvent>(votes.data(), 10));
    wal->Append(std::span<const VoteEvent>(votes.data() + 10, 10));
    ASSERT_TRUE(wal->Sync().ok());
  }
  // Flip one payload byte of the LAST record (13 bytes/vote, 8-byte frame,
  // 4-byte count: damage a byte safely inside the final payload).
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-5, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-5, std::ios::end);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok());
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*wal, 8, &stats);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(stats.votes, 10u);
  EXPECT_EQ(stats.torn_records, 1u);
  EXPECT_TRUE(SameEvents(
      *replayed, std::vector<VoteEvent>(votes.begin(), votes.begin() + 10)));
}

TEST(VoteWalTest, OutOfBoundsVoteInTailIsRejectedAsTorn) {
  std::string dir = ScratchDir("wal_bounds");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> good = MakeVotes(10, 8);
  {
    auto wal = VoteWal::Open(path);
    ASSERT_TRUE(wal.ok());
    wal->Append(good);
    // A record whose payload claims an impossible worker id: the frame and
    // CRC are fine, so only the shared bounds validation can catch it.
    VoteEvent bogus{0, crowd::kMaxWorkerId + 1, 0, Vote::kClean};
    wal->Append(std::span<const VoteEvent>(&bogus, 1));
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok());
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*wal, 8, &stats);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(stats.votes, 10u);
  EXPECT_EQ(stats.torn_records, 1u);
}

TEST(VoteWalTest, FailedSyncSealsAndDiscardsUnacknowledgedRecords) {
  // A complete write followed by a failed fsync: the batch is rejected, so
  // its CRC-valid frames must not resurrect at recovery — and the log must
  // refuse new appends, which would otherwise be acknowledged durable
  // while sitting behind bytes recovery may truncate.
  std::string dir = ScratchDir("wal_seal_sync");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> votes = MakeVotes(30, 8);
  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  wal->Append(std::span<const VoteEvent>(votes.data(), 10));
  ASSERT_TRUE(wal->Sync().ok());

  wal->Append(std::span<const VoteEvent>(votes.data() + 10, 10));
  wal->InjectSyncErrorForTest();
  ASSERT_FALSE(wal->Sync().ok());
  EXPECT_TRUE(wal->sealed());
  // Sealed: appends are no-ops, syncs keep failing with the seal error.
  wal->Append(std::span<const VoteEvent>(votes.data() + 20, 10));
  EXPECT_EQ(wal->buffered_bytes(), 0u);
  Status still_sealed = wal->Sync();
  ASSERT_FALSE(still_sealed.ok());
  EXPECT_NE(still_sealed.message().find("sealed"), std::string::npos);

  // On disk: exactly the acknowledged prefix, with no torn tail.
  {
    auto reopened = VoteWal::Open(path);
    ASSERT_TRUE(reopened.ok());
    VoteWal::ReplayStats stats;
    auto replayed = CollectReplay(*reopened, 8, &stats);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(stats.votes, 10u);
    EXPECT_EQ(stats.torn_records, 0u);
    EXPECT_TRUE(SameEvents(
        *replayed, std::vector<VoteEvent>(votes.begin(), votes.begin() + 10)));
  }

  // A checkpoint-style Reset re-establishes a clean, appendable log.
  ASSERT_TRUE(wal->Reset(2).ok());
  EXPECT_FALSE(wal->sealed());
  wal->Append(std::span<const VoteEvent>(votes.data() + 10, 10));
  ASSERT_TRUE(wal->Sync().ok());
  auto again = VoteWal::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->generation(), 2u);
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*again, 8, &stats);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(stats.votes, 10u);
}

TEST(VoteWalTest, FailedWriteSealsWithoutTearingDurablePrefix) {
  std::string dir = ScratchDir("wal_seal_write");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> votes = MakeVotes(20, 8);
  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok());
  wal->Append(std::span<const VoteEvent>(votes.data(), 10));
  ASSERT_TRUE(wal->Sync().ok());
  wal->Append(std::span<const VoteEvent>(votes.data() + 10, 10));
  wal->InjectWriteErrorForTest();
  ASSERT_FALSE(wal->Sync().ok());
  EXPECT_TRUE(wal->sealed());
  auto reopened = VoteWal::Open(path);
  ASSERT_TRUE(reopened.ok());
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*reopened, 8, &stats);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(stats.votes, 10u);
  EXPECT_EQ(stats.torn_records, 0u);
}

TEST(CheckpointTest, PairsVariantRoundTripsThroughDiskAndDirectRestore) {
  std::string dir = ScratchDir("ckpt_pairs");
  std::vector<VoteEvent> votes = MakeVotes(500, 24);
  crowd::ResponseLog log(24, crowd::RetentionPolicy::kCounts);
  for (const VoteEvent& event : votes) log.Append(event);

  auto data = crowd::CheckpointFromLog(log, /*wal_generation=*/7);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->variant, CheckpointData::Variant::kPairs);
  std::string path = dir + "/checkpoint.bin";
  ASSERT_TRUE(crowd::WriteCheckpointFile(path, *data).ok());
  auto loaded = crowd::ReadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->wal_generation, 7u);
  EXPECT_EQ(loaded->num_events, 500u);
  EXPECT_EQ(loaded->workers, data->workers);
  EXPECT_EQ(loaded->items, data->items);
  EXPECT_EQ(loaded->dirty, data->dirty);
  EXPECT_EQ(loaded->clean, data->clean);

  // A direct restore must rebuild the same compacted matrix slot-for-slot
  // (the property that keeps EM bit-identical after recovery) and the same
  // per-item tallies.
  crowd::ResponseLog restored(24, crowd::RetentionPolicy::kCounts);
  restored.RestoreCheckpoint(*loaded);
  EXPECT_EQ(restored.num_events(), log.num_events());
  ASSERT_NE(restored.compacted(), nullptr);
  ASSERT_NE(log.compacted(), nullptr);
  EXPECT_EQ(restored.compacted()->workers(), log.compacted()->workers());
  EXPECT_EQ(restored.compacted()->items(), log.compacted()->items());
  EXPECT_EQ(restored.compacted()->dirty_counts(),
            log.compacted()->dirty_counts());
  EXPECT_EQ(restored.compacted()->clean_counts(),
            log.compacted()->clean_counts());
  for (size_t i = 0; i < 24; ++i) {
    ASSERT_EQ(restored.positive_votes(i), log.positive_votes(i)) << i;
    ASSERT_EQ(restored.total_votes(i), log.total_votes(i)) << i;
  }
  EXPECT_EQ(restored.NominalCount(), log.NominalCount());
  EXPECT_EQ(restored.MajorityCount(), log.MajorityCount());
}

TEST(CheckpointTest, CorruptionFailsLoudly) {
  std::string dir = ScratchDir("ckpt_corrupt");
  std::vector<VoteEvent> votes = MakeVotes(200, 16);
  crowd::ResponseLog log(16, crowd::RetentionPolicy::kCounts);
  for (const VoteEvent& event : votes) log.Append(event);
  auto data = crowd::CheckpointFromLog(log, 1);
  ASSERT_TRUE(data.ok());
  std::string path = dir + "/checkpoint.bin";
  ASSERT_TRUE(crowd::WriteCheckpointFile(path, *data).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    byte = static_cast<char>(byte ^ 0xff);
    f.write(&byte, 1);
  }
  auto loaded = crowd::ReadCheckpointFile(path);
  ASSERT_FALSE(loaded.ok());
  // A rename-committed checkpoint that fails its CRC is real corruption —
  // never silently treated as absent.
  EXPECT_NE(loaded.status().message().find("corrupt checkpoint"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(CheckpointTest, OverflowingColumnCountIsRejectedNotAllocated) {
  // A crafted 61-byte kPairs checkpoint whose column count n = 2^60 wraps
  // the shape arithmetic (4 * n * 4 columns == 0 mod 2^64), so an
  // unguarded equality check passes and the loader attempts a 2^60-slot
  // resize. The CRC is honest over the crafted bytes, so only the bound
  // check can catch it — expect a loud corruption error, not bad_alloc.
  std::string dir = ScratchDir("ckpt_overflow");
  std::string path = dir + "/checkpoint.bin";
  std::vector<uint8_t> bytes;
  auto put32 = [&](uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  auto put64 = [&](uint64_t v) {
    put32(static_cast<uint32_t>(v));
    put32(static_cast<uint32_t>(v >> 32));
  };
  put32(0x50435144u);  // magic "DQCP"
  put32(1);            // version
  put64(1);            // wal_generation
  put64(8);            // num_items
  put64(0);            // num_events
  put64(1);            // num_tasks
  put64(1);            // num_workers
  bytes.push_back(0);  // variant kPairs
  put64(uint64_t{1} << 60);  // column count
  put32(crowd::Crc32(bytes.data(), bytes.size()));
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = crowd::ReadCheckpointFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("corrupt checkpoint"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ManifestTest, RoundTripsHostileNamesAndSpecs) {
  std::string dir = ScratchDir("manifest");
  SessionManifest manifest;
  manifest.name = "prod/us east=1%done,really";
  manifest.num_items = 1234;
  manifest.specs = {"chao92", "vchao92?shift=2", "workload?a=1&b=2,c"};
  manifest.cadence = "every_n_votes:8192";
  manifest.ingest_stripes = 4;
  manifest.publish_every_votes = 8192;
  manifest.wal_group_commit_votes = 512;
  manifest.wal_group_commit_ms = 25;
  manifest.checkpoint_every_votes = 100000;
  std::string path = dir + "/MANIFEST";
  ASSERT_TRUE(WriteManifestFile(path, manifest).ok());
  auto loaded = ReadManifestFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, manifest.name);
  EXPECT_EQ(loaded->num_items, manifest.num_items);
  EXPECT_EQ(loaded->specs, manifest.specs);
  EXPECT_EQ(loaded->cadence, manifest.cadence);
  EXPECT_EQ(loaded->ingest_stripes, manifest.ingest_stripes);
  EXPECT_EQ(loaded->publish_every_votes, manifest.publish_every_votes);
  EXPECT_EQ(loaded->wal_group_commit_votes, manifest.wal_group_commit_votes);
  EXPECT_EQ(loaded->wal_group_commit_ms, manifest.wal_group_commit_ms);
  EXPECT_EQ(loaded->checkpoint_every_votes, manifest.checkpoint_every_votes);
}

TEST(ManifestTest, PercentCodecRoundTripsAndRejectsBadHex) {
  const std::string hostile = "a/b c%d=e,f\ng\x7f";
  auto decoded = PercentDecode(PercentEncode(hostile));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, hostile);
  EXPECT_FALSE(PercentDecode("%zz").ok());
  EXPECT_FALSE(PercentDecode("%4").ok());
}

TEST(SessionDurabilityTest, CreateRefusesDirectoryWithExistingState) {
  std::string root = ScratchDir("create_refuse");
  DurabilityOptions options;
  options.dir = root + "/s";
  options.session_name = "s";
  SessionManifest manifest;
  manifest.name = "s";
  manifest.num_items = 8;
  auto first = SessionDurability::Create(options, manifest);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  first->reset();  // release the WAL fd and flusher before re-creating
  auto second = SessionDurability::Create(options, manifest);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineDurabilityTest, OpenSessionRefusesExistingDurableDir) {
  std::string root = ScratchDir("open_refuse");
  std::vector<std::string> specs = {"chao92"};
  SessionOptions options;
  options.durability_dir = root;
  {
    DqmEngine engine;
    auto session = engine.OpenSession("s", 16, specs, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
  }
  DqmEngine fresh;
  auto reopened = fresh.OpenSession("s", 16, specs, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineDurabilityTest, RetainedBytesCountsWalBuffers) {
  std::string root = ScratchDir("retained");
  std::vector<std::string> specs = {"chao92"};
  SessionOptions plain;
  SessionOptions durable = plain;
  durable.durability_dir = root;
  // Huge group commit: everything stays in the user-space WAL buffer, so
  // the durable session's accounting must exceed the in-memory twin's by
  // at least the buffered record bytes.
  durable.wal_group_commit_votes = 1u << 20;

  DqmEngine engine;
  auto in_memory = engine.OpenSession("m", 32, specs, plain);
  auto on_disk = engine.OpenSession("d", 32, specs, durable);
  ASSERT_TRUE(in_memory.ok());
  ASSERT_TRUE(on_disk.ok());
  std::vector<VoteEvent> votes = MakeVotes(300, 32);
  ASSERT_TRUE((*in_memory)->AddVotes(votes).ok());
  ASSERT_TRUE((*on_disk)->AddVotes(votes).ok());
  EXPECT_GT((*on_disk)->RetainedBytes(), (*in_memory)->RetainedBytes());
}

TEST(SessionDurabilityTest, FlushFailureSealsWalUntilCheckpointHeals) {
  std::string root = ScratchDir("seal_heal");
  DurabilityOptions options;
  options.dir = root + "/s";
  options.session_name = "s";
  options.group_commit_votes = 1;  // fsync every batch
  SessionManifest manifest;
  manifest.name = "s";
  manifest.num_items = 8;
  auto durability = SessionDurability::Create(options, manifest);
  ASSERT_TRUE(durability.ok()) << durability.status().ToString();
  std::vector<VoteEvent> votes = MakeVotes(15, 8);

  ASSERT_TRUE(
      (*durability)
          ->AppendBatch(std::span<const VoteEvent>(votes.data(), 5))
          .ok());
  (*durability)->NoteApplied();

  (*durability)->InjectWalSyncErrorForTest();
  Status failed =
      (*durability)
          ->AppendBatch(std::span<const VoteEvent>(votes.data() + 5, 5));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE((*durability)->wal_sealed());
  // Sealed: later batches and explicit flushes fail fast with the seal
  // error instead of piling doomed fsyncs or claiming a durability point.
  Status rejected =
      (*durability)
          ->AppendBatch(std::span<const VoteEvent>(votes.data() + 10, 5));
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.message().find("sealed"), std::string::npos);
  EXPECT_FALSE((*durability)->Flush().ok());

  // A checkpoint commit re-snapshots the full in-memory state (here: the
  // one applied batch) and resets the WAL, healing the seal.
  crowd::ResponseLog log(8, crowd::RetentionPolicy::kCounts);
  for (size_t i = 0; i < 5; ++i) log.Append(votes[i]);
  Status healed = (*durability)
                      ->CommitCheckpoint([&](uint64_t generation) {
                        return crowd::CheckpointFromLog(log, generation);
                      });
  ASSERT_TRUE(healed.ok()) << healed.ToString();
  EXPECT_FALSE((*durability)->wal_sealed());
  ASSERT_TRUE(
      (*durability)
          ->AppendBatch(std::span<const VoteEvent>(votes.data() + 5, 5))
          .ok());
  (*durability)->NoteApplied();
  ASSERT_TRUE((*durability)->Flush().ok());

  // Recovery over the healed directory sees checkpoint + tail = 10 votes.
  durability->reset();
  DurabilityOptions attach_options = options;
  auto attached = SessionDurability::Attach(attach_options);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  uint64_t restored = 0;
  auto recovered = (*attached)->Recover(
      8,
      [&](const CheckpointData& data) -> Status {
        restored += data.num_events;
        return Status::OK();
      },
      [&](std::span<const VoteEvent> events) -> Status {
        restored += events.size();
        return Status::OK();
      });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->had_checkpoint);
  EXPECT_EQ(recovered->checkpoint_votes + recovered->replayed_votes, 10u);
  EXPECT_EQ(restored, 10u);
}

// --- crash / recover / parity ---------------------------------------------

/// The serving estimator panel for durable-session tests: every
/// count-derived estimator the engine can attach (SWITCH excluded — an
/// order-sensitive panel disables checkpoints; it gets its own WAL-only
/// test below).
const std::vector<std::string>& CheckpointablePanel() {
  static const std::vector<std::string> panel = {
      "chao92",     "good-turing", "vchao92?shift=2", "chao1",
      "jackknife1", "voting",      "nominal",         "em-voting"};
  return panel;
}

std::vector<std::string> FamilySpecs() {
  std::vector<std::string> specs;
  for (const std::string& name :
       workload::WorkloadRegistry::Global().Names()) {
    specs.push_back(name + "?n=80&dirty=12&tasks=50&ipt=8&batch=37");
  }
  return specs;
}

std::vector<VoteEvent> GenerateVotes(const std::string& spec, uint64_t seed,
                                     size_t* num_items) {
  auto generator = workload::WorkloadRegistry::Global().Create(spec);
  EXPECT_TRUE(generator.ok()) << generator.status().ToString();
  workload::GeneratedWorkload run = (*generator)->Generate(seed);
  *num_items = run.log.num_items();
  return std::vector<VoteEvent>(run.log.events().begin(),
                                run.log.events().end());
}

/// Ingests `votes` into `name` in fixed-size batches (single producer, so
/// the durable prefix is a prefix of this exact order).
void IngestBatches(DqmEngine& engine, const std::string& name,
                   const std::vector<VoteEvent>& votes, size_t batch) {
  for (size_t begin = 0; begin < votes.size(); begin += batch) {
    size_t size = std::min(batch, votes.size() - begin);
    ASSERT_TRUE(
        engine.Ingest(name, std::span<const VoteEvent>(&votes[begin], size))
            .ok());
  }
}

/// EM conformance tolerance (declared in the striped-ingest conformance
/// suite): |a-b| <= max(2.0, 0.02 * |b|).
void ExpectWithinEmTolerance(double a, double b, const std::string& context) {
  double tolerance = std::max(2.0, 0.02 * std::abs(b));
  EXPECT_LE(std::abs(a - b), tolerance) << context << ": " << a << " vs " << b;
}

void ExpectSnapshotParity(const Snapshot& recovered, const Snapshot& reference,
                          const std::string& context) {
  EXPECT_EQ(recovered.num_votes, reference.num_votes) << context;
  EXPECT_EQ(recovered.majority_count, reference.majority_count) << context;
  EXPECT_EQ(recovered.nominal_count, reference.nominal_count) << context;
  ASSERT_EQ(recovered.estimates.size(), reference.estimates.size()) << context;
  for (size_t i = 0; i < recovered.estimates.size(); ++i) {
    const std::string row = context + ", " + reference.estimates[i].name;
    if (reference.estimates[i].name == "em-voting") {
      // EM's float accumulation order may legally differ; everything
      // count-derived must not.
      ExpectWithinEmTolerance(recovered.estimates[i].total_errors,
                              reference.estimates[i].total_errors, row);
      ExpectWithinEmTolerance(recovered.estimates[i].undetected_errors,
                              reference.estimates[i].undetected_errors, row);
    } else {
      EXPECT_EQ(recovered.estimates[i].total_errors,
                reference.estimates[i].total_errors)
          << row;
      EXPECT_EQ(recovered.estimates[i].quality_score,
                reference.estimates[i].quality_score)
          << row;
    }
  }
}

struct KillPoint {
  SessionDurability::Phase phase;
  const char* name;
};

class CrashRecoverParityTest : public testing::TestWithParam<int> {};

TEST_P(CrashRecoverParityTest, RecoveredPrefixMatchesUninterruptedRun) {
  const KillPoint kill_points[] = {
      {SessionDurability::Phase::kAppend, "append"},
      {SessionDurability::Phase::kFsync, "fsync"},
      {SessionDurability::Phase::kCheckpointWrite, "checkpoint_write"},
      {SessionDurability::Phase::kWalReset, "wal_reset"},
  };
  const KillPoint& kill = kill_points[GetParam()];
  const std::vector<std::string>& panel = CheckpointablePanel();

  for (const std::string& spec : FamilySpecs()) {
    SCOPED_TRACE(spec + " @ " + kill.name);
    size_t num_items = 0;
    std::vector<VoteEvent> votes = GenerateVotes(spec, 20260807, &num_items);
    ASSERT_GE(votes.size(), 300u);

    std::string root =
        ScratchDir(std::string("crash_") + kill.name + "_live");
    std::string crash_root =
        ScratchDir(std::string("crash_") + kill.name + "_image");

    SessionOptions options;
    options.cadence = PublishCadence::kEveryNVotes;
    options.publish_every_votes = 128;
    options.ingest_stripes = 4;
    options.durability_dir = root;
    options.wal_group_commit_votes = 64;
    options.checkpoint_every_votes = 150;

    DqmEngine live;
    auto session = live.OpenSession("s", num_items,
                                    std::span<const std::string>(panel),
                                    options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE((*session)->durable());

    // The "kill": on the second firing of the target phase, copy the whole
    // durability directory. The copy sees exactly the bytes a process
    // killed at that instant would leave on disk (the hook holds the WAL
    // mutex, so no write races the copy).
    SessionDurability* durability = (*session)->durability_for_test();
    ASSERT_NE(durability, nullptr);
    int fired = 0;
    bool copied = false;
    durability->SetPhaseHookForTest([&](SessionDurability::Phase phase) {
      if (phase != kill.phase || copied) return;
      if (++fired < 2) return;
      fs::copy(root, crash_root, fs::copy_options::recursive |
                                     fs::copy_options::overwrite_existing);
      copied = true;
    });
    IngestBatches(live, "s", votes, 37);
    ASSERT_TRUE(copied) << "kill point never fired";

    // Recover from the crash image into a fresh engine.
    DqmEngine recovered_engine;
    auto reports = recovered_engine.RecoverSessions(crash_root);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    ASSERT_EQ(reports->size(), 1u);
    const DqmEngine::RecoveredSession& report = (*reports)[0];
    EXPECT_EQ(report.name, "s");
    EXPECT_EQ(report.num_items, num_items);
    EXPECT_EQ(report.torn_records, 0u);  // fsync'd prefixes are never torn
    ASSERT_LE(report.votes_restored, votes.size());
    if (kill.phase != SessionDurability::Phase::kAppend) {
      // Past the first group commit something durable must exist.
      EXPECT_GT(report.votes_restored, 0u);
    }

    // Parity: an uninterrupted in-memory session with the identical
    // configuration, fed exactly the durable prefix.
    SessionOptions reference_options = options;
    reference_options.durability_dir.clear();
    reference_options.checkpoint_every_votes = 0;
    DqmEngine reference_engine;
    auto reference = reference_engine.OpenSession(
        "ref", num_items, std::span<const std::string>(panel),
        reference_options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    std::vector<VoteEvent> prefix(
        votes.begin(),
        votes.begin() + static_cast<ptrdiff_t>(report.votes_restored));
    IngestBatches(reference_engine, "ref", prefix, 37);
    (*reference)->Publish();

    auto recovered_snapshot = recovered_engine.Query("s");
    ASSERT_TRUE(recovered_snapshot.ok());
    ExpectSnapshotParity(*recovered_snapshot, (*reference)->snapshot(),
                         spec + " @ " + kill.name);
  }
}

INSTANTIATE_TEST_SUITE_P(KillPoints, CrashRecoverParityTest,
                         testing::Values(0, 1, 2, 3));

TEST(EngineDurabilityTest, TornTailInCrashImageIsHealedOnRecovery) {
  size_t num_items = 0;
  std::vector<VoteEvent> votes =
      GenerateVotes(FamilySpecs().front(), 7, &num_items);
  std::string root = ScratchDir("torn_tail");
  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 64;
  {
    DqmEngine engine;
    auto session = engine.OpenSession(
        "s", num_items,
        std::span<const std::string>(CheckpointablePanel()), options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    IngestBatches(engine, "s", votes, 37);
    ASSERT_TRUE((*session)->FlushDurability().ok());
  }
  // The crash tore the final record: leave half a frame at the tail.
  {
    std::ofstream f(root + "/s/wal.log", std::ios::binary | std::ios::app);
    f.write("\x28\x00\x00\x00\x99", 5);
  }
  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_EQ((*reports)[0].votes_restored, votes.size());
  EXPECT_EQ((*reports)[0].torn_records, 1u);
}

TEST(EngineDurabilityTest, OrderSensitivePanelRecoversViaFullWalReplay) {
  // SWITCH consumes arrival order, so its panel gets WAL-only durability
  // (checkpoints are refused by the session) — and full-WAL replay
  // preserves order exactly, making even SWITCH bit-identical after
  // recovery from a clean flush.
  size_t num_items = 0;
  std::vector<VoteEvent> votes =
      GenerateVotes(FamilySpecs().front(), 11, &num_items);
  const std::vector<std::string> panel = {"switch", "chao92", "em-voting"};
  std::string root = ScratchDir("switch_wal_only");
  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 64;
  options.checkpoint_every_votes = 100;  // requested, but the panel refuses
  Snapshot final_snapshot;
  {
    DqmEngine engine;
    auto session = engine.OpenSession(
        "s", num_items, std::span<const std::string>(panel), options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    IngestBatches(engine, "s", votes, 37);
    ASSERT_TRUE((*session)->FlushDurability().ok());
    final_snapshot = (*session)->snapshot();
  }
  EXPECT_FALSE(fs::exists(root + "/s/checkpoint.bin"));
  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_FALSE((*reports)[0].had_checkpoint);
  EXPECT_EQ((*reports)[0].votes_restored, votes.size());
  auto snapshot = recovered.Query("s");
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->estimates.size(), final_snapshot.estimates.size());
  for (size_t i = 0; i < snapshot->estimates.size(); ++i) {
    EXPECT_EQ(snapshot->estimates[i].total_errors,
              final_snapshot.estimates[i].total_errors)
        << panel[i];
  }
}

TEST(EngineDurabilityTest, RecoverSessionsRebuildsManyAndSkipsStrayDirs) {
  std::string root = ScratchDir("multi");
  std::vector<std::string> specs = {"chao92", "voting"};
  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 1;  // fsync every batch
  {
    DqmEngine engine;
    for (std::string name : std::vector<std::string>{"beta", "alpha"}) {
      auto session = engine.OpenSession(name, 16, specs, options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      std::vector<VoteEvent> votes = MakeVotes(50, 16);
      ASSERT_TRUE(engine.Ingest(name, votes).ok());
    }
  }
  // A stray directory without a manifest (a crash before the manifest
  // rename-committed) is skipped, not fatal.
  fs::create_directories(root + "/junk");
  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 2u);
  EXPECT_EQ((*reports)[0].name, "alpha");
  EXPECT_EQ((*reports)[1].name, "beta");
  EXPECT_EQ((*reports)[0].votes_restored, 50u);
  EXPECT_EQ((*reports)[1].votes_restored, 50u);
  EXPECT_EQ(recovered.num_sessions(), 2u);
}

TEST(EngineDurabilityTest, RecoverSessionsFailsLoudlyOnCorruptCheckpoint) {
  std::string root = ScratchDir("corrupt_ckpt");
  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 1;
  options.checkpoint_every_votes = 64;
  {
    DqmEngine engine;
    auto session = engine.OpenSession(
        "s", 16, std::span<const std::string>(CheckpointablePanel()),
        options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    std::vector<VoteEvent> votes = MakeVotes(200, 16);
    IngestBatches(engine, "s", votes, 37);
  }
  std::string checkpoint = root + "/s/checkpoint.bin";
  ASSERT_TRUE(fs::exists(checkpoint));
  {
    std::fstream f(checkpoint,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(12);
    byte = static_cast<char>(byte ^ 0x33);
    f.write(&byte, 1);
  }
  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root);
  ASSERT_FALSE(reports.ok());
  EXPECT_NE(reports.status().message().find("corrupt checkpoint"),
            std::string::npos)
      << reports.status().ToString();
}

}  // namespace
}  // namespace dqm::engine
