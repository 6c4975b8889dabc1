// Tally-only serialized sessions: a kCounts pipeline whose estimators read
// only per-item tallies (every panel without EM-VOTING) keeps no
// per-(worker, item) pair index on the serialized commit path, so its
// memory is O(#items) and its checkpoints are the kTallies variant. Around
// that: durable recovery, a standby resync from a checkpoint and
// MigrateSession reproduce an uninterrupted reference bit for bit, and a
// kPairs checkpoint (what earlier builds wrote for these panels) still
// recovers into such a session, whose next checkpoint is kTallies.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/dqm.h"
#include "crowd/response_log.h"
#include "crowd/wal.h"
#include "engine/durability.h"
#include "engine/engine.h"
#include "engine/replication.h"
#include "engine/session.h"
#include "workload/workload.h"

namespace dqm::engine {
namespace {

namespace fs = std::filesystem;

using core::DataQualityMetric;
using crowd::CheckpointData;
using crowd::ResponseLog;
using crowd::RetentionPolicy;
using crowd::VoteEvent;

/// Checkpointable tally-only panel (no SWITCH, no EM-VOTING).
const std::vector<std::string> kPanel = {"chao92", "vchao92?shift=2",
                                         "voting", "nominal"};

std::string ScratchDir(const std::string& tag) {
  fs::path dir = fs::path(testing::TempDir()) / ("dqm_tally_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<VoteEvent> GenerateVotes(uint64_t seed, size_t* num_items) {
  const std::string spec =
      workload::WorkloadRegistry::Global().Names().front() +
      "?n=120&dirty=15&tasks=80&ipt=8&batch=37";
  auto generator = workload::WorkloadRegistry::Global().Create(spec);
  EXPECT_TRUE(generator.ok()) << generator.status().ToString();
  workload::GeneratedWorkload run = (*generator)->Generate(seed);
  *num_items = run.log.num_items();
  return std::vector<VoteEvent>(run.log.events().begin(),
                                run.log.events().end());
}

void Ingest(DqmEngine& engine, const std::string& name,
            const std::vector<VoteEvent>& votes, size_t begin, size_t end) {
  for (; begin < end; begin += 16) {
    const size_t size = std::min<size_t>(16, end - begin);
    ASSERT_TRUE(
        engine.Ingest(name, std::span<const VoteEvent>(&votes[begin], size))
            .ok())
        << "batch at vote " << begin;
  }
}

/// Durable serialized session options: every-batch publish (the default
/// cadence, so the session never stripes), small group commits and a
/// checkpoint every `checkpoint_every_votes`.
SessionOptions DurableOptions(const std::string& root,
                              uint64_t checkpoint_every_votes) {
  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 16;
  options.checkpoint_every_votes = checkpoint_every_votes;
  return options;
}

const CheckpointData::Variant kTallies = CheckpointData::Variant::kTallies;
const CheckpointData::Variant kPairs = CheckpointData::Variant::kPairs;

/// Everything a session serves and restores from: the snapshot's counts
/// and estimates plus the exported tally columns and bounds.
void ExpectSameSession(EstimationSession& session,
                       EstimationSession& reference,
                       const std::string& context) {
  EXPECT_FALSE(session.concurrent_ingest()) << context;
  session.Publish();
  reference.Publish();
  const Snapshot a = session.snapshot();
  const Snapshot b = reference.snapshot();
  EXPECT_EQ(a.num_votes, b.num_votes) << context;
  EXPECT_EQ(a.majority_count, b.majority_count) << context;
  EXPECT_EQ(a.nominal_count, b.nominal_count) << context;
  ASSERT_EQ(a.estimates.size(), b.estimates.size()) << context;
  for (size_t i = 0; i < a.estimates.size(); ++i) {
    EXPECT_EQ(a.estimates[i].total_errors, b.estimates[i].total_errors)
        << context << ", " << b.estimates[i].name;
    EXPECT_EQ(a.estimates[i].quality_score, b.estimates[i].quality_score)
        << context << ", " << b.estimates[i].name;
  }
  auto state = session.ExportState();
  auto expected = reference.ExportState();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(state->variant, kTallies) << context;
  EXPECT_EQ(state->num_events, expected->num_events) << context;
  EXPECT_EQ(state->num_tasks, expected->num_tasks) << context;
  EXPECT_EQ(state->num_workers, expected->num_workers) << context;
  EXPECT_EQ(state->positive, expected->positive) << context;
  EXPECT_EQ(state->total, expected->total) << context;
}

/// An uninterrupted in-memory serialized session fed votes [0, end).
std::shared_ptr<EstimationSession> Reference(
    DqmEngine& engine, size_t num_items, const std::vector<VoteEvent>& votes,
    size_t end) {
  auto session = engine.OpenSession("ref", num_items,
                                    std::span<const std::string>(kPanel));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  Ingest(engine, "ref", votes, 0, end);
  return *session;
}

CheckpointData::Variant CheckpointVariant(const std::string& path) {
  auto data = crowd::ReadCheckpointFile(path);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data.ok() ? data->variant : kPairs;
}

TEST(TallyOnlyPipelineTest, CountsPipelineKeepsNoPairIndex) {
  size_t num_items = 0;
  const std::vector<VoteEvent> votes = GenerateVotes(0x7A11, &num_items);
  const std::vector<std::vector<std::string>> panels = {
      {"chao92"}, {"vchao92"}, {"switch", "chao92"}, {"voting", "nominal"}};
  for (const std::vector<std::string>& panel : panels) {
    const std::string context = Join(panel, ",");
    auto metric = DataQualityMetric::Create(
        num_items, std::span<const std::string>(panel),
        RetentionPolicy::kCounts);
    ASSERT_TRUE(metric.ok()) << metric.status().ToString();
    const ResponseLog& log = metric->log();
    EXPECT_FALSE(log.maintains_pair_counts()) << context;
    const size_t empty_bytes = log.RetainedBytes();
    for (const VoteEvent& event : votes) {
      metric->AddVote(event.task, event.worker, event.item,
                      event.vote == crowd::Vote::kDirty);
    }
    EXPECT_EQ(log.num_events(), votes.size()) << context;
    EXPECT_EQ(log.compacted(), nullptr) << context;
    // Only the per-item tally columns: no growth with the distinct pairs.
    EXPECT_EQ(log.RetainedBytes(), empty_bytes) << context;
  }

  // EM-VOTING reads the response matrix: its panel keeps the index.
  auto em = DataQualityMetric::Create(num_items, {"chao92", "em-voting"},
                                      RetentionPolicy::kCounts);
  ASSERT_TRUE(em.ok()) << em.status().ToString();
  const size_t empty_bytes = em->log().RetainedBytes();
  for (const VoteEvent& event : votes) {
    em->AddVote(event.task, event.worker, event.item,
                event.vote == crowd::Vote::kDirty);
  }
  EXPECT_TRUE(em->log().maintains_pair_counts());
  ASSERT_NE(em->log().compacted(), nullptr);
  EXPECT_GT(em->log().compacted()->num_pairs(), 0u);
  EXPECT_GT(em->log().RetainedBytes(), empty_bytes);
}

TEST(TallyOnlySessionTest, DurableRecoveryMatchesUninterruptedReference) {
  size_t num_items = 0;
  const std::vector<VoteEvent> votes = GenerateVotes(0xC0DE, &num_items);
  ASSERT_GE(votes.size(), 400u);
  const std::string root = ScratchDir("recover");
  std::string checkpoint_path;
  {
    DqmEngine primary;
    auto session = primary.OpenSession("s", num_items,
                                       std::span<const std::string>(kPanel),
                                       DurableOptions(root, 150));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    Ingest(primary, "s", votes, 0, 400);
    ASSERT_TRUE((*session)->FlushDurability().ok());
    checkpoint_path = (*session)->durability_engine()->checkpoint_path();
  }
  EXPECT_EQ(CheckpointVariant(checkpoint_path), kTallies);

  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_EQ((*reports)[0].votes_restored, 400u);
  DqmEngine reference_engine;
  auto reference = Reference(reference_engine, num_items, votes, 400);
  ExpectSameSession(*recovered.GetSession("s").value(), *reference,
                    "recovered");
}

TEST(TallyOnlySessionTest, StandbyResyncFromCheckpointMatchesReference) {
  size_t num_items = 0;
  const std::vector<VoteEvent> votes = GenerateVotes(0x57B7, &num_items);
  ASSERT_GE(votes.size(), 400u);
  const std::string ship_dir = ScratchDir("ship");
  DqmEngine primary;
  auto session = primary.OpenSession(
      "s", num_items, std::span<const std::string>(kPanel),
      DurableOptions(ScratchDir("primary"), 100));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto transport = LocalDirTransport::Open(ship_dir);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  std::shared_ptr<ReplicationTransport> shared = std::move(*transport);
  auto replicator = SessionReplicator::Start(*session, shared);
  ASSERT_TRUE(replicator.ok()) << replicator.status().ToString();
  Ingest(primary, "s", votes, 0, 330);
  ASSERT_TRUE((*session)->FlushDurability().ok());

  // The standby attaches after three checkpoints: it comes up by restoring
  // the newest shipped one, a kTallies checkpoint.
  auto shipped = shared->Get(CheckpointArtifactName(4));
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  auto header = crowd::VerifyCheckpoint(*shipped, "ckpt");
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->variant, kTallies);
  DqmEngine standby_engine;
  StandbyApplier::Options standby_options;
  standby_options.durability_dir = ScratchDir("standby");
  auto applier = StandbyApplier::Open(standby_engine, shared, standby_options);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  EXPECT_EQ((*applier)->applied_generation(), 4u);
  EXPECT_EQ((*applier)->applied_votes(), 330u);
  // Restoring committed the state at the standby's own durable home.
  EXPECT_EQ(CheckpointVariant(
                (*applier)->session()->durability_engine()->checkpoint_path()),
            kTallies);

  // It then keeps applying the shipped segments.
  Ingest(primary, "s", votes, 330, 380);
  ASSERT_TRUE((*session)->FlushDurability().ok());
  ASSERT_TRUE((*applier)->Poll().ok());
  EXPECT_FALSE((*applier)->divergent());
  EXPECT_EQ((*applier)->applied_votes(), 380u);
  DqmEngine reference_engine;
  auto reference = Reference(reference_engine, num_items, votes, 380);
  ExpectSameSession(*(*applier)->session(), *reference, "standby");
}

TEST(TallyOnlySessionTest, MigrateSessionMatchesReference) {
  size_t num_items = 0;
  const std::vector<VoteEvent> votes = GenerateVotes(0x316, &num_items);
  ASSERT_GE(votes.size(), 300u);
  const std::string target_root = ScratchDir("migrate_target");
  DqmEngine source;
  auto session = source.OpenSession(
      "m", num_items, std::span<const std::string>(kPanel),
      DurableOptions(ScratchDir("migrate_source"), 100));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Ingest(source, "m", votes, 0, 250);

  DqmEngine target;
  ASSERT_TRUE(source.MigrateSession("m", target, target_root).ok());
  auto moved = target.GetSession("m");
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  // The durable target committed the restored state as a kTallies
  // checkpoint.
  EXPECT_EQ(CheckpointVariant((*moved)->durability_engine()->checkpoint_path()),
            kTallies);
  Ingest(target, "m", votes, 250, 300);
  DqmEngine reference_engine;
  auto reference = Reference(reference_engine, num_items, votes, 300);
  ExpectSameSession(**moved, *reference, "migrated");
}

TEST(TallyOnlySessionTest, PairsCheckpointFromEarlierBuildsStillRecovers) {
  size_t num_items = 0;
  const std::vector<VoteEvent> votes = GenerateVotes(0xB4C, &num_items);
  ASSERT_GE(votes.size(), 400u);
  const std::string root = ScratchDir("compat");
  std::string checkpoint_path;
  {
    DqmEngine primary;
    auto session = primary.OpenSession("s", num_items,
                                       std::span<const std::string>(kPanel),
                                       DurableOptions(root, 150));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    Ingest(primary, "s", votes, 0, 200);
    ASSERT_TRUE((*session)->FlushDurability().ok());
    checkpoint_path = (*session)->durability_engine()->checkpoint_path();
  }
  // Earlier builds kept the pair index on this path and checkpointed it as
  // kPairs: rewrite the committed checkpoint the way they would have.
  auto tallies = crowd::ReadCheckpointFile(checkpoint_path);
  ASSERT_TRUE(tallies.ok()) << tallies.status().ToString();
  ASSERT_EQ(tallies->variant, kTallies);
  ResponseLog pairs_log(num_items, RetentionPolicy::kCounts);
  for (size_t i = 0; i < tallies->num_events; ++i) pairs_log.Append(votes[i]);
  auto pairs = crowd::CheckpointFromLog(pairs_log, tallies->wal_generation);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  ASSERT_EQ(pairs->variant, kPairs);
  ASSERT_EQ(pairs->num_tasks, tallies->num_tasks);
  ASSERT_EQ(pairs->num_workers, tallies->num_workers);
  ASSERT_TRUE(crowd::WriteCheckpointFile(checkpoint_path, *pairs).ok());

  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_TRUE((*reports)[0].had_checkpoint);
  EXPECT_EQ((*reports)[0].votes_restored, 200u);
  auto session = recovered.GetSession("s");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  {
    DqmEngine reference_engine;
    auto reference = Reference(reference_engine, num_items, votes, 200);
    ExpectSameSession(**session, *reference, "recovered from kPairs");
  }
  // The next checkpoint (at 300) is written as kTallies.
  Ingest(recovered, "s", votes, 200, 400);
  ASSERT_TRUE((*session)->FlushDurability().ok());
  EXPECT_EQ(CheckpointVariant(checkpoint_path), kTallies);
  DqmEngine reference_engine;
  auto reference = Reference(reference_engine, num_items, votes, 400);
  ExpectSameSession(**session, *reference, "after the next checkpoint");
}

}  // namespace
}  // namespace dqm::engine
