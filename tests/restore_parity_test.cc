// Checkpoint restore parity: rebuilding a pipeline directly from
// CheckpointFromLog's columns (DataQualityMetric::RestoreCheckpoint,
// O(#pairs + #items)) must reproduce the live pipeline exactly — the
// compacted (worker, item) columns slot for slot, every tally, NOMINAL /
// VOTING, the task/worker bounds and every estimate — on each checkpoint
// shape the engine produces: serialized and striped kPairs (a panel with
// EM-VOTING keeps the pair counts, per-stripe shards when striped) and
// serialized and striped kTallies (tally-only panels keep no pairs). The restored pipeline must also keep ingesting like
// the live one. Around it: an empty checkpoint is a no-op, a non-empty
// target is refused, and panels whose state is not in a checkpoint
// (SWITCH, full-event retention) get FailedPrecondition.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dqm.h"
#include "crowd/response_log.h"
#include "crowd/wal.h"
#include "engine/engine.h"
#include "engine/session.h"
#include "workload/workload.h"

namespace dqm {
namespace {

using core::DataQualityMetric;
using crowd::CheckpointData;
using crowd::CompactedVoteStore;
using crowd::ResponseLog;
using crowd::RetentionPolicy;
using crowd::VoteEvent;

const std::vector<std::string> kPairPanel = {
    "chao92", "good-turing", "vchao92?shift=2", "voting", "nominal",
    "em-voting"};
const std::vector<std::string> kTallyPanel = {
    "chao92", "good-turing", "vchao92?shift=2", "chao1", "voting", "nominal"};

struct Shape {
  const char* name;
  const std::vector<std::string>* panel;
  size_t stripes;  // 0 = serialized commit path
  CheckpointData::Variant variant;
};

const Shape kShapes[] = {
    {"serialized_pairs", &kPairPanel, 0, CheckpointData::Variant::kPairs},
    {"striped_pairs", &kPairPanel, 4, CheckpointData::Variant::kPairs},
    {"striped_tallies", &kTallyPanel, 4, CheckpointData::Variant::kTallies},
    {"serialized_tallies", &kTallyPanel, 0,
     CheckpointData::Variant::kTallies},
};

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

DataQualityMetric MakePipeline(const Shape& shape, size_t num_items) {
  auto metric = DataQualityMetric::Create(
      num_items, std::span<const std::string>(*shape.panel),
      RetentionPolicy::kCounts);
  EXPECT_TRUE(metric.ok()) << metric.status().ToString();
  if (shape.stripes > 0) metric->EnableConcurrentIngest(shape.stripes);
  return std::move(*metric);
}

/// Feeds votes [begin, end) in batches of 37 through the shape's commit
/// path.
void Feed(DataQualityMetric& metric, const std::vector<VoteEvent>& votes,
          size_t begin, size_t end) {
  for (; begin < end; begin += 37) {
    const size_t size = std::min<size_t>(37, end - begin);
    std::span<const VoteEvent> batch(&votes[begin], size);
    if (metric.concurrent_ingest()) {
      metric.CommitVotesConcurrent(batch);
    } else {
      for (const VoteEvent& event : batch) {
        metric.AddVote(event.task, event.worker, event.item,
                       event.vote == crowd::Vote::kDirty);
      }
    }
  }
}

/// Everything observable about a pipeline, copied out under its own
/// reconcile pause (two pipelines' stripe locks are never held at once).
struct Observed {
  uint64_t num_events = 0;
  uint64_t positive_votes = 0;
  size_t num_tasks = 0;
  size_t num_workers = 0;
  size_t nominal = 0;
  size_t majority = 0;
  std::vector<uint32_t> positive;
  std::vector<uint32_t> total;
  /// Compacted blocks in stripe order (empty for tally-only logs).
  std::vector<CompactedVoteStore> blocks;
  std::vector<double> estimates;
};

Observed Observe(DataQualityMetric& metric) {
  ResponseLog::IngestPause pause = metric.ReconcileForEstimates();
  const ResponseLog& log = metric.log();
  Observed out;
  out.num_events = log.num_events();
  out.positive_votes = log.total_positive_votes();
  out.num_tasks = log.num_tasks();
  out.num_workers = log.num_workers();
  out.nominal = log.NominalCount();
  out.majority = log.MajorityCount();
  out.positive.assign(log.positive_counts().begin(),
                      log.positive_counts().end());
  out.total.assign(log.total_counts().begin(), log.total_counts().end());
  if (log.maintains_pair_counts()) {
    std::vector<const CompactedVoteStore*> blocks;
    log.AppendCountMatrixBlocks(blocks);
    for (const CompactedVoteStore* block : blocks) out.blocks.push_back(*block);
  }
  for (const auto& row : metric.Report().estimators) {
    out.estimates.push_back(row.total_errors);
  }
  return out;
}

/// Full observable-state comparison of two pipelines.
void ExpectSameState(DataQualityMetric& restored, DataQualityMetric& live,
                     const std::string& context) {
  const Observed a = Observe(restored);
  const Observed b = Observe(live);
  EXPECT_EQ(a.num_events, b.num_events) << context;
  EXPECT_EQ(a.positive_votes, b.positive_votes) << context;
  EXPECT_EQ(a.num_tasks, b.num_tasks) << context;
  EXPECT_EQ(a.num_workers, b.num_workers) << context;
  EXPECT_EQ(a.nominal, b.nominal) << context;
  EXPECT_EQ(a.majority, b.majority) << context;
  EXPECT_EQ(a.positive, b.positive) << context;
  EXPECT_EQ(a.total, b.total) << context;
  ASSERT_EQ(a.blocks.size(), b.blocks.size()) << context;
  for (size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].workers(), b.blocks[i].workers())
        << context << ", block " << i;
    EXPECT_EQ(a.blocks[i].items(), b.blocks[i].items())
        << context << ", block " << i;
    EXPECT_EQ(a.blocks[i].dirty_counts(), b.blocks[i].dirty_counts())
        << context << ", block " << i;
    EXPECT_EQ(a.blocks[i].clean_counts(), b.blocks[i].clean_counts())
        << context << ", block " << i;
  }
  // Identical columns in identical slot order: every estimate, EM-VOTING
  // included, is bit-identical.
  EXPECT_EQ(a.estimates, b.estimates) << context;
}

Result<CheckpointData> Checkpoint(DataQualityMetric& metric) {
  ResponseLog::IngestPause pause = metric.ReconcileForEstimates();
  return crowd::CheckpointFromLog(metric.log(), /*wal_generation=*/1);
}

TEST(RestoreParityTest, DirectRestoreMatchesLivePipelineOnEveryShape) {
  uint64_t seed = 0x5E570;
  for (const Shape& shape : kShapes) {
    for (const std::string& spec : FamilySpecs()) {
      const std::string context = std::string(shape.name) + ", " + spec;
      size_t num_items = 0;
      std::vector<VoteEvent> votes = GenerateVotes(spec, ++seed, &num_items);
      ASSERT_GE(votes.size(), 100u) << context;
      const size_t half = votes.size() / 2;

      DataQualityMetric live = MakePipeline(shape, num_items);
      Feed(live, votes, 0, half);
      auto data = Checkpoint(live);
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      EXPECT_EQ(data->variant, shape.variant) << context;

      DataQualityMetric restored = MakePipeline(shape, num_items);
      ASSERT_TRUE(restored.RestoreCheckpoint(*data).ok()) << context;
      ExpectSameState(restored, live, context + ", at the cut");

      // The restored pipeline is a live one: the rest of the stream lands
      // exactly as it does on the pipeline that never stopped (per-stripe
      // counters and the positive fingerprint were rebuilt consistently).
      Feed(live, votes, half, votes.size());
      Feed(restored, votes, half, votes.size());
      ExpectSameState(restored, live, context + ", after the tail");
    }
  }
}

TEST(RestoreParityTest, EmptyCheckpointIsANoOp) {
  for (const Shape& shape : kShapes) {
    DataQualityMetric source = MakePipeline(shape, 40);
    auto empty = Checkpoint(source);
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    EXPECT_EQ(empty->num_events, 0u);

    DataQualityMetric target = MakePipeline(shape, 40);
    ASSERT_TRUE(target.RestoreCheckpoint(*empty).ok()) << shape.name;
    {
      ResponseLog::IngestPause pause = target.ReconcileForEstimates();
      EXPECT_EQ(target.num_votes(), 0u) << shape.name;
      EXPECT_EQ(target.log().num_tasks(), 0u) << shape.name;
    }
    // Restoring nothing into a pipeline that holds votes is a no-op too.
    std::vector<VoteEvent> votes = {{0, 1, 2, crowd::Vote::kDirty},
                                    {0, 2, 2, crowd::Vote::kDirty}};
    Feed(target, votes, 0, votes.size());
    ASSERT_TRUE(target.RestoreCheckpoint(*empty).ok()) << shape.name;
    ResponseLog::IngestPause pause = target.ReconcileForEstimates();
    EXPECT_EQ(target.num_votes(), 2u) << shape.name;
  }

  // At the session layer: no votes committed, nothing published.
  engine::DqmEngine engine;
  auto session = engine.OpenSession(
      "empty", 40, std::span<const std::string>(kTallyPanel));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  CheckpointData empty;
  empty.num_items = 40;
  ASSERT_TRUE((*session)->RestoreState(empty).ok());
  EXPECT_EQ((*session)->committed_votes(), 0u);
  EXPECT_EQ((*session)->snapshot().version, 0u);
}

TEST(RestoreParityTest, RestoreNeverPublishesAndCountsVotesAsCommitted) {
  size_t num_items = 0;
  std::vector<VoteEvent> votes =
      GenerateVotes(FamilySpecs().front(), 0xC0FFEE, &num_items);
  DataQualityMetric source = MakePipeline(kShapes[0], num_items);
  Feed(source, votes, 0, votes.size());
  auto data = Checkpoint(source);
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  engine::DqmEngine engine;
  auto session = engine.OpenSession(
      "restored", num_items, std::span<const std::string>(kPairPanel));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE((*session)->RestoreState(*data).ok());
  EXPECT_EQ((*session)->committed_votes(), votes.size());
  EXPECT_EQ((*session)->snapshot().version, 0u)
      << "restore must leave publishing to its caller";
  (*session)->Publish();
  engine::Snapshot snapshot = (*session)->snapshot();
  EXPECT_EQ(snapshot.version, 1u);
  EXPECT_EQ(snapshot.num_votes, votes.size());
  EXPECT_EQ(snapshot.majority_count, source.MajorityCount());
  EXPECT_EQ(snapshot.nominal_count, source.NominalCount());
}

TEST(RestoreParityTest, NonEmptyTargetIsRefused) {
  size_t num_items = 0;
  std::vector<VoteEvent> votes =
      GenerateVotes(FamilySpecs().front(), 0xBEEF, &num_items);
  for (const Shape& shape : kShapes) {
    DataQualityMetric source = MakePipeline(shape, num_items);
    Feed(source, votes, 0, votes.size());
    auto data = Checkpoint(source);
    ASSERT_TRUE(data.ok()) << data.status().ToString();

    // A reconciled target that already holds votes: refused as a Status.
    DataQualityMetric target = MakePipeline(shape, num_items);
    Feed(target, votes, 0, 10);
    { ResponseLog::IngestPause pause = target.ReconcileForEstimates(); }
    Status status = target.RestoreCheckpoint(*data);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << shape.name << ": " << status.ToString();
  }

  engine::DqmEngine engine;
  auto session = engine.OpenSession(
      "busy", num_items, std::span<const std::string>(kPairPanel));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE((*session)->AddVotes(std::span<const VoteEvent>(votes.data(), 5))
                  .ok());
  DataQualityMetric source = MakePipeline(kShapes[0], num_items);
  Feed(source, votes, 0, votes.size());
  auto data = Checkpoint(source);
  ASSERT_TRUE(data.ok());
  Status status = (*session)->RestoreState(*data);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_EQ((*session)->committed_votes(), 5u);

  // Below the pipeline, the log itself refuses to merge into live state.
  ResponseLog log(num_items, RetentionPolicy::kCounts);
  log.Append(votes.front());
  EXPECT_DEATH(log.RestoreCheckpoint(*data), "empty log");
}

TEST(RestoreParityTest, PanelsWithoutACheckpointFormAreRefused) {
  size_t num_items = 0;
  std::vector<VoteEvent> votes =
      GenerateVotes(FamilySpecs().front(), 0xD1CE, &num_items);
  DataQualityMetric source = MakePipeline(kShapes[0], num_items);
  Feed(source, votes, 0, votes.size());
  auto data = Checkpoint(source);
  ASSERT_TRUE(data.ok());

  // SWITCH reads arrival order, which a checkpoint does not hold.
  auto with_switch = DataQualityMetric::Create(
      num_items, {"switch", "chao92"}, RetentionPolicy::kCounts);
  ASSERT_TRUE(with_switch.ok());
  Status status = with_switch->RestoreCheckpoint(*data);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_EQ(with_switch->num_votes(), 0u);

  engine::DqmEngine engine;
  auto session = engine.OpenSession("switch", num_items,
                                    std::vector<std::string>{"switch"});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->RestoreState(*data).code(),
            StatusCode::kFailedPrecondition);

  // Full-event retention keeps arrival history a checkpoint cannot supply.
  auto full = DataQualityMetric::Create(num_items, {"chao92"},
                                        RetentionPolicy::kFullEvents);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->RestoreCheckpoint(*data).code(),
            StatusCode::kFailedPrecondition);

  // A tally-only checkpoint cannot rebuild the pair counts a serialized
  // kCounts pipeline keeps; a different item universe is a bad argument.
  DataQualityMetric tally_source = MakePipeline(kShapes[2], num_items);
  Feed(tally_source, votes, 0, votes.size());
  auto tallies = Checkpoint(tally_source);
  ASSERT_TRUE(tallies.ok());
  ASSERT_EQ(tallies->variant, CheckpointData::Variant::kTallies);
  DataQualityMetric serialized = MakePipeline(kShapes[0], num_items);
  EXPECT_EQ(serialized.RestoreCheckpoint(*tallies).code(),
            StatusCode::kFailedPrecondition);
  DataQualityMetric wider = MakePipeline(kShapes[0], num_items + 1);
  EXPECT_EQ(wider.RestoreCheckpoint(*data).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dqm
