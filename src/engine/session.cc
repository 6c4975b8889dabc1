#include "engine/session.h"

#include <algorithm>
#include <bit>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "engine/durability.h"
#include "telemetry/metric_names.h"

namespace dqm::engine {

SnapshotCell::SnapshotCell(size_t num_estimators)
    : num_estimators_(num_estimators),
      words_(std::make_unique<std::atomic<uint64_t>[]>(num_words())) {
  // invariant: a metric always carries at least one estimator.
  DQM_CHECK_GT(num_estimators_, 0u);
  for (size_t i = 0; i < num_words(); ++i) {
    words_[i].store(0, std::memory_order_relaxed);
  }
}

void SnapshotCell::Store(const Snapshot& snapshot) {
  // invariant: the cell is sized for this pipeline's estimator count.
  DQM_CHECK_EQ(snapshot.estimates.size(), num_estimators_);
  // Boehm's seqlock recipe ("Can seqlocks get along with programming
  // language memory models?"): odd sequence marks a write in flight.
  uint64_t seq = seq_.load(std::memory_order_relaxed);
  seq_.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  auto put = [this](size_t index, uint64_t word) {
    words_[index].store(word, std::memory_order_relaxed);
  };
  put(0, snapshot.version);
  put(1, snapshot.num_votes);
  put(2, static_cast<uint64_t>(snapshot.num_items));
  put(3, static_cast<uint64_t>(snapshot.majority_count));
  put(4, static_cast<uint64_t>(snapshot.nominal_count));
  put(5, std::bit_cast<uint64_t>(snapshot.estimated_total_errors));
  put(6, std::bit_cast<uint64_t>(snapshot.estimated_undetected_errors));
  put(7, std::bit_cast<uint64_t>(snapshot.quality_score));
  for (size_t i = 0; i < num_estimators_; ++i) {
    const EstimatorEstimate& row = snapshot.estimates[i];
    put(kHeaderWords + 3 * i + 0, std::bit_cast<uint64_t>(row.total_errors));
    put(kHeaderWords + 3 * i + 1,
        std::bit_cast<uint64_t>(row.undetected_errors));
    put(kHeaderWords + 3 * i + 2, std::bit_cast<uint64_t>(row.quality_score));
  }
  seq_.store(seq + 2, std::memory_order_release);
}

Snapshot SnapshotCell::Load() const {
  Snapshot snapshot;
  LoadInto(snapshot);
  return snapshot;
}

void SnapshotCell::LoadInto(Snapshot& snapshot) const {
  // Retries (a Store in flight, or one that landed mid-copy) are the
  // seqlock's contention signal; the counter lives at function scope so the
  // metric is registered — at zero — from the first uncontended read.
  static telemetry::Counter* retries =
      telemetry::MetricsRegistry::Global().GetCounter(
          telemetry::metric_names::kSeqlockReadRetriesTotal);
  // The rows vector is sized before the retry loop (a no-op when the caller
  // reuses a Snapshot): a hot reader polling the cell pays no allocation
  // per read, let alone per retry.
  snapshot.estimates.resize(num_estimators_);
  for (;;) {
    uint64_t before = seq_.load(std::memory_order_acquire);
    if (before & 1) {
      retries->Increment();
      std::this_thread::yield();  // a Store is mid-flight
      continue;
    }
    auto get = [this](size_t index) {
      return words_[index].load(std::memory_order_relaxed);
    };
    snapshot.version = get(0);
    snapshot.num_votes = get(1);
    snapshot.num_items = static_cast<size_t>(get(2));
    snapshot.majority_count = static_cast<size_t>(get(3));
    snapshot.nominal_count = static_cast<size_t>(get(4));
    snapshot.estimated_total_errors = std::bit_cast<double>(get(5));
    snapshot.estimated_undetected_errors = std::bit_cast<double>(get(6));
    snapshot.quality_score = std::bit_cast<double>(get(7));
    for (size_t i = 0; i < num_estimators_; ++i) {
      EstimatorEstimate& row = snapshot.estimates[i];
      row.total_errors = std::bit_cast<double>(get(kHeaderWords + 3 * i));
      row.undetected_errors =
          std::bit_cast<double>(get(kHeaderWords + 3 * i + 1));
      row.quality_score =
          std::bit_cast<double>(get(kHeaderWords + 3 * i + 2));
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_.load(std::memory_order_relaxed) == before) return;
    retries->Increment();
  }
}

Result<SessionOptions> ParsePublishCadenceSpec(std::string_view spec,
                                               SessionOptions base) {
  if (spec == "every_batch") {
    base.cadence = PublishCadence::kEveryBatch;
    return base;
  }
  if (spec == "manual") {
    base.cadence = PublishCadence::kManual;
    return base;
  }
  constexpr std::string_view kEveryN = "every_n_votes";
  if (spec.substr(0, kEveryN.size()) == kEveryN) {
    base.cadence = PublishCadence::kEveryNVotes;
    std::string_view rest = spec.substr(kEveryN.size());
    if (rest.empty()) return base;  // keep the default threshold
    if (rest[0] != ':') {
      return Status::InvalidArgument(StrFormat(
          "bad publish cadence '%.*s': expected every_n_votes[:N]",
          static_cast<int>(spec.size()), spec.data()));
    }
    rest.remove_prefix(1);
    uint64_t n = 0;
    if (rest.empty()) {
      return Status::InvalidArgument("publish cadence every_n_votes: missing N");
    }
    for (char c : rest) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument(StrFormat(
            "bad publish cadence threshold '%.*s'",
            static_cast<int>(rest.size()), rest.data()));
      }
      n = n * 10 + static_cast<uint64_t>(c - '0');
    }
    if (n == 0) {
      return Status::InvalidArgument(
          "publish cadence every_n_votes: N must be positive");
    }
    base.publish_every_votes = n;
    return base;
  }
  return Status::InvalidArgument(StrFormat(
      "unknown publish cadence '%.*s' (every_batch | every_n_votes[:N] | "
      "manual)",
      static_cast<int>(spec.size()), spec.data()));
}

Result<SessionOptions> ParseWalGroupCommitSpec(std::string_view spec,
                                               SessionOptions base) {
  std::string_view digits = spec;
  bool is_ms = false;
  if (digits.size() >= 2 && digits.substr(digits.size() - 2) == "ms") {
    is_ms = true;
    digits.remove_suffix(2);
  }
  if (digits.empty()) {
    return Status::InvalidArgument(StrFormat(
        "bad WAL group commit '%.*s': expected N (votes) or Nms",
        static_cast<int>(spec.size()), spec.data()));
  }
  uint64_t n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(StrFormat(
          "bad WAL group commit '%.*s': expected N (votes) or Nms",
          static_cast<int>(spec.size()), spec.data()));
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (n > (UINT64_MAX - digit) / 10) {
      return Status::InvalidArgument(StrFormat(
          "bad WAL group commit '%.*s': overflows uint64",
          static_cast<int>(spec.size()), spec.data()));
    }
    n = n * 10 + digit;
  }
  if (n == 0) {
    return Status::InvalidArgument(
        "WAL group commit threshold must be positive");
  }
  if (is_ms) {
    base.wal_group_commit_ms = n;
  } else {
    base.wal_group_commit_votes = n;
  }
  return base;
}

namespace {

/// Engine-wide hot-path metrics, resolved once. Latency histograms are fed
/// only while telemetry::Enabled() (they need clock reads); the counters
/// and the size histogram are always on — their per-hit cost is one
/// relaxed fetch_add (plus a CLZ for the histogram), cheaper than a branch
/// worth skipping them over.
struct SessionMetrics {
  telemetry::Counter* batches;
  telemetry::Counter* votes;
  telemetry::Counter* publishes;
  telemetry::Counter* deferred;  // cadence said "not yet" after a commit
  telemetry::Histogram* batch_votes;
  telemetry::Histogram* commit_ns;
  telemetry::Histogram* publish_ns;
  telemetry::Histogram* estimate_ns;

  SessionMetrics() {
    auto& registry = telemetry::MetricsRegistry::Global();
    batches = registry.GetCounter(telemetry::metric_names::kCommitBatchesTotal);
    votes = registry.GetCounter(telemetry::metric_names::kCommitVotesTotal);
    publishes = registry.GetCounter(telemetry::metric_names::kPublishesTotal);
    deferred = registry.GetCounter(telemetry::metric_names::kPublishDeferredTotal);
    batch_votes = registry.GetHistogram(telemetry::metric_names::kCommitBatchVotes);
    commit_ns = registry.GetHistogram(telemetry::metric_names::kCommitLatencyNs);
    publish_ns = registry.GetHistogram(telemetry::metric_names::kPublishLatencyNs);
    estimate_ns = registry.GetHistogram(telemetry::metric_names::kPublishEstimateNs);
  }
};

SessionMetrics& Metrics() {
  static SessionMetrics* metrics = new SessionMetrics();  // never destroyed
  return *metrics;
}

std::vector<std::string> InitialNames(const core::DataQualityMetric& metric) {
  return metric.estimator_names();
}

Snapshot InitialSnapshot(size_t num_items, size_t num_estimators) {
  Snapshot initial;
  initial.num_items = num_items;
  initial.estimates.resize(num_estimators);
  return initial;
}

/// Auto stripe count: enough stripes that a producer per core rarely
/// collides, without sharding tiny universes to confetti (the log clamps
/// further so every stripe spans at least a cache line of tallies).
size_t DefaultStripeCount() {
  return std::clamp<size_t>(ThreadPool::DefaultThreadCount(), 2, 8);
}

}  // namespace

size_t ResolveIngestStripes(const SessionOptions& options,
                            bool supports_concurrent_ingest) {
  // Stripe on explicit request (>= 2), or automatically when the cadence is
  // coalesced — never by default under kEveryBatch, where the serialized
  // O(batch) commit+publish beats a striped O(num_items) reconcile per
  // batch for a single producer.
  const bool want_striping =
      options.ingest_stripes >= 2 ||
      (options.ingest_stripes == 0 &&
       options.cadence != PublishCadence::kEveryBatch);
  if (!want_striping || !supports_concurrent_ingest) return 0;
  return options.ingest_stripes == 0 ? DefaultStripeCount()
                                     : options.ingest_stripes;
}

EstimationSession::EstimationSession(
    std::string name, size_t num_items,
    const core::DataQualityMetric::Options& options)
    : EstimationSession(std::move(name),
                        core::DataQualityMetric(num_items, options)) {}

EstimationSession::EstimationSession(
    std::string name, core::DataQualityMetric metric,
    const SessionOptions& session_options,
    std::unique_ptr<SessionDurability> durability,
    std::vector<std::string> specs)
    : name_(std::move(name)),
      num_items_(metric.num_items()),
      options_(session_options),
      specs_(std::move(specs)),
      durability_(std::move(durability)),
      metric_(std::move(metric)),
      estimator_names_(InitialNames(metric_)),
      snapshot_(estimator_names_.size()) {
  // Checkpoints serialize the restorable kCounts compacted state; panels
  // outside it (order-sensitive SWITCH, kFullEvents retention) keep the
  // full-order WAL instead — decided before striping flips the log's mode.
  checkpointable_ = durability_ != nullptr &&
                    durability_->checkpoints_enabled() &&
                    metric_.SupportsConcurrentIngest();
  // One resolution path (shared with the engine's durability manifest, so
  // a recovered session reproduces this layout exactly).
  const size_t resolved_stripes =
      ResolveIngestStripes(options_, metric_.SupportsConcurrentIngest());
  if (resolved_stripes >= 2) {
    metric_.EnableConcurrentIngest(resolved_stripes);
    striped_ = true;
  }
  snapshot_.Store(InitialSnapshot(num_items_, estimator_names_.size()));
  // Per-session×estimator exported quality gauges, refreshed on every
  // publish. Acquired (refcounted), not pinned: when the last session
  // carrying a (session, estimator) identity dies, the gauge leaves the
  // exposition — closed sessions don't haunt the metrics page.
  auto& registry = telemetry::MetricsRegistry::Global();
  quality_gauges_.reserve(estimator_names_.size());
  total_errors_gauges_.reserve(estimator_names_.size());
  for (const std::string& estimator : estimator_names_) {
    telemetry::LabelSet labels{{"estimator", estimator}, {"session", name_}};
    quality_gauges_.push_back(
        registry.AcquireGauge(telemetry::metric_names::kSessionQuality, labels));
    quality_gauges_.back()->Set(1.0);  // empty session: all labels "correct"
    total_errors_gauges_.push_back(
        registry.AcquireGauge(telemetry::metric_names::kSessionTotalErrors, labels));
  }
}

EstimationSession::~EstimationSession() {
  auto& registry = telemetry::MetricsRegistry::Global();
  for (const std::string& estimator : estimator_names_) {
    telemetry::LabelSet labels{{"estimator", estimator}, {"session", name_}};
    registry.ReleaseGauge(telemetry::metric_names::kSessionQuality, labels);
    registry.ReleaseGauge(telemetry::metric_names::kSessionTotalErrors, labels);
  }
}

Status EstimationSession::AddVotes(std::span<const crowd::VoteEvent> votes) {
  // Validate up front so a bad batch is rejected atomically: the metric's own
  // range check aborts the process (DQM_CHECK), which a serving layer must
  // turn into a recoverable error instead.
  for (const crowd::VoteEvent& event : votes) {
    if (event.item >= num_items_) {
      return Status::InvalidArgument(
          StrFormat("session '%s': item id %u out of range (num_items=%zu)",
                    name_.c_str(), event.item, num_items_));
    }
  }
  if (votes.empty()) return Status::OK();

  // Shared cadence rule for both commit paths: under kEveryNVotes the
  // committer whose batch crosses a multiple-of-N boundary of the total
  // committed count publishes. A pure function of the committed total, so
  // striped and serialized sessions publish at identical points for
  // identical input.
  auto crosses_boundary = [this](uint64_t after, uint64_t batch) {
    uint64_t n = std::max<uint64_t>(options_.publish_every_votes, 1);
    return (after - batch) / n != after / n;
  };

  SessionMetrics& tm = Metrics();
  const bool timed = telemetry::Enabled();

  if (striped_) {
    // Write-ahead first: the batch is in the WAL (buffer or disk, per the
    // group-commit cadence) before a single vote is applied, so the log on
    // disk is always a superset of the applied state. A WAL failure rejects
    // the batch here. The WAL mutex is taken WITHOUT the session mutex on
    // this path — the checkpoint quiesce drains the append->apply window
    // via the in-flight count instead (NoteApplied below).
    if (durability_ != nullptr) {
      Status logged = durability_->AppendBatch(votes);
      if (!logged.ok()) return logged;
    }
    // The cheap commit: stripe-local tally increments only, no session
    // mutex — N producers commit into this session concurrently, bounded
    // by stripe collisions rather than lock hand-off latency.
    const uint64_t commit_start = timed ? telemetry::NowNanos() : 0;
    metric_.CommitVotesConcurrent(votes);
    if (durability_ != nullptr) durability_->NoteApplied();
    uint64_t after = committed_votes_.fetch_add(votes.size(),
                                                std::memory_order_relaxed) +
                     votes.size();
    tm.batches->Increment();
    tm.votes->Add(votes.size());
    tm.batch_votes->Record(votes.size());
    if (timed) {
      const uint64_t commit_end = telemetry::NowNanos();
      tm.commit_ns->Record(commit_end - commit_start);
      flight_.Record(telemetry::SpanKind::kCommit, commit_start, commit_end,
                     votes.size());
    }
    switch (options_.cadence) {
      case PublishCadence::kEveryBatch:
        Publish();
        break;
      case PublishCadence::kEveryNVotes:
        if (crosses_boundary(after, votes.size())) {
          Publish();
        } else {
          tm.deferred->Increment();
        }
        break;
      case PublishCadence::kManual:
        tm.deferred->Increment();
        break;
    }
    if (checkpointable_) MaybeCheckpoint(after, votes.size());
    return Status::OK();
  }

  MutexLock lock(mutex_);
  // Serialized path: append under the session mutex (session -> WAL nests
  // in rank order), so during a checkpoint — which holds the session mutex
  // — there is never an appended-but-unapplied batch to wait for.
  if (durability_ != nullptr) {
    Status logged = durability_->AppendBatch(votes);
    if (!logged.ok()) return logged;
  }
  const uint64_t commit_start = timed ? telemetry::NowNanos() : 0;
  for (const crowd::VoteEvent& event : votes) {
    metric_.AddVote(event.task, event.worker, event.item,
                    event.vote == crowd::Vote::kDirty);
  }
  if (durability_ != nullptr) durability_->NoteApplied();
  uint64_t after = committed_votes_.fetch_add(votes.size(),
                                              std::memory_order_relaxed) +
                   votes.size();
  tm.batches->Increment();
  tm.votes->Add(votes.size());
  tm.batch_votes->Record(votes.size());
  if (timed) {
    const uint64_t commit_end = telemetry::NowNanos();
    tm.commit_ns->Record(commit_end - commit_start);
    flight_.Record(telemetry::SpanKind::kCommit, commit_start, commit_end,
                   votes.size());
  }
  switch (options_.cadence) {
    case PublishCadence::kEveryBatch:
      PublishInternalLocked();
      break;
    case PublishCadence::kEveryNVotes:
      if (crosses_boundary(after, votes.size())) {
        PublishInternalLocked();
      } else {
        tm.deferred->Increment();
      }
      break;
    case PublishCadence::kManual:
      tm.deferred->Increment();
      break;
  }
  if (checkpointable_) {
    const uint64_t n =
        std::max<uint64_t>(options_.checkpoint_every_votes, 1);
    if ((after - votes.size()) / n != after / n) (void)CheckpointLocked();
  }
  return Status::OK();
}

void EstimationSession::MaybeCheckpoint(uint64_t after, uint64_t batch) {
  const uint64_t n = std::max<uint64_t>(options_.checkpoint_every_votes, 1);
  if ((after - batch) / n == after / n) return;
  MutexLock lock(mutex_);
  (void)CheckpointLocked();
}

Status EstimationSession::CheckpointLocked() {
  Status status = durability_->CommitCheckpoint(
      [this](uint64_t generation) -> Result<crowd::CheckpointData> {
        // Cut the snapshot with committers paused: the WAL quiesce already
        // drained appended-but-unapplied batches, the reconcile pause stops
        // the striped committers mid-air (serialized sessions are quiet
        // under mutex_ by construction), and the fold brings every derived
        // aggregate current before it is serialized.
        crowd::ResponseLog::IngestPause pause =
            metric_.ReconcileForEstimates();
        return crowd::CheckpointFromLog(metric_.log(), generation);
      });
  if (!status.ok()) {
    // The batch is applied AND write-ahead logged, so failing to compact
    // the WAL into a snapshot loses nothing — recovery just replays a
    // longer tail. Log and serve on.
    DQM_LOG(Error) << "session '" << name_
                   << "': checkpoint failed: " << status.message();
  }
  return status;
}

void EstimationSession::Publish() {
  MutexLock lock(mutex_);
  PublishInternalLocked();
}

void EstimationSession::PublishInternalLocked() {
  const bool timed = telemetry::Enabled();
  const uint64_t publish_start = timed ? telemetry::NowNanos() : 0;
  if (striped_) {
    // Pause committers for the reconcile + report window: estimators read
    // the shared log directly, so the cut must hold still while the
    // pipeline runs. Committers blocked here resume the moment the pause
    // guard drops. (The pause/fold phase histograms are recorded inside
    // PauseAndReconcile, where the phases live.)
    crowd::ResponseLog::IngestPause pause = metric_.ReconcileForEstimates();
    if (timed) {
      flight_.Record(telemetry::SpanKind::kReconcile, publish_start,
                     telemetry::NowNanos(), metric_.num_votes());
    }
    PublishLocked();
  } else {
    PublishLocked();
  }
  if (timed) {
    const uint64_t publish_end = telemetry::NowNanos();
    Metrics().publish_ns->Record(publish_end - publish_start);
    flight_.Record(telemetry::SpanKind::kPublish, publish_start, publish_end,
                   version_);
  }
}

void EstimationSession::PublishLocked() {
  const bool timed = telemetry::Enabled();
  const uint64_t estimate_start = timed ? telemetry::NowNanos() : 0;
  ++version_;
  // Refresh the per-session scratch in place — after the first publish the
  // whole publish path (report, snapshot rows, seqlock store) touches no
  // heap. Names are deliberately not carried here: they are immutable per
  // session and the cell does not store them (see SnapshotInto).
  metric_.ReportInto(report_scratch_);
  Snapshot& next = publish_scratch_;
  next.version = version_;
  next.num_votes = report_scratch_.num_votes;
  next.num_items = report_scratch_.num_items;
  next.majority_count = report_scratch_.majority_count;
  next.nominal_count = report_scratch_.nominal_count;
  next.estimates.resize(report_scratch_.estimators.size());
  for (size_t i = 0; i < report_scratch_.estimators.size(); ++i) {
    const core::DataQualityMetric::EstimatorReport& row =
        report_scratch_.estimators[i];
    next.estimates[i].total_errors = row.total_errors;
    next.estimates[i].undetected_errors = row.undetected_errors;
    next.estimates[i].quality_score = row.quality_score;
  }
  next.estimated_total_errors = next.estimates.front().total_errors;
  next.estimated_undetected_errors = next.estimates.front().undetected_errors;
  next.quality_score = next.estimates.front().quality_score;
  snapshot_.Store(next);
  // Export the freshly published estimates as per-session×estimator gauges
  // — the ChungKK17 quality signal as a first-class time series. Relaxed
  // stores; off the commit hot path (publishes are already coalesced).
  for (size_t i = 0; i < next.estimates.size(); ++i) {
    quality_gauges_[i]->Set(next.estimates[i].quality_score);
    total_errors_gauges_[i]->Set(next.estimates[i].total_errors);
  }
  Metrics().publishes->Increment();
  if (timed) {
    const uint64_t estimate_end = telemetry::NowNanos();
    Metrics().estimate_ns->Record(estimate_end - estimate_start);
    flight_.Record(telemetry::SpanKind::kEstimate, estimate_start,
                   estimate_end, version_);
  }
}

Result<EstimationSession::RecoveryReport>
EstimationSession::RecoverFromDurability() {
  if (durability_ == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("session '%s' is not durable", name_.c_str()));
  }
  SessionDurability::RecoveryStats stats;
  {
    // Recover invokes the restore callback under wal_mutex_ (rank 250), so
    // the callback must not acquire the session mutex (rank 200) — that is
    // the inversion of the session -> WAL edge the commit/checkpoint paths
    // establish. Instead hold mutex_ across the whole Recover call: same
    // ascending edge, and it gives the serialized replay the exact
    // exclusion the serialized commit path has. The striped branch only
    // takes per-stripe locks (rank 300), still ascending.
    MutexLock lock(mutex_);
    auto restore_checkpoint =
        [this](const crowd::CheckpointData& data) -> Status {
      DQM_RETURN_NOT_OK(metric_.RestoreCheckpoint(data));
      committed_votes_.fetch_add(data.num_events, std::memory_order_relaxed);
      return Status::OK();
    };
    auto restore =
        [this](std::span<const crowd::VoteEvent> votes) -> Status {
      if (striped_) {
        metric_.CommitVotesConcurrent(votes);
      } else {
        for (const crowd::VoteEvent& event : votes) {
          metric_.AddVote(event.task, event.worker, event.item,
                          event.vote == crowd::Vote::kDirty);
        }
      }
      committed_votes_.fetch_add(votes.size(), std::memory_order_relaxed);
      return Status::OK();
    };
    Result<SessionDurability::RecoveryStats> recovered =
        durability_->Recover(num_items_, restore_checkpoint, restore);
    if (!recovered.ok()) return recovered.status();
    stats = *recovered;
  }
  // Recovery replays into the log without publishing; one publish at the
  // end brings the snapshot (and the exported quality gauges) current so
  // queries against the recovered session see the recovered estimates.
  Publish();
  RecoveryReport report;
  report.votes_restored = stats.checkpoint_votes + stats.replayed_votes;
  report.torn_records = stats.torn_records;
  report.had_checkpoint = stats.had_checkpoint;
  return report;
}

Status EstimationSession::FlushDurability() {
  if (durability_ == nullptr) return Status::OK();
  return durability_->Flush();
}

Result<crowd::CheckpointData> EstimationSession::ExportState() {
  // Same quiescing discipline as a checkpoint cut, minus the WAL protocol:
  // mutex_ stills the serialized path, the reconcile pause stills striped
  // committers, and CheckpointFromLog rejects panels whose state cannot be
  // rebuilt from compacted counts (SWITCH / kFullEvents).
  MutexLock lock(mutex_);
  crowd::ResponseLog::IngestPause pause = metric_.ReconcileForEstimates();
  return crowd::CheckpointFromLog(metric_.log(), /*wal_generation=*/1);
}

Status EstimationSession::RestoreState(const crowd::CheckpointData& data) {
  if (data.num_events == 0) return Status::OK();
  MutexLock lock(mutex_);
  if (committed_votes() != 0) {
    return Status::FailedPrecondition(StrFormat(
        "session '%s' already holds %llu votes; restore needs an empty "
        "session",
        name_.c_str(), static_cast<unsigned long long>(committed_votes())));
  }
  DQM_RETURN_NOT_OK(metric_.RestoreCheckpoint(data));
  committed_votes_.store(data.num_events, std::memory_order_relaxed);
  if (durability_ == nullptr) return Status::OK();
  // The restored state exists nowhere at this session's durable home yet.
  // One checkpoint puts it there, at the cost of the columns rather than
  // of a WAL record per restored vote.
  return CheckpointLocked();
}

size_t EstimationSession::RetainedBytes() const {
  // The session mutex excludes concurrent publishes (whose pause guard
  // holds every stripe lock — the log's RetainedBytes takes them one at a
  // time and must not nest inside the pause). Committers racing on the
  // striped path hold single stripe locks only, which the log read waits
  // out per stripe.
  MutexLock lock(mutex_);
  size_t bytes = metric_.log().RetainedBytes();
  // WAL buffer + replay scratch ride on the same accounting: durable
  // sessions retain them for the session's lifetime (session -> WAL nests
  // in rank order).
  if (durability_ != nullptr) bytes += durability_->RetainedBytes();
  return bytes;
}

Snapshot EstimationSession::snapshot() const {
  Snapshot snapshot;
  SnapshotInto(snapshot);
  return snapshot;
}

void EstimationSession::SnapshotInto(Snapshot& out) const {
  snapshot_.LoadInto(out);
  out.method_name = estimator_names_.front();
  for (size_t i = 0; i < out.estimates.size(); ++i) {
    out.estimates[i].name = estimator_names_[i];
  }
  // Durability health rides outside the seqlock cell: set it every read so
  // a reused `out` never carries a stale flag.
  if (durability_ != nullptr) {
    out.durability_degraded = durability_->degraded();
    out.dropped_durability_votes = durability_->dropped_durability_votes();
  } else {
    out.durability_degraded = false;
    out.dropped_durability_votes = 0;
  }
}

}  // namespace dqm::engine
