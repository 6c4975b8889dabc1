#ifndef DQM_CORE_DQM_H_
#define DQM_CORE_DQM_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "crowd/response_log.h"
#include "crowd/wal.h"
#include "estimators/estimator.h"
#include "estimators/registry.h"
#include "estimators/switch_total.h"

namespace dqm::core {

/// Estimation method selector for the facade.
///
/// DEPRECATED: the closed enum is kept for source compatibility only. New
/// code selects estimators by registry spec string ("switch?tau=50",
/// "vchao92?shift=2", ...) — see estimators/registry.h and
/// DataQualityMetric::Create — which also covers estimators this enum will
/// never learn about.
enum class Method {
  kSwitch,      // the paper's SWITCH estimator (default, most robust)
  kChao92,      // plain species estimation (fast convergence, FP-fragile)
  kGoodTuring,  // Chao92 without the skew correction
  kVChao92,     // shifted, majority-based Chao92
  kVoting,      // descriptive majority baseline
  kNominal,     // descriptive union baseline
};

/// The user-facing Data Quality Metric (the library's quickstart API).
///
/// Feed it worker votes as they arrive; ask at any time how many errors the
/// dataset is estimated to contain, how many are still undetected, and what
/// that means as a quality score. Example:
///
///     dqm::core::DataQualityMetric metric(num_records);
///     for (auto& vote : collected_votes)
///       metric.AddVote(vote.task, vote.worker, vote.record, vote.is_dirty);
///     double total = metric.EstimatedTotalErrors();
///     double undetected = metric.EstimatedUndetectedErrors();
///     double quality = metric.QualityScore();  // in [0, 1]
///
/// The metric is a single-pass, multi-estimator pipeline: any number of
/// registered estimators can be attached to the same vote stream and every
/// AddVote feeds all of them at once, so comparing the paper's estimator
/// panel costs one log replay instead of one per method. Descriptive
/// tallies and the positive-vote fingerprint are maintained once and shared
/// with every estimator that can use them:
///
///     auto metric = dqm::core::DataQualityMetric::Create(
///         num_records, {"switch", "chao92", "vchao92?shift=2", "voting"});
///     for (auto& vote : collected_votes)
///       metric->AddVote(vote.task, vote.worker, vote.record, vote.is_dirty);
///     dqm::core::QualityReport report = metric->Report();
///
/// The single-method accessors (EstimatedTotalErrors etc.) always answer for
/// the *primary* estimator — the first spec.
class DataQualityMetric {
 public:
  struct Options {
    Method method = Method::kSwitch;
    /// DEPRECATED: use a "vchao92?shift=<s>" spec instead. Still honored
    /// (only by kVChao92) while enum construction is supported.
    uint32_t vchao_shift = 1;
    /// DEPRECATED: use "switch?tau=...&flip_abs=..." spec params instead.
    /// Still honored (only by kSwitch) while enum construction is supported.
    estimators::SwitchTotalErrorEstimator::Config switch_config;
    /// Registry spec strings. When non-empty this wins over `method` and
    /// the deprecated per-method knobs above. Invalid specs abort via
    /// DQM_CHECK on this legacy constructor path — prefer Create(), which
    /// reports them as a Status.
    std::vector<std::string> specs;
    /// What the pipeline's internal log retains. kFullEvents (default)
    /// keeps arrival history available through log().events(); kCounts
    /// keeps only the compacted per-(worker, item) count matrix, bounding
    /// steady-state memory by #distinct pairs instead of #votes (the
    /// serving configuration — see engine::DqmEngine::OpenSession).
    crowd::RetentionPolicy retention = crowd::RetentionPolicy::kFullEvents;
  };

  /// `num_items` — size of the record (or candidate-pair) universe N.
  explicit DataQualityMetric(size_t num_items);
  DataQualityMetric(size_t num_items, const Options& options);

  /// Builds a multi-estimator pipeline from registry spec strings. The
  /// first spec is the primary estimator (the one the single-method
  /// accessors answer for). InvalidArgument when `specs` is empty or a
  /// param is malformed; NotFound for unregistered estimator names.
  static Result<DataQualityMetric> Create(
      size_t num_items, std::span<const std::string> specs,
      crowd::RetentionPolicy retention = crowd::RetentionPolicy::kFullEvents);
  /// Braced-list convenience: Create(n, {"switch", "chao92"}).
  static Result<DataQualityMetric> Create(
      size_t num_items, std::initializer_list<std::string> specs,
      crowd::RetentionPolicy retention = crowd::RetentionPolicy::kFullEvents);
  /// As above from a comma-separated list ("switch,chao92,voting").
  static Result<DataQualityMetric> Create(
      size_t num_items, const std::string& spec_list,
      crowd::RetentionPolicy retention = crowd::RetentionPolicy::kFullEvents);

  DataQualityMetric(DataQualityMetric&&) noexcept = default;
  DataQualityMetric& operator=(DataQualityMetric&&) noexcept = default;

  /// Records one worker vote and fans it out to every attached estimator.
  /// Tasks must arrive in non-decreasing task id order (append-only
  /// stream).
  void AddVote(uint32_t task, uint32_t worker, uint32_t item, bool is_dirty);

  // --- Concurrent ingest (the engine's striped commit path) --------------

  /// True when this pipeline can ingest from many producer threads at once:
  /// every attached estimator is a shared-stats scorer (no per-event
  /// Observe fan-out — order-sensitive estimators like SWITCH need one) and
  /// the log runs kCounts retention. Such panels are producer-order
  /// independent: their state is a function of the per-(worker, item) vote
  /// multiset, so tallies and tally-derived estimates from any commit
  /// interleaving are bit-identical to a serialized feed.
  bool SupportsConcurrentIngest() const;

  /// Switches the internal log to striped concurrent ingest (requires
  /// SupportsConcurrentIngest() and no votes yet; aborts otherwise). The
  /// per-(worker, item) matrix shards are maintained only when some
  /// attached estimator declared wants_pair_counts. After this, votes
  /// arrive through CommitVotesConcurrent — AddVote aborts.
  void EnableConcurrentIngest(size_t num_stripes);

  /// Thread-safe striped tally commit (enabled pipelines only). Item ids
  /// must be < num_items(); the caller validates (the engine session does).
  void CommitVotesConcurrent(std::span<const crowd::VoteEvent> votes);

  /// Pauses committers, reconciles the striped log, and rebuilds the shared
  /// positive-vote fingerprint from the reconciled tallies (one flat-array
  /// scan, bit-identical to incremental maintenance). Estimates / Report
  /// calls are valid while — and only while — the returned guard lives.
  /// No-op guard when concurrent ingest is not enabled.
  [[nodiscard]] crowd::ResponseLog::IngestPause ReconcileForEstimates();

  bool concurrent_ingest() const { return state_->log.concurrent_ingest(); }

  /// Rebuilds this pipeline's state from a checkpoint (crowd/wal.h) in
  /// O(#pairs + #items) instead of replaying one vote per counted vote: the
  /// log's columns, tallies and bounds are restored directly and the shared
  /// positive-vote fingerprint is re-derived from the restored tallies.
  /// The result is the state a serialized feed of the checkpointed votes
  /// would leave. An empty checkpoint is a no-op. Call on a freshly built
  /// pipeline with no committer running. FailedPrecondition when the panel
  /// has an order-sensitive (observing) estimator such as SWITCH — a
  /// checkpoint holds no arrival order for it — when the log retains full
  /// events, when the pipeline already holds votes, or when a tally-only
  /// checkpoint meets a log that keeps pair counts; InvalidArgument when
  /// the checkpoint snapshots a different item universe.
  Status RestoreCheckpoint(const crowd::CheckpointData& data);

  /// Estimated total number of dirty items |R_dirty| under the primary
  /// estimator.
  double EstimatedTotalErrors() const;

  /// Estimated errors not yet reflected in the current majority consensus:
  /// max(EstimatedTotalErrors() - MajorityCount(), 0). The "how many errors
  /// would more workers still find" number.
  double EstimatedUndetectedErrors() const;

  /// Quality score in [0, 1]: fraction of records whose current consensus
  /// label is believed correct, 1 - undetected/N.
  double QualityScore() const;

  /// One row per attached estimator plus the shared descriptive counts —
  /// the same numbers N independent single-method replays would produce,
  /// from one pass over the stream.
  struct EstimatorReport {
    /// Display name ("SWITCH", "CHAO92", ...).
    std::string name;
    /// The spec string the estimator was built from.
    std::string spec;
    double total_errors = 0.0;
    double undetected_errors = 0.0;
    double quality_score = 1.0;
  };
  struct QualityReport {
    uint64_t num_votes = 0;
    size_t num_items = 0;
    size_t majority_count = 0;
    size_t nominal_count = 0;
    /// Rows in spec order; row 0 is the primary estimator.
    std::vector<EstimatorReport> estimators;
  };
  QualityReport Report() const;

  /// Allocation-free form of Report() for hot publish paths: refreshes the
  /// numeric fields of `report` in place, reusing its row storage. The row
  /// names/specs are (re)written only when `report` does not already carry
  /// one row per attached estimator — pass the same QualityReport object to
  /// the same metric every call (the engine's per-session scratch pattern);
  /// a report previously filled by a *different* metric must be reset to
  /// `{}` first.
  void ReportInto(QualityReport& report) const;

  /// Number of attached estimators (>= 1).
  size_t num_estimators() const { return rows_.size(); }

  /// Display names in spec order (index 0 = primary).
  std::vector<std::string> estimator_names() const;

  /// Descriptive counts from the underlying log.
  size_t MajorityCount() const { return state_->log.MajorityCount(); }
  size_t NominalCount() const { return state_->log.NominalCount(); }
  size_t num_votes() const { return state_->log.num_events(); }
  size_t num_items() const { return state_->log.num_items(); }

  /// The underlying log (e.g., for re-analysis with other estimators).
  const crowd::ResponseLog& log() const { return state_->log; }

  /// Name of the primary estimator.
  std::string_view method_name() const {
    return rows_.front().estimator->name();
  }

 private:
  struct PrivateTag {};
  /// Heap-pinned pipeline state: estimators hold pointers into it, so the
  /// metric object itself stays cheaply movable.
  struct PipelineState {
    PipelineState(size_t num_items, crowd::RetentionPolicy retention)
        : log(num_items, retention) {}
    crowd::ResponseLog log;
    /// Fingerprint of dirty votes per item, maintained iff some attached
    /// estimator wants it (see EstimatorRegistry::Entry).
    estimators::FStatistics positive_f;
    bool maintain_positive_f = false;
    /// Some attached estimator reads the response matrix (EM-VOTING); the
    /// striped ingest path maintains the matrix shards iff set.
    bool need_pair_counts = false;
    estimators::SharedVoteStats shared;
  };
  struct Row {
    std::string spec;
    std::unique_ptr<estimators::TotalErrorEstimator> estimator;
  };

  DataQualityMetric(size_t num_items, crowd::RetentionPolicy retention,
                    PrivateTag);

  /// Shared by Create and the legacy spec-carrying Options path.
  Status AttachSpecs(std::span<const std::string> specs);

  std::unique_ptr<PipelineState> state_;
  std::vector<Row> rows_;
  /// Estimators whose needs_observe() is true, in row order — the per-event
  /// fan-out list (shared-state scorers are skipped entirely).
  std::vector<estimators::TotalErrorEstimator*> observing_;
};

/// Builds a factory for any Method, usable with the ExperimentRunner.
/// DEPRECATED: use EstimatorRegistry::Global().FactoryFor(spec).
estimators::EstimatorFactory MakeEstimatorFactory(Method method,
                                                  uint32_t vchao_shift = 1);

/// Canonical display name for a method ("SWITCH", "CHAO92", ...).
std::string_view MethodName(Method method);

/// The registry spec string equivalent to a legacy Method value
/// ("switch", "vchao92?shift=2", ...) — the migration bridge from the enum.
std::string MethodSpec(Method method, uint32_t vchao_shift = 1);

}  // namespace dqm::core

#endif  // DQM_CORE_DQM_H_
