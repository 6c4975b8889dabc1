#ifndef DQM_CROWD_RESPONSE_LOG_H_
#define DQM_CROWD_RESPONSE_LOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/align.h"
#include "common/mutex.h"
#include "crowd/vote.h"
#include "telemetry/metrics.h"

namespace dqm::crowd {

struct CheckpointData;  // crowd/wal.h

/// Compacted columnar realization of the paper's response matrix `I`:
/// per-(worker, item) dirty/clean vote counts in flat parallel arrays, with
/// an open-addressed (worker, item) -> slot index so appending a vote is
/// O(1) amortized and never allocates except on table growth.
///
/// This is the state the matrix-based consumers (Dawid-Skene EM) actually
/// need: each EM sweep touches every distinct pair once, independent of how
/// many raw votes piled onto it, and steady-state memory is O(#distinct
/// pairs) instead of O(#votes). Slots are appended in first-arrival order,
/// so two stores fed the same vote stream — whether incrementally or by a
/// one-shot replay — are element-for-element identical, which is what keeps
/// count-based fits bit-reproducible across retention policies.
class CompactedVoteStore {
 public:
  CompactedVoteStore() = default;

  /// Folds one vote into its (worker, item) slot, creating it on first
  /// contact.
  void Add(uint32_t worker, uint32_t item, Vote vote);

  /// Folds `dirty` dirty and `clean` clean votes into the (worker, item)
  /// slot at once, creating it on first contact — the restore form of Add:
  /// one call per checkpoint slot, not one per counted vote. Feeding a
  /// store's slots back in slot order rebuilds it slot for slot.
  void AddCounts(uint32_t worker, uint32_t item, uint32_t dirty,
                 uint32_t clean);

  /// Forgets all pairs but keeps the allocated capacity — for reuse as fit
  /// scratch without reallocating.
  void Clear();

  /// Number of distinct (worker, item) pairs seen.
  size_t num_pairs() const { return workers_.size(); }

  /// Columnar views, all of length num_pairs(), indexed by slot in
  /// first-arrival order.
  const std::vector<uint32_t>& workers() const { return workers_; }
  const std::vector<uint32_t>& items() const { return items_; }
  const std::vector<uint32_t>& dirty_counts() const { return dirty_; }
  const std::vector<uint32_t>& clean_counts() const { return clean_; }

  /// Bytes of heap owned by the store (capacity, not size) — the number the
  /// retention-policy memory claims are made of.
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  size_t FindOrInsertSlot(uint32_t worker, uint32_t item);
  void GrowIndex();

  // Slot-major parallel arrays (the columnar matrix).
  std::vector<uint32_t> workers_;
  std::vector<uint32_t> items_;
  std::vector<uint32_t> dirty_;
  std::vector<uint32_t> clean_;
  // Open-addressed index over (worker, item): each cell holds a slot id or
  // kEmptySlot. Power-of-two sized, linear probing, grown at 3/4 load.
  std::vector<uint32_t> index_;
};

/// What a ResponseLog retains beyond the per-item tallies.
enum class RetentionPolicy {
  /// Every raw VoteEvent is kept in arrival order. Required by the replay
  /// consumers — PermuteTasks, log serialization, SWITCH diagnostics replays
  /// — and the historical default.
  kFullEvents,
  /// Only the compacted per-(worker, item) counts are kept: steady-state
  /// memory is O(#distinct pairs), not O(#votes). The serving default
  /// (engine sessions). events() is unavailable under this policy.
  kCounts,
};

/// Aggregates derivable from the per-item tally columns in one pass — the
/// publish-side scan the striped ingest path uses instead of maintaining
/// NOMINAL/VOTING transitions on every commit. The loop is branch-free over
/// two flat SoA columns, so the autovectorizer can chew through it.
struct TallyScanResult {
  uint64_t nominal_count = 0;    // #items with at least one dirty vote
  uint64_t majority_count = 0;   // #items with 2 * positive > total
  uint64_t total_votes = 0;      // sum of the total column
  uint64_t positive_votes = 0;   // sum of the positive column
};
TallyScanResult ScanTallies(std::span<const uint32_t> positive,
                            std::span<const uint32_t> total);

/// The ordered collection of worker votes: the concrete realization of the
/// paper's response matrix `I` (plus arrival history under kFullEvents).
///
/// Maintains per-item tallies and the NOMINAL / VOTING counts incrementally,
/// so appending an event is O(1) and estimators can be evaluated after every
/// task without rescanning.
///
/// ## Concurrent ingest (the striped commit path)
///
/// A kCounts log can additionally be switched into *concurrent ingest* mode
/// (EnableConcurrentIngest): the item universe is partitioned into
/// cache-line-aligned stripes, each with its own lock, per-stripe event /
/// positive counters, and (when a consumer needs the response matrix) its
/// own CompactedVoteStore shard. `AppendConcurrent` then commits batches
/// from any number of producer threads at once — a commit touches only the
/// stripes its items map to, and does nothing but bump flat tally counters,
/// so N producers scale until the stripes saturate. The derived aggregates
/// (NOMINAL/VOTING counts, vote totals, task/worker bounds) are *not*
/// maintained per vote in this mode; `PauseAndReconcile` blocks committers,
/// folds the stripe counters, and re-derives the aggregates with the
/// vectorized tally scan. Read accessors reflect the most recent reconcile
/// and may only race-free be called while the returned pause guard is held
/// (or while no committer is running). Tallies and counts reconciled this
/// way are bit-identical to a serialized Append of the same votes in any
/// order; compacted-matrix *slot order* depends on the commit interleaving,
/// which float-summing consumers (EM) must tolerate.
class ResponseLog {
 public:
  /// `num_items` = N, the size of the record (or pair) universe.
  explicit ResponseLog(size_t num_items,
                       RetentionPolicy retention = RetentionPolicy::kFullEvents);

  size_t num_items() const { return positive_.size(); }
  size_t num_events() const { return num_events_; }

  RetentionPolicy retention() const { return retention_; }

  /// Number of distinct tasks / workers seen so far (max id + 1).
  size_t num_tasks() const { return num_tasks_; }
  size_t num_workers() const { return num_workers_; }

  /// Appends one vote. `event.item` must be < num_items(). Serialized-path
  /// only: aborts once concurrent ingest is enabled (use AppendConcurrent).
  void Append(const VoteEvent& event);

  /// All events in arrival order. Only available under kFullEvents — a
  /// kCounts log has, by design, forgotten arrival history (aborts via
  /// DQM_CHECK).
  const std::vector<VoteEvent>& events() const;

  /// The compacted per-(worker, item) count matrix, maintained incrementally
  /// under kCounts; null under kFullEvents (matrix consumers rebuild it once
  /// per fit from events() — see DawidSkene::Workspace) and in concurrent
  /// ingest mode, where the matrix is sharded across stripes (consume it
  /// through AppendCountMatrixBlocks instead).
  const CompactedVoteStore* compacted() const {
    return retention_ == RetentionPolicy::kCounts && concurrent_ == nullptr
               ? &compacted_
               : nullptr;
  }

  /// True when this log maintains a per-(worker, item) count matrix a
  /// checkpoint can serialize: kCounts retention, minus striped logs that
  /// opted out of pair counts (tally-only panels). Selects the snapshot
  /// variant in crowd/wal.h's CheckpointFromLog.
  bool maintains_pair_counts() const {
    return retention_ == RetentionPolicy::kCounts &&
           (concurrent_ == nullptr || concurrent_->maintain_pair_counts);
  }

  /// Appends every live count-matrix block to `out`: the single compacted
  /// store under kCounts, one shard per stripe in concurrent ingest mode.
  /// Returns false under kFullEvents (no matrix is maintained; rebuild from
  /// events()). Aborts if concurrent ingest was enabled without pair-count
  /// maintenance — there is no matrix to consume then, by construction.
  // Reads every stripe's count shard without naming its lock: callers hold
  // the PauseAndReconcile guard (all stripe locks) or run quiescent — a
  // dynamic contract the analysis cannot express.
  bool AppendCountMatrixBlocks(std::vector<const CompactedVoteStore*>& out)
      const DQM_NO_THREAD_SAFETY_ANALYSIS;

  /// n_i^+ — votes marking `item` dirty.
  uint32_t positive_votes(size_t item) const { return positive_[item]; }
  /// n_i — total votes on `item`.
  uint32_t total_votes(size_t item) const { return total_[item]; }
  /// The full per-item tally columns (length num_items()) — the SoA inputs
  /// of the vectorized publish-side scans (ScanTallies,
  /// FStatistics::RebuildFromCounts).
  std::span<const uint32_t> positive_counts() const { return positive_; }
  std::span<const uint32_t> total_counts() const { return total_; }
  /// n^+ — total positive votes across items.
  uint64_t total_positive_votes() const { return total_positive_; }
  /// Total votes across items.
  uint64_t total_votes_all() const { return num_events_; }

  /// Rebuilds this log from a checkpoint (crowd/wal.h) in O(#pairs +
  /// #items): the inverse of CheckpointFromLog, without re-ingesting one
  /// vote per counted vote. A kPairs checkpoint refills the compacted
  /// store — on a striped log each slot goes to its item's stripe shard in
  /// checkpoint order, so every shard is rebuilt slot for slot — and both
  /// variants set the tally columns, the derived NOMINAL/VOTING counts
  /// (ScanTallies) and the task/worker bounds. The log must be an empty
  /// kCounts log with no committer running, of the checkpoint's item
  /// universe; a kTallies checkpoint additionally needs a log that keeps
  /// no pair counts. Aborts (DQM_CHECK) otherwise — the pipeline-level
  /// DataQualityMetric::RestoreCheckpoint turns the reachable cases into
  /// Status errors first.
  void RestoreCheckpoint(const CheckpointData& data)
      DQM_NO_THREAD_SAFETY_ANALYSIS;

  /// Majority label of `item`: dirty iff n_i^+ > n_i / 2 (strictly more
  /// dirty than clean votes; ties and unseen items default to clean, the
  /// paper's default label).
  bool MajorityDirty(size_t item) const {
    return positive_[item] * 2 > total_[item];
  }

  /// Approximate heap bytes retained for vote storage — the raw event
  /// vector under kFullEvents, the compacted matrix (including every
  /// concurrent-ingest stripe shard) under kCounts — plus the per-item
  /// tallies. The number the retention-policy memory comparison
  /// (bench_engine_throughput's long-session sweep) reports. In concurrent
  /// ingest mode each stripe's lock is taken (one at a time) while its
  /// shard is measured, so the read is safe against live committers; do NOT
  /// call it while holding the PauseAndReconcile guard (the stripe locks
  /// are not recursive).
  size_t RetainedBytes() const;

  /// NOMINAL(I): items with at least one dirty vote (Section 2.2.1).
  size_t NominalCount() const { return nominal_count_; }

  /// VOTING(I) = c_majority: items whose majority label is dirty
  /// (Section 2.2.2).
  size_t MajorityCount() const { return majority_count_; }

  // --- Concurrent ingest -------------------------------------------------

  /// Switches an empty kCounts log into concurrent ingest mode with at most
  /// `num_stripes` item-range stripes (clamped so every stripe spans at
  /// least one cache line of tally counters; at least one stripe always
  /// exists). `maintain_pair_counts` selects whether each stripe keeps its
  /// CompactedVoteStore shard — pipelines whose estimators never read the
  /// response matrix (tally-only panels) skip it, making a commit nothing
  /// but flat counter increments.
  void EnableConcurrentIngest(size_t num_stripes, bool maintain_pair_counts);

  bool concurrent_ingest() const { return concurrent_ != nullptr; }

  /// Stripes actually in use (0 when concurrent ingest is not enabled).
  size_t num_stripes() const;

  /// Commits a batch of votes; safe to call from any number of threads
  /// concurrently once EnableConcurrentIngest was called. Items must be
  /// < num_items(). Each stripe the batch touches is locked once; stripes
  /// are visited starting from a rotating offset so concurrent committers
  /// do not convoy behind each other on stripe 0.
  void AppendConcurrent(std::span<const VoteEvent> events);

  /// RAII guard blocking every AppendConcurrent committer while alive.
  class IngestPause {
   public:
    IngestPause() = default;
    IngestPause(IngestPause&& other) noexcept : log_(other.log_) {
      other.log_ = nullptr;
    }
    IngestPause& operator=(IngestPause&& other) noexcept {
      if (this != &other) {
        Release();
        log_ = other.log_;
        other.log_ = nullptr;
      }
      return *this;
    }
    IngestPause(const IngestPause&) = delete;
    IngestPause& operator=(const IngestPause&) = delete;
    ~IngestPause() { Release(); }

   private:
    friend class ResponseLog;
    explicit IngestPause(ResponseLog* log) : log_(log) {}
    void Release();
    ResponseLog* log_ = nullptr;
  };

  /// Locks every stripe (ascending — committers hold at most one stripe at
  /// a time, so this cannot deadlock), folds the per-stripe counters into
  /// the canonical aggregate fields, and re-derives NOMINAL/VOTING with the
  /// vectorized tally scan. While the returned guard is alive committers
  /// block and every read accessor is race-free and current — the publish
  /// window in which the estimator pipeline runs. No-op (empty guard) when
  /// concurrent ingest is not enabled.
  [[nodiscard]] IngestPause PauseAndReconcile();

 private:
  /// Per-stripe mutable ingest state, aligned so two producers committing
  /// into neighboring stripes never bounce a cache line between cores (the
  /// "small fix" half of this: the stripe lock and its counters share the
  /// stripe's line, not their neighbor's).
  struct alignas(kCacheLineBytes) Stripe {
    /// kStripe rank: stripes nest inside the session mutex (publish) and
    /// under each other only in ascending address order (LockAllStripes).
    Mutex mutex{LockRank::kStripe, "response-log-stripe"};
    CompactedVoteStore counts
        DQM_GUARDED_BY(mutex);  // shard; empty when pair counts are off
    uint64_t num_events DQM_GUARDED_BY(mutex) = 0;
    uint64_t total_positive DQM_GUARDED_BY(mutex) = 0;
    /// max task id + 1 committed to this stripe
    uint64_t task_bound DQM_GUARDED_BY(mutex) = 0;
    /// max worker id + 1
    uint64_t worker_bound DQM_GUARDED_BY(mutex) = 0;
    // Lock telemetry, guarded by `mutex` like everything else in the stripe
    // (plain fields — the commit hot path pays no extra atomics for them).
    // Deltas since the last reconcile; ReconcileLocked folds them into the
    // per-stripe registry counters and zeroes them.
    uint64_t lock_acquisitions DQM_GUARDED_BY(mutex) = 0;
    /// acquisitions that had to block
    uint64_t lock_contended DQM_GUARDED_BY(mutex) = 0;
    /// blocked time (contended path only)
    uint64_t lock_wait_ns DQM_GUARDED_BY(mutex) = 0;
    /// held time, sampled 1 in 64
    uint64_t lock_hold_ns DQM_GUARDED_BY(mutex) = 0;
    /// Acquisitions since EnableConcurrentIngest; picks the sampled 1 in 64.
    /// Never reset: a reconcile zeroes lock_acquisitions, and a publish
    /// cadence shorter than 64 acquisitions per stripe would then never
    /// reach a sample.
    uint64_t hold_sample_tick DQM_GUARDED_BY(mutex) = 0;
  };
  /// Per-stripe registry counters (created once at EnableConcurrentIngest,
  /// labeled stripe="<index>") the plain Stripe stats fold into.
  struct StripeMetrics {
    telemetry::Counter* acquisitions = nullptr;
    telemetry::Counter* contended = nullptr;
    telemetry::Counter* wait_ns = nullptr;
    telemetry::Counter* hold_ns = nullptr;
  };
  struct ConcurrentState {
    size_t num_stripes = 0;
    uint32_t stripe_shift = 0;  // stripe(item) = item >> stripe_shift
    bool maintain_pair_counts = true;
    std::atomic<uint64_t> rotation{0};
    std::unique_ptr<Stripe[]> stripes;
    std::vector<StripeMetrics> stripe_metrics;
  };

  // The next three work on the dynamically sized set of stripe locks (one
  // per stripe, acquired in a loop), which the thread-safety analysis cannot
  // model — the debug lock-order checker covers them at run time instead
  // (same-rank locks must be taken in ascending address order).
  void LockAllStripes() DQM_NO_THREAD_SAFETY_ANALYSIS;
  void UnlockAllStripes() DQM_NO_THREAD_SAFETY_ANALYSIS;
  /// Folds stripe counters into the canonical fields; caller holds every
  /// stripe lock (via LockAllStripes).
  void ReconcileLocked() DQM_NO_THREAD_SAFETY_ANALYSIS;

  /// Per-item tally column whose base address starts on a cache line: the
  /// stripe partition (multiples of kCacheLineBytes / sizeof(uint32_t)
  /// items) then maps stripes to fully disjoint lines, so concurrent
  /// committers on neighboring stripes never false-share.
  using TallyColumn = std::vector<uint32_t, CacheAlignedAllocator<uint32_t>>;

  RetentionPolicy retention_;
  std::vector<VoteEvent> events_;    // kFullEvents only
  CompactedVoteStore compacted_;     // kCounts, serialized mode only
  TallyColumn positive_;
  TallyColumn total_;
  uint64_t num_events_ = 0;
  uint64_t total_positive_ = 0;
  size_t nominal_count_ = 0;
  size_t majority_count_ = 0;
  size_t num_tasks_ = 0;
  size_t num_workers_ = 0;
  /// Heap-held so the log stays movable (a mutex is not).
  std::unique_ptr<ConcurrentState> concurrent_;
};

}  // namespace dqm::crowd

#endif  // DQM_CROWD_RESPONSE_LOG_H_
