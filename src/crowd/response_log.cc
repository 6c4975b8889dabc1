#include "crowd/response_log.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "crowd/wal.h"
#include "telemetry/metric_names.h"

namespace dqm::crowd {

namespace {

/// splitmix64 finalizer — cheap, well-mixed hash for the packed pair key.
inline uint64_t MixPair(uint32_t worker, uint32_t item) {
  uint64_t x = (static_cast<uint64_t>(worker) << 32) | item;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Smallest item count one stripe may own: a full cache line of uint32
/// tally counters. The tally columns are cache-line-aligned at their base
/// (CacheAlignedAllocator), so stripes own fully disjoint lines of the
/// shared positive_/total_ columns and neighboring committers never
/// false-share.
constexpr size_t kStripeGranuleItems = kCacheLineBytes / sizeof(uint32_t);

}  // namespace

void CompactedVoteStore::Add(uint32_t worker, uint32_t item, Vote vote) {
  size_t slot = FindOrInsertSlot(worker, item);
  if (vote == Vote::kDirty) {
    ++dirty_[slot];
  } else {
    ++clean_[slot];
  }
}

void CompactedVoteStore::AddCounts(uint32_t worker, uint32_t item,
                                   uint32_t dirty, uint32_t clean) {
  size_t slot = FindOrInsertSlot(worker, item);
  dirty_[slot] += dirty;
  clean_[slot] += clean;
}

void CompactedVoteStore::Clear() {
  workers_.clear();
  items_.clear();
  dirty_.clear();
  clean_.clear();
  std::fill(index_.begin(), index_.end(), kEmptySlot);
}

size_t CompactedVoteStore::MemoryBytes() const {
  return (workers_.capacity() + items_.capacity() + dirty_.capacity() +
          clean_.capacity() + index_.capacity()) *
         sizeof(uint32_t);
}

size_t CompactedVoteStore::FindOrInsertSlot(uint32_t worker, uint32_t item) {
  // Grow at 3/4 load (and on first use) so probe chains stay short.
  if (index_.empty() || workers_.size() + 1 > index_.size() / 4 * 3) {
    GrowIndex();
  }
  const size_t mask = index_.size() - 1;
  size_t bucket = MixPair(worker, item) & mask;
  for (;;) {
    uint32_t slot = index_[bucket];
    if (slot == kEmptySlot) {
      uint32_t fresh = static_cast<uint32_t>(workers_.size());
      // invariant: slot ids stay below the kEmptySlot sentinel by sizing.
      DQM_CHECK_LT(fresh, kEmptySlot) << "compacted store slot id overflow";
      index_[bucket] = fresh;
      workers_.push_back(worker);
      items_.push_back(item);
      dirty_.push_back(0);
      clean_.push_back(0);
      return fresh;
    }
    if (workers_[slot] == worker && items_[slot] == item) return slot;
    bucket = (bucket + 1) & mask;
  }
}

void CompactedVoteStore::GrowIndex() {
  size_t capacity = index_.empty() ? 64 : index_.size() * 2;
  index_.assign(capacity, kEmptySlot);
  const size_t mask = capacity - 1;
  for (uint32_t slot = 0; slot < workers_.size(); ++slot) {
    size_t bucket = MixPair(workers_[slot], items_[slot]) & mask;
    while (index_[bucket] != kEmptySlot) bucket = (bucket + 1) & mask;
    index_[bucket] = slot;
  }
}

TallyScanResult ScanTallies(std::span<const uint32_t> positive,
                            std::span<const uint32_t> total) {
  // invariant: callers pass parallel columns of one tally table.
  DQM_CHECK_EQ(positive.size(), total.size());
  TallyScanResult result;
  const uint32_t* p = positive.data();
  const uint32_t* t = total.data();
  const size_t n = positive.size();
  // Branch-free flat loop over the two SoA columns: comparisons become
  // vector masks and the sums widening adds, so -O3 autovectorizes it.
  uint64_t nominal = 0, majority = 0, votes = 0, dirty = 0;
  for (size_t i = 0; i < n; ++i) {
    nominal += p[i] != 0;
    majority += 2u * p[i] > t[i];
    votes += t[i];
    dirty += p[i];
  }
  result.nominal_count = nominal;
  result.majority_count = majority;
  result.total_votes = votes;
  result.positive_votes = dirty;
  return result;
}

ResponseLog::ResponseLog(size_t num_items, RetentionPolicy retention)
    : retention_(retention), positive_(num_items, 0), total_(num_items, 0) {}

const std::vector<VoteEvent>& ResponseLog::events() const {
  // invariant: retention is fixed at construction; asking a counts-only
  // log for its event history is a caller programming error.
  DQM_CHECK(retention_ == RetentionPolicy::kFullEvents)
      << "events() requires RetentionPolicy::kFullEvents; this log retains "
         "only compacted counts";
  return events_;
}

bool ResponseLog::AppendCountMatrixBlocks(
    std::vector<const CompactedVoteStore*>& out) const {
  if (retention_ != RetentionPolicy::kCounts) return false;
  if (concurrent_ == nullptr) {
    out.push_back(&compacted_);
    return true;
  }
  // invariant: the consumer set was declared at pipeline construction.
  DQM_CHECK(concurrent_->maintain_pair_counts)
      << "this log was striped without pair-count maintenance; no "
         "response-matrix consumer was declared at pipeline construction";
  for (size_t s = 0; s < concurrent_->num_stripes; ++s) {
    out.push_back(&concurrent_->stripes[s].counts);
  }
  return true;
}

size_t ResponseLog::RetainedBytes() const {
  size_t bytes = events_.capacity() * sizeof(VoteEvent) +
                 compacted_.MemoryBytes() +
                 (positive_.capacity() + total_.capacity()) * sizeof(uint32_t);
  if (concurrent_ != nullptr) {
    // The striped-mode fixed overhead was previously dropped from this sum,
    // under-reporting every striped kCounts session: the control block, the
    // per-stripe metric-pointer table, and the stripe array itself all count.
    bytes += sizeof(ConcurrentState) +
             concurrent_->stripe_metrics.capacity() * sizeof(StripeMetrics) +
             concurrent_->num_stripes * sizeof(Stripe);
    for (size_t s = 0; s < concurrent_->num_stripes; ++s) {
      // The shard's vectors grow under the stripe lock; take it (one stripe
      // at a time, never nested) so a live committer can't resize them
      // mid-measurement. See the header contract: never call this while
      // holding the PauseAndReconcile guard.
      Stripe& stripe = concurrent_->stripes[s];
      MutexLock lock(stripe.mutex);
      bytes += stripe.counts.MemoryBytes();
    }
  }
  return bytes;
}

void ResponseLog::Append(const VoteEvent& event) {
  // invariant: the ingest mode is chosen once, before the first vote.
  DQM_CHECK(concurrent_ == nullptr)
      << "Append is the serialized path; this log ingests through "
         "AppendConcurrent";
  // invariant: item ids were validated against num_items upstream.
  DQM_CHECK_LT(event.item, positive_.size()) << "item id out of range";
  const size_t item = event.item;

  bool was_nominal = positive_[item] > 0;
  bool was_majority = MajorityDirty(item);

  ++total_[item];
  if (event.vote == Vote::kDirty) {
    ++positive_[item];
    ++total_positive_;
  }

  if (!was_nominal && positive_[item] > 0) ++nominal_count_;
  bool is_majority = MajorityDirty(item);
  if (!was_majority && is_majority) {
    ++majority_count_;
  } else if (was_majority && !is_majority) {
    --majority_count_;
  }

  num_tasks_ = std::max(num_tasks_, static_cast<size_t>(event.task) + 1);
  num_workers_ = std::max(num_workers_, static_cast<size_t>(event.worker) + 1);
  ++num_events_;
  if (retention_ == RetentionPolicy::kFullEvents) {
    events_.push_back(event);
  } else {
    compacted_.Add(event.worker, event.item, event.vote);
  }
}

void ResponseLog::RestoreCheckpoint(const CheckpointData& data) {
  // invariant: DataQualityMetric::RestoreCheckpoint vets retention and the
  // item universe before handing a checkpoint to the log.
  DQM_CHECK(retention_ == RetentionPolicy::kCounts)
      << "checkpoint restore requires kCounts retention";
  DQM_CHECK_EQ(data.num_items, positive_.size())
      << "checkpoint snapshots a different item universe";
  const bool pairs = data.variant == CheckpointData::Variant::kPairs;
  // invariant: a tally checkpoint has no (worker, item) pairs to rebuild a
  // pair-count store from; the pipeline refuses that pairing up front.
  DQM_CHECK(pairs || !maintains_pair_counts())
      << "a tally checkpoint cannot restore a log that keeps pair counts";
  // Committers are not running (caller contract); the stripe locks make the
  // per-stripe writes below visible to the next committer all the same.
  if (concurrent_ != nullptr) LockAllStripes();
  // invariant: restore rebuilds a freshly built pipeline; merging a
  // checkpoint into live state would double-count votes.
  DQM_CHECK(std::all_of(total_.begin(), total_.end(),
                        [](uint32_t votes) { return votes == 0; }))
      << "checkpoint restore needs an empty log";
  const bool striped = concurrent_ != nullptr;
  const uint32_t shift = striped ? concurrent_->stripe_shift : 0;
  if (pairs) {
    const bool keep_pairs = maintains_pair_counts();
    for (size_t slot = 0; slot < data.workers.size(); ++slot) {
      const uint32_t item = data.items[slot];
      // invariant: DecodeCheckpoint bounds every slot's item id.
      DQM_CHECK_LT(item, positive_.size()) << "item id out of range";
      positive_[item] += data.dirty[slot];
      total_[item] += data.dirty[slot] + data.clean[slot];
      if (!keep_pairs) continue;
      CompactedVoteStore& store =
          striped ? concurrent_->stripes[item >> shift].counts : compacted_;
      store.AddCounts(data.workers[slot], item, data.dirty[slot],
                      data.clean[slot]);
    }
  } else {
    // invariant: DecodeCheckpoint / CheckpointFromLog size tally columns to
    // the item universe.
    DQM_CHECK(data.positive.size() == positive_.size() &&
              data.total.size() == total_.size())
        << "tally columns do not span the item universe";
    std::copy(data.positive.begin(), data.positive.end(), positive_.begin());
    std::copy(data.total.begin(), data.total.end(), total_.begin());
  }
  if (striped) {
    // Seed each stripe's counters from its item range of the tally
    // columns, then let the ordinary reconcile fold derive the aggregates.
    // Bounds fold by max, so one stripe carrying them is enough.
    const size_t chunk = size_t{1} << shift;
    for (size_t s = 0; s < concurrent_->num_stripes; ++s) {
      Stripe& stripe = concurrent_->stripes[s];
      const size_t begin = std::min(s * chunk, total_.size());
      const size_t end = std::min(begin + chunk, total_.size());
      for (size_t item = begin; item < end; ++item) {
        stripe.num_events += total_[item];
        stripe.total_positive += positive_[item];
      }
    }
    concurrent_->stripes[0].task_bound = data.num_tasks;
    concurrent_->stripes[0].worker_bound = data.num_workers;
    ReconcileLocked();
    UnlockAllStripes();
  } else {
    TallyScanResult scan = ScanTallies(positive_, total_);
    num_events_ = scan.total_votes;
    total_positive_ = scan.positive_votes;
    nominal_count_ = static_cast<size_t>(scan.nominal_count);
    majority_count_ = static_cast<size_t>(scan.majority_count);
    num_tasks_ = data.num_tasks;
    num_workers_ = data.num_workers;
  }
  // invariant: DecodeCheckpoint / CheckpointFromLog keep num_events equal
  // to the column sums.
  DQM_CHECK_EQ(num_events_, data.num_events)
      << "checkpoint columns disagree with its vote count";
}

void ResponseLog::EnableConcurrentIngest(size_t num_stripes,
                                         bool maintain_pair_counts) {
  // invariant: striping is a construction-time wiring decision.
  DQM_CHECK(retention_ == RetentionPolicy::kCounts)
      << "concurrent ingest requires kCounts retention (there is no ordered "
         "event history to keep)";
  // invariant: striping cannot be retrofitted onto a live log.
  DQM_CHECK_EQ(num_events_, 0u)
      << "concurrent ingest must be enabled before any vote arrives";
  // invariant: EnableConcurrentIngest is called at most once.
  DQM_CHECK(concurrent_ == nullptr) << "concurrent ingest already enabled";

  auto state = std::make_unique<ConcurrentState>();
  // Stripe = a power-of-two item range of at least one cache line of tally
  // counters. stripe(item) is then a single shift — no division on the
  // commit path — and neighboring stripes write disjoint lines of the
  // shared positive_/total_ columns.
  size_t requested = std::max<size_t>(num_stripes, 1);
  size_t items = positive_.size();
  size_t chunk = kStripeGranuleItems;
  if (items > requested * chunk) {
    chunk = std::bit_ceil((items + requested - 1) / requested);
  }
  state->stripe_shift = static_cast<uint32_t>(std::countr_zero(chunk));
  state->num_stripes = std::max<size_t>((items + chunk - 1) / chunk, 1);
  state->maintain_pair_counts = maintain_pair_counts;
  state->stripes = std::make_unique<Stripe[]>(state->num_stripes);
  // Per-stripe lock counters, resolved once here so the reconcile-time fold
  // never takes the registry mutex per stripe stat. Stripe indices repeat
  // across logs, so these aggregate over every striped log in the process.
  state->stripe_metrics.resize(state->num_stripes);
  auto& registry = telemetry::MetricsRegistry::Global();
  for (size_t s = 0; s < state->num_stripes; ++s) {
    telemetry::LabelSet labels{{"stripe", StrFormat("%zu", s)}};
    StripeMetrics& m = state->stripe_metrics[s];
    m.acquisitions =
        registry.GetCounter(telemetry::metric_names::kStripeLockAcquisitionsTotal, labels);
    m.contended =
        registry.GetCounter(telemetry::metric_names::kStripeLockContendedTotal, labels);
    m.wait_ns = registry.GetCounter(telemetry::metric_names::kStripeLockWaitNsTotal, labels);
    m.hold_ns = registry.GetCounter(telemetry::metric_names::kStripeLockHoldNsTotal, labels);
  }
  concurrent_ = std::move(state);
}

size_t ResponseLog::num_stripes() const {
  return concurrent_ == nullptr ? 0 : concurrent_->num_stripes;
}

void ResponseLog::AppendConcurrent(std::span<const VoteEvent> events) {
  // invariant: the pipeline wires committers only to striped logs.
  DQM_CHECK(concurrent_ != nullptr)
      << "AppendConcurrent requires EnableConcurrentIngest";
  if (events.empty()) return;
  // invariant: batch sizes are bounded by the uint32 scatter index.
  DQM_CHECK_LE(events.size(), UINT32_MAX) << "batch too large to index";
  ConcurrentState& cs = *concurrent_;
  const uint32_t shift = cs.stripe_shift;
  const size_t num_stripes = cs.num_stripes;
  const bool pair_counts = cs.maintain_pair_counts;

  // Bucket the batch by stripe once, unlocked (a counting sort over event
  // indices), so each stripe's lock is held only for that stripe's own
  // events — the contention window a commit imposes on other producers is
  // proportional to its share of the stripe, not the whole batch. The
  // scratch is per producer thread and keeps its capacity, so steady-state
  // commits allocate nothing. The same pass validates every item id up
  // front: an id past the last stripe would otherwise match no bucket and
  // vanish silently instead of aborting like the serialized Append does.
  thread_local std::vector<uint32_t> bucket_ends;    // prefix sums, size S+1
  thread_local std::vector<uint32_t> bucket_cursor;  // scatter cursors
  thread_local std::vector<uint32_t> bucketed;       // event indices by stripe
  bucket_ends.assign(num_stripes + 1, 0);
  for (const VoteEvent& event : events) {
    // invariant: item ids were validated against num_items upstream.
    DQM_CHECK_LT(event.item, positive_.size()) << "item id out of range";
    ++bucket_ends[(event.item >> shift) + 1];
  }
  for (size_t s = 0; s < num_stripes; ++s) bucket_ends[s + 1] += bucket_ends[s];
  bucket_cursor.assign(bucket_ends.begin(), bucket_ends.end() - 1);
  bucketed.resize(events.size());
  for (uint32_t index = 0; index < events.size(); ++index) {
    bucketed[bucket_cursor[events[index].item >> shift]++] = index;
  }

  // Rotate the visit order per commit: concurrent committers start on
  // different stripes instead of convoying behind each other on stripe 0.
  // Committers hold one stripe lock at a time, so any visit order is
  // deadlock-free against other committers and the all-stripe publish lock.
  const size_t start = static_cast<size_t>(
      cs.rotation.fetch_add(1, std::memory_order_relaxed) % num_stripes);
  const bool timed = telemetry::Enabled();
  for (size_t k = 0; k < num_stripes; ++k) {
    size_t s = start + k;
    if (s >= num_stripes) s -= num_stripes;
    if (bucket_ends[s] == bucket_ends[s + 1]) continue;  // untouched stripe
    Stripe& stripe = cs.stripes[s];
    // Contention probe: try_lock first. The uncontended path costs the same
    // one lock operation it always did; only a blocked acquisition pays the
    // two clock reads that time the wait.
    bool contended = false;
    uint64_t wait_start = 0;
    if (!stripe.mutex.TryLock()) {
      contended = true;
      if (timed) wait_start = telemetry::NowNanos();
      stripe.mutex.Lock();
    }
    MutexLock lock(stripe.mutex, kAdoptLock);
    ++stripe.lock_acquisitions;
    if (contended) {
      ++stripe.lock_contended;
      if (timed) stripe.lock_wait_ns += telemetry::NowNanos() - wait_start;
    }
    // Hold-time sampling: 1 in 64 acquisitions, so the steady-state commit
    // pays no clock reads for it.
    const bool sample_hold = timed && (++stripe.hold_sample_tick & 63) == 0;
    const uint64_t hold_start = sample_hold ? telemetry::NowNanos() : 0;
    for (uint32_t b = bucket_ends[s]; b < bucket_ends[s + 1]; ++b) {
      const VoteEvent& event = events[bucketed[b]];
      // The cheap commit: flat counter increments only. Derived aggregates
      // (NOMINAL/VOTING, totals, bounds) are re-derived at publish time by
      // ReconcileLocked's vectorized scan.
      ++total_[event.item];
      if (event.vote == Vote::kDirty) {
        ++positive_[event.item];
        ++stripe.total_positive;
      }
      ++stripe.num_events;
      stripe.task_bound =
          std::max(stripe.task_bound, static_cast<uint64_t>(event.task) + 1);
      stripe.worker_bound = std::max(stripe.worker_bound,
                                     static_cast<uint64_t>(event.worker) + 1);
      if (pair_counts) stripe.counts.Add(event.worker, event.item, event.vote);
    }
    if (sample_hold) stripe.lock_hold_ns += telemetry::NowNanos() - hold_start;
  }
}

void ResponseLog::LockAllStripes() {
  // Ascending index = ascending address, the order the lock-order checker
  // requires of same-rank (stripe) locks.
  for (size_t s = 0; s < concurrent_->num_stripes; ++s) {
    concurrent_->stripes[s].mutex.Lock();
  }
}

void ResponseLog::UnlockAllStripes() {
  for (size_t s = concurrent_->num_stripes; s > 0; --s) {
    concurrent_->stripes[s - 1].mutex.Unlock();
  }
}

void ResponseLog::IngestPause::Release() {
  if (log_ != nullptr) {
    log_->UnlockAllStripes();
    log_ = nullptr;
  }
}

ResponseLog::IngestPause ResponseLog::PauseAndReconcile() {
  if (concurrent_ == nullptr) return IngestPause();
  // The publish-phase split the ISSUE's forensics need: "pause" is how long
  // acquiring every stripe lock stalled (committers in flight hold them),
  // "fold" is the reconcile scan itself.
  const bool timed = telemetry::Enabled();
  const uint64_t pause_start = timed ? telemetry::NowNanos() : 0;
  LockAllStripes();
  const uint64_t fold_start = timed ? telemetry::NowNanos() : 0;
  ReconcileLocked();
  if (timed) {
    static telemetry::Histogram* pause_hist =
        telemetry::MetricsRegistry::Global().GetHistogram(
            telemetry::metric_names::kPublishPauseNs);
    static telemetry::Histogram* fold_hist =
        telemetry::MetricsRegistry::Global().GetHistogram(
            telemetry::metric_names::kPublishFoldNs);
    const uint64_t fold_end = telemetry::NowNanos();
    const uint64_t pause_ns = fold_start - pause_start;
    pause_hist->Record(pause_ns);
    fold_hist->Record(fold_end - fold_start);
    if (pause_ns > 10'000'000) {
      DQM_LOG_EVERY_N(Warning, 100)
          << "publish paused committers " << pause_ns / 1'000'000
          << "ms acquiring " << concurrent_->num_stripes
          << " stripe locks (rate-limited 1/100)";
    }
  }
  return IngestPause(this);
}

void ResponseLog::ReconcileLocked() {
  uint64_t events = 0;
  uint64_t positive = 0;
  uint64_t task_bound = 0;
  uint64_t worker_bound = 0;
  uint64_t max_stripe_events = 0;
  for (size_t s = 0; s < concurrent_->num_stripes; ++s) {
    Stripe& stripe = concurrent_->stripes[s];
    events += stripe.num_events;
    positive += stripe.total_positive;
    task_bound = std::max(task_bound, stripe.task_bound);
    worker_bound = std::max(worker_bound, stripe.worker_bound);
    max_stripe_events = std::max(max_stripe_events, stripe.num_events);
    // Fold the lock telemetry deltas into the registry while we hold every
    // stripe anyway — the commit hot path never touches an atomic for them.
    const StripeMetrics& m = concurrent_->stripe_metrics[s];
    m.acquisitions->Add(stripe.lock_acquisitions);
    m.contended->Add(stripe.lock_contended);
    m.wait_ns->Add(stripe.lock_wait_ns);
    m.hold_ns->Add(stripe.lock_hold_ns);
    stripe.lock_acquisitions = 0;
    stripe.lock_contended = 0;
    stripe.lock_wait_ns = 0;
    stripe.lock_hold_ns = 0;
  }
  // Stripe imbalance: hottest stripe's share of a perfectly even spread
  // (1.0 = balanced, num_stripes = everything on one stripe). Last striped
  // log to reconcile wins the gauge — a process-wide "how skewed is ingest
  // right now" signal, not a per-log ledger.
  if (events > 0) {
    static telemetry::Gauge* imbalance =
        telemetry::MetricsRegistry::Global().GetGauge(
            telemetry::metric_names::kStripeImbalanceRatio);
    const double mean = static_cast<double>(events) /
                        static_cast<double>(concurrent_->num_stripes);
    imbalance->Set(static_cast<double>(max_stripe_events) / mean);
  }
  TallyScanResult scan = ScanTallies(positive_, total_);
  // invariant: the reconciled columns must agree with the stripe sums;
  // a mismatch means a committer raced the pause guard.
  DQM_CHECK_EQ(scan.total_votes, events);
  DQM_CHECK_EQ(scan.positive_votes, positive);
  num_events_ = events;
  total_positive_ = positive;
  nominal_count_ = static_cast<size_t>(scan.nominal_count);
  majority_count_ = static_cast<size_t>(scan.majority_count);
  num_tasks_ = task_bound;
  num_workers_ = worker_bound;
}

}  // namespace dqm::crowd
