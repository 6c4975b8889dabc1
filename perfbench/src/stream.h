// Seeded crowd-vote streams for the engine workloads, simulated from the
// paper's scenario presets (core/scenario.h).
//
// A stream is one "pass" of a scenario's tasks, simulated up front (before
// any timing) by core::MakeSimulator over a truth vector from
// core::BuildTruth. A producer that needs more votes than one pass replays
// the pass with shifted ids: pass p adds p * tasks_per_pass to every task id
// (so task ids keep increasing, as the order-sensitive SWITCH estimator
// requires) and moves every worker to a new id inside a ring of four
// passes' worth of worker ids (so a replay reads as new workers, while the
// per-(worker, item) state the sessions keep stays bounded). Shifting
// touches only ids: per-item tallies of a replayed pass equal the
// original's, which is what lets the benchmark predict the final tallies of
// any number of passes.

#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/scenario.h"
#include "crowd/vote.h"

namespace perfbench {

namespace crowd = dqm::crowd;

class VoteStream {
 public:
  /// Simulates `tasks_per_pass` tasks of `scenario` over `truth` with
  /// simulator seed `seed`. Producer lanes sharing one session interleave
  /// task ids (task * lanes + lane) and use disjoint worker ranges.
  VoteStream(const dqm::core::Scenario& scenario,
             const std::vector<bool>& truth, size_t tasks_per_pass,
             uint64_t seed, size_t batch_votes, uint32_t lane = 0,
             uint32_t lanes = 1);

  size_t batch_votes() const { return batch_votes_; }
  size_t batches_per_pass() const { return votes_.size() / batch_votes_; }
  size_t bytes() const { return votes_.size() * sizeof(crowd::VoteEvent); }
  /// The pass-0 votes (ids unshifted), for standalone layer probes.
  std::span<const crowd::VoteEvent> pass_votes() const { return votes_; }

  /// Writes batch `index` (counting across passes) into `out`, ids shifted
  /// for its pass. `out` must hold batch_votes() events.
  void Batch(uint64_t index, std::span<crowd::VoteEvent> out) const;

  /// Adds the per-item (dirty, total) counts of the first `batches` batches
  /// into the accumulators (sized num_items).
  void AccumulateTallies(uint64_t batches, std::vector<uint64_t>& positive,
                         std::vector<uint64_t>& total) const;

 private:
  size_t batch_votes_;
  uint32_t lane_;
  uint32_t lanes_;
  uint64_t tasks_per_pass_;
  uint64_t workers_per_pass_ = 0;
  /// One pass, cut to whole batches.
  std::vector<crowd::VoteEvent> votes_;
  std::vector<uint32_t> pass_positive_;
  std::vector<uint32_t> pass_total_;
};

/// Majority / nominal counts and the ingested truth implied by tallies.
struct ExpectedCounts {
  uint64_t votes = 0;
  size_t majority = 0;
  size_t nominal = 0;
  /// Dirty items that received at least one vote.
  size_t dirty_seen = 0;
};
ExpectedCounts CountsFromTallies(const std::vector<uint64_t>& positive,
                                 const std::vector<uint64_t>& total,
                                 const std::vector<bool>& truth);

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
