#include "stream.h"

#include <algorithm>

#include "common/logging.h"
#include "crowd/response_log.h"

namespace perfbench {

VoteStream::VoteStream(const dqm::core::Scenario& scenario,
                       const std::vector<bool>& truth, size_t tasks_per_pass,
                       uint64_t seed, size_t batch_votes, uint32_t lane,
                       uint32_t lanes)
    : batch_votes_(batch_votes),
      lane_(lane),
      lanes_(lanes),
      tasks_per_pass_(tasks_per_pass) {
  DQM_CHECK_GT(batch_votes, 0u);
  DQM_CHECK_LT(lane, lanes);
  crowd::CrowdSimulator simulator =
      dqm::core::MakeSimulator(scenario, truth, seed);
  crowd::ResponseLog log(scenario.num_items);
  simulator.RunTasks(log, tasks_per_pass);
  votes_ = log.events();
  votes_.resize(votes_.size() / batch_votes_ * batch_votes_);
  DQM_CHECK_GT(votes_.size(), 0u);
  pass_positive_.assign(scenario.num_items, 0);
  pass_total_.assign(scenario.num_items, 0);
  for (const crowd::VoteEvent& v : votes_) {
    pass_total_[v.item]++;
    pass_positive_[v.item] += v.vote == crowd::Vote::kDirty;
    workers_per_pass_ = std::max<uint64_t>(workers_per_pass_, v.worker + 1);
  }
}

void VoteStream::Batch(uint64_t index, std::span<crowd::VoteEvent> out) const {
  const uint64_t per_pass = batches_per_pass();
  const uint64_t pass = index / per_pass;
  const size_t first = static_cast<size_t>(index % per_pass) * batch_votes_;
  const uint64_t ring = 4 * workers_per_pass_;
  const uint64_t worker_base = lane_ * ring;
  const uint64_t worker_shift = (pass * workers_per_pass_) % ring;
  const uint64_t task_shift = pass * tasks_per_pass_;
  for (size_t i = 0; i < batch_votes_; ++i) {
    const crowd::VoteEvent& v = votes_[first + i];
    out[i].task =
        static_cast<uint32_t>((v.task + task_shift) * lanes_ + lane_);
    out[i].worker =
        static_cast<uint32_t>(worker_base + (v.worker + worker_shift) % ring);
    out[i].item = v.item;
    out[i].vote = v.vote;
  }
}

void VoteStream::AccumulateTallies(uint64_t batches,
                                   std::vector<uint64_t>& positive,
                                   std::vector<uint64_t>& total) const {
  const uint64_t full_passes = batches / batches_per_pass();
  const size_t prefix =
      static_cast<size_t>(batches % batches_per_pass()) * batch_votes_;
  for (size_t i = 0; i < pass_total_.size(); ++i) {
    positive[i] += full_passes * pass_positive_[i];
    total[i] += full_passes * pass_total_[i];
  }
  for (size_t i = 0; i < prefix; ++i) {
    total[votes_[i].item]++;
    positive[votes_[i].item] += votes_[i].vote == crowd::Vote::kDirty;
  }
}

ExpectedCounts CountsFromTallies(const std::vector<uint64_t>& positive,
                                 const std::vector<uint64_t>& total,
                                 const std::vector<bool>& truth) {
  ExpectedCounts counts;
  for (size_t i = 0; i < total.size(); ++i) {
    counts.votes += total[i];
    counts.majority += 2 * positive[i] > total[i];
    counts.nominal += positive[i] > 0;
    counts.dirty_seen += truth[i] && total[i] > 0;
  }
  return counts;
}

}  // namespace perfbench
