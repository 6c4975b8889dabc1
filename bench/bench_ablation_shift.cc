// Ablation of vChao92's shift parameter s (Section 3.3): the paper argues
// s is hard to tune a priori — too small leaves false-positive singletons
// in charge, too large destroys the predictive power. This bench sweeps s
// on the FP-heavy Restaurant workload and the mixed simulation workload.

#include <cstdio>

#include "common/ascii.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "estimators/chao92.h"
#include "figure_common.h"

namespace {

void RunSweep(const char* title, const char* tag,
              const dqm::core::Scenario& scenario, size_t num_tasks,
              uint64_t seed, dqm::bench::BenchJsonWriter& json) {
  std::printf("-- %s (%zu tasks, truth=%zu) --\n", title, num_tasks,
              scenario.num_dirty());
  dqm::core::SimulatedRun run =
      dqm::core::SimulateScenario(scenario, num_tasks, seed);
  double truth = static_cast<double>(scenario.num_dirty());
  dqm::AsciiTable table({"shift s", "mid-run est", "final est", "SRMSE"});
  for (uint32_t shift = 0; shift <= 4; ++shift) {
    std::vector<double> finals, mids;
    for (uint64_t p = 0; p < 5; ++p) {
      dqm::crowd::ResponseLog permuted =
          dqm::core::PermuteTasks(run.log, seed + p);
      dqm::estimators::VChao92Estimator estimator(scenario.num_items, shift);
      std::vector<double> series =
          dqm::estimators::EstimateSeriesByTask(permuted, estimator);
      mids.push_back(series[series.size() / 2]);
      finals.push_back(series.back());
    }
    table.AddRow({dqm::StrFormat("%u", shift),
                  dqm::StrFormat("%.1f", dqm::Mean(mids)),
                  dqm::StrFormat("%.1f", dqm::Mean(finals)),
                  dqm::StrFormat("%.3f", dqm::ScaledRmse(finals, truth))});
    json.AddResult(dqm::StrFormat("%s_shift%u", tag, shift),
                   {{"final_estimate", dqm::Mean(finals)},
                    {"srmse", dqm::ScaledRmse(finals, truth)},
                    {"truth", truth}});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== vChao92 shift-parameter ablation ==\n");
  dqm::bench::BenchJsonWriter json("ablation_shift");
  RunSweep("Restaurant workload (FP-heavy)", "restaurant",
           dqm::core::RestaurantScenario(), 1000, 333, json);
  RunSweep("Simulation workload (1% FP + 10% FN)", "simulation",
           dqm::core::SimulationScenario(0.01, 0.10, 15), 700, 333, json);
  std::printf(
      "reading: no single s wins on both workloads — the paper's argument\n"
      "for the parameter-free SWITCH estimator.\n");
  dqm::bench::EmitBenchJson(json);
  return dqm::bench::WriteBenchArtifact("ablation_shift") ? 0 : 1;
}
