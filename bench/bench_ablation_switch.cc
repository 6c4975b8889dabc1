// Ablation of the SWITCH estimator's design choices (DESIGN.md):
//
//   * memory      — live-only fingerprint (default) vs keeping every frozen
//                   switch (the overestimation the paper's Section 4.2
//                   discusses: corrected FPs stay singletons forever)
//   * n mode      — all counted votes (paper's final choice) vs the species
//                   sum (the paper's first, discarded definition)
//   * tie policy  — Eq. (7)'s tie-as-switch vs strict majority changes
//   * correction  — dynamic one-sided (Section 4.3) vs always two-sided
//
// Each variant runs on the Figure 7(c) workload (1000 pairs, 100 dups,
// 1% FP + 10% FN) and on the FP-heavy Restaurant workload, where the
// differences are most visible.

#include <cstdio>

#include "common/ascii.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "estimators/switch_total.h"
#include "figure_common.h"

namespace {

using dqm::estimators::SwitchMemory;
using dqm::estimators::SwitchNMode;
using dqm::estimators::SwitchTotalErrorEstimator;
using dqm::estimators::TiePolicy;

struct Variant {
  std::string name;
  SwitchTotalErrorEstimator::Config config;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  Variant base{"default (live, all-votes, tie-switch, 1-sided)", {}};
  variants.push_back(base);

  Variant frozen = base;
  frozen.name = "memory: keep frozen switches";
  frozen.config.tracker.memory = SwitchMemory::kAllSwitches;
  variants.push_back(frozen);

  Variant species_sum = base;
  species_sum.name = "n: species sum (paper's first def)";
  species_sum.config.tracker.n_mode = SwitchNMode::kSpeciesSum;
  variants.push_back(species_sum);

  Variant strict = base;
  strict.name = "tie policy: strict majority";
  strict.config.tracker.tie_policy = TiePolicy::kStrictMajority;
  variants.push_back(strict);

  Variant two_sided = base;
  two_sided.name = "correction: two-sided";
  two_sided.config.two_sided = true;
  variants.push_back(two_sided);

  Variant no_skew = base;
  no_skew.name = "no gamma^2 skew correction";
  no_skew.config.tracker.skew_correction = false;
  variants.push_back(no_skew);
  return variants;
}

void RunWorkload(const char* title, const char* tag,
                 const dqm::core::Scenario& scenario, size_t num_tasks,
                 uint64_t seed, dqm::bench::BenchJsonWriter& json) {
  std::printf("-- %s (%zu tasks, truth=%zu) --\n", title, num_tasks,
              scenario.num_dirty());
  dqm::core::SimulatedRun run =
      dqm::core::SimulateScenario(scenario, num_tasks, seed);
  double truth = static_cast<double>(scenario.num_dirty());

  dqm::AsciiTable table({"variant", "mid-run est", "final est", "SRMSE"});
  for (const Variant& variant : Variants()) {
    // Average over task-order permutations, as in the paper.
    std::vector<double> finals, mids;
    for (uint64_t p = 0; p < 5; ++p) {
      dqm::crowd::ResponseLog permuted =
          dqm::core::PermuteTasks(run.log, seed + 100 + p);
      SwitchTotalErrorEstimator estimator(scenario.num_items, variant.config);
      std::vector<double> series =
          dqm::estimators::EstimateSeriesByTask(permuted, estimator);
      mids.push_back(series[series.size() / 2]);
      finals.push_back(series.back());
    }
    table.AddRow({variant.name, dqm::StrFormat("%.1f", dqm::Mean(mids)),
                  dqm::StrFormat("%.1f", dqm::Mean(finals)),
                  dqm::StrFormat("%.3f", dqm::ScaledRmse(finals, truth))});
    json.AddResult(std::string(tag) + ":" + variant.name,
                   {{"final_estimate", dqm::Mean(finals)},
                    {"srmse", dqm::ScaledRmse(finals, truth)},
                    {"truth", truth}});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== SWITCH design ablation ==\n");
  dqm::bench::BenchJsonWriter json("ablation_switch");
  RunWorkload("Figure 7(c) workload (1% FP + 10% FN)", "fig7c",
              dqm::core::SimulationScenario(0.01, 0.10, 15), 700, 4242, json);
  RunWorkload("Restaurant workload (FP-heavy)", "restaurant",
              dqm::core::RestaurantScenario(), 1000, 4242, json);
  std::printf(
      "reading: frozen-switch memory and the species-sum n keep a positive\n"
      "bias on FP-heavy data; the live-only default converges.\n");
  dqm::bench::EmitBenchJson(json);
  return dqm::bench::WriteBenchArtifact("ablation_switch") ? 0 : 1;
}
