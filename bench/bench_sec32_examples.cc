// Regenerates the two worked examples of Section 3.2.1: the Chao92
// estimate with and without false positives (the singleton-error
// entanglement).
//
// Paper numbers: Example 1 (no FPs): cnominal ~83, n+ ~180, f1 ~30,
// remaining estimate ~16.6 — "almost a perfect estimate". Example 2
// (1% FPs): ~19 wrongly marked duplicates push f1 to ~46, n+ to ~208, and
// the remaining estimate to ~131 — overestimating by more than 30%.

#include <cstdio>

#include "core/experiment.h"
#include "core/scenario.h"
#include "estimators/chao92.h"
#include "figure_common.h"

namespace {

void RunExample(const char* title, const char* tag, double fp_rate,
                uint64_t seed, dqm::bench::BenchJsonWriter& json) {
  // 1000 critical pairs, 100 duplicates, 20 pairs per task, detection rate
  // 0.9 (fn = 0.1), 100 tasks.
  dqm::core::Scenario scenario =
      dqm::core::SimulationScenario(fp_rate, 0.1, 20);
  dqm::core::SimulatedRun run = dqm::core::SimulateScenario(scenario, 100, seed);
  dqm::estimators::Chao92Estimator chao(scenario.num_items,
                                        /*skew_correction=*/false);
  for (const dqm::crowd::VoteEvent& event : run.log.events()) {
    chao.Observe(event);
  }
  size_t nominal = run.log.NominalCount();
  std::printf("%s\n", title);
  std::printf("  c_nominal = %zu unique marked errors\n", nominal);
  std::printf("  n+        = %llu positive votes\n",
              static_cast<unsigned long long>(run.log.total_positive_votes()));
  std::printf("  f1        = %llu singletons\n",
              static_cast<unsigned long long>(
                  chao.f_statistics().singletons()));
  std::printf("  D_hat     = %.1f total (remaining = %.1f)\n",
              chao.Estimate(),
              chao.Estimate() - static_cast<double>(nominal));
  std::printf("  truth     = 100 duplicates\n\n");
  json.AddResult(tag,
                 {{"c_nominal", static_cast<double>(nominal)},
                  {"n_positive",
                   static_cast<double>(run.log.total_positive_votes())},
                  {"f1", static_cast<double>(chao.f_statistics().singletons())},
                  {"estimate", chao.Estimate()},
                  {"truth", 100.0}});
}

}  // namespace

int main() {
  std::printf("== Section 3.2.1 worked examples ==\n");
  dqm::bench::BenchJsonWriter json("sec32_examples");
  RunExample("Example 1 — no false positives (paper: remaining ~16.6)",
             "example1_no_fp", 0.0, 7, json);
  RunExample("Example 2 — 1% false positives (paper: estimate ~131, >30% over)",
             "example2_fp", 0.01, 7, json);
  std::printf(
      "The false positives inflate both c and f1 (the singleton-error\n"
      "entanglement, Section 3.2.2), driving Chao92 far above the truth.\n");
  dqm::bench::EmitBenchJson(json);
  return dqm::bench::WriteBenchArtifact("sec32_examples") ? 0 : 1;
}
