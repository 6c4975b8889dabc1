// Reproduces Figure 7 of the paper: estimator robustness on the simulated
// workload (1000 candidate pairs, 100 duplicates, 15 items per task) under
// three worker-error regimes:
//   (a) false negatives only (10%)  — Chao92 performs best, all converge
//   (b) false positives only (1%)   — Chao92 overestimates badly;
//                                     V-CHAO and SWITCH stay accurate
//   (c) both (10% FN + 1% FP)       — SWITCH is the most robust
// ("SWITCH is the most robust estimator against all error types.")

#include "figure_common.h"

int main() {
  struct Panel {
    const char* name;
    double fp;
    double fn;
  };
  const Panel panels[] = {
      {"Figure 7(a) — 10% false negatives only", 0.0, 0.10},
      {"Figure 7(b) — 1% false positives only", 0.01, 0.0},
      {"Figure 7(c) — both error types", 0.01, 0.10},
  };
  for (const Panel& panel : panels) {
    dqm::bench::FigureSpec spec;
    spec.title = panel.name;
    spec.scenario = dqm::core::SimulationScenario(panel.fp, panel.fn, 15);
    spec.num_tasks = 800;
    spec.permutations = 10;
    spec.seed = 7117;
    spec.methods = {
        {"CHAO92", "chao92"},
        {"V-CHAO", "vchao92"},
        {"SWITCH", "switch"},
        {"VOTING", "voting"},
    };
    dqm::bench::RunTotalErrorFigure(spec);
  }
  return dqm::bench::WriteBenchArtifact("fig7_robustness") ? 0 : 1;
}
