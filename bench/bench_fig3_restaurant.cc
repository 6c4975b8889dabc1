// Reproduces Figure 3 of the paper: total error estimation plus positive
// and negative remaining-switch estimation on the Restaurant workload
// (1264 candidate pairs, 12 true duplicates, FP-heavy crowd).
//
// Expected shape (paper): VOTING decreases monotonically toward the truth;
// SWITCH overestimates briefly, then traces the ground truth using the
// negative switch estimates; V-CHAO converges more slowly from above;
// EXTRAPOL has a wide band. SWITCH should be near the truth well before
// the SCM task budget.

#include "figure_common.h"

int main() {
  dqm::bench::FigureSpec spec;
  spec.title = "Figure 3 — Restaurant";
  spec.scenario = dqm::core::RestaurantScenario();
  spec.num_tasks = 1200;
  spec.permutations = 10;
  spec.seed = 2017;
  spec.methods = {
      {"SWITCH", "switch"},
      {"V-CHAO", "vchao92"},
      {"VOTING", "voting"},
  };
  spec.extrapol_fraction = 0.05;
  spec.show_scm = true;
  dqm::bench::RunTotalErrorFigure(spec);
  dqm::bench::RunSwitchPanels(spec);
  return dqm::bench::WriteBenchArtifact("fig3_restaurant") ? 0 : 1;
}
