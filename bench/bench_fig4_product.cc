// Reproduces Figure 4 of the paper: the Product workload (13022 candidate
// pairs, 607 true duplicates, FN-heavy crowd — the harder matching task).
//
// Expected shape (paper): VOTING increases monotonically; SWITCH uses the
// remaining positive switch estimate and reaches the truth earliest; V-CHAO
// is reasonable early (< ~1200 tasks) but then overestimates because a
// fixed shift s=1 cannot absorb items where several workers erred; the
// negative switch estimate is unreliable (few observations) with large
// error bars.

#include "figure_common.h"

int main() {
  dqm::bench::FigureSpec spec;
  spec.title = "Figure 4 — Product";
  spec.scenario = dqm::core::ProductScenario();
  spec.num_tasks = 8000;
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
  return dqm::bench::WriteBenchArtifact("fig4_product") ? 0 : 1;
}
