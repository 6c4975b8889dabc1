// Reproduces Figure 5 of the paper: the Address workload (1000 records, 90
// malformed, fair amounts of both false positives and false negatives).
//
// Expected shape (paper): VOTING barely improves for the first ~300 tasks
// (the two error types cancel); SWITCH overestimates early on (positive
// switch correction), then converges to the truth once workers start
// correcting the false positives and the negative switch estimates take
// over.

#include "figure_common.h"

int main() {
  dqm::bench::FigureSpec spec;
  spec.title = "Figure 5 — Address";
  spec.scenario = dqm::core::AddressScenario();
  spec.num_tasks = 1600;
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
  return dqm::bench::WriteBenchArtifact("fig5_address") ? 0 : 1;
}
