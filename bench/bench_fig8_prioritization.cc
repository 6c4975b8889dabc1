// Reproduces Figure 8 of the paper: sensitivity of the SWITCH estimate to
// the exploration rate epsilon when the prioritization heuristic is
// imperfect (Section 5.3).
//
// Workers see candidates from R_H with probability 1-epsilon and records
// from the complement R_H^c with probability epsilon. With a mostly
// accurate heuristic (10% of the true errors misplaced into R_H^c) small
// epsilon suffices; with a bad heuristic (50% misplaced) small epsilon
// leaves half the errors invisible and the error stays high until epsilon
// grows.

#include <cstdio>

#include "common/ascii.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "figure_common.h"

namespace {

double SwitchSrmse(double heuristic_error, double epsilon, size_t num_tasks,
                   size_t repetitions, uint64_t seed) {
  std::vector<double> estimates;
  double truth = 0.0;
  for (size_t rep = 0; rep < repetitions; ++rep) {
    dqm::core::Scenario scenario =
        dqm::core::PrioritizationScenario(heuristic_error, epsilon);
    truth = static_cast<double>(scenario.num_dirty());
    dqm::core::SimulatedRun run =
        dqm::core::SimulateScenario(scenario, num_tasks, seed + rep * 271);
    auto estimator = dqm::estimators::EstimatorRegistry::Global()
                         .Create("switch", scenario.num_items)
                         .value();
    for (const dqm::crowd::VoteEvent& event : run.log.events()) {
      estimator->Observe(event);
    }
    estimates.push_back(estimator->Estimate());
  }
  return dqm::ScaledRmse(estimates, truth);
}

}  // namespace

int main() {
  const size_t num_tasks = 400;
  const size_t repetitions = 10;
  std::printf("== Figure 8 — SWITCH accuracy vs epsilon ==\n");
  std::printf(
      "universe: 5000 records, |R_H|=1000, 100 true errors, "
      "%zu tasks x 15 items, r=%zu\n",
      num_tasks, repetitions);

  dqm::bench::BenchJsonWriter json("fig8_prioritization");
  const double epsilons[] = {0.0, 0.05, 0.1, 0.2, 0.3, 0.5};
  dqm::AsciiTable table(
      {"epsilon", "SRMSE (10% heuristic err)", "SRMSE (50% heuristic err)"});
  std::vector<double> x, good, bad;
  for (double epsilon : epsilons) {
    double srmse_good = SwitchSrmse(0.1, epsilon, num_tasks, repetitions, 81);
    double srmse_bad = SwitchSrmse(0.5, epsilon, num_tasks, repetitions, 83);
    table.AddRow({dqm::StrFormat("%.2f", epsilon),
                  dqm::StrFormat("%.2f", srmse_good),
                  dqm::StrFormat("%.2f", srmse_bad)});
    x.push_back(epsilon);
    good.push_back(srmse_good);
    bad.push_back(srmse_bad);
    json.AddResult(dqm::StrFormat("epsilon_%.2f", epsilon),
                   {{"srmse_good_heuristic", srmse_good},
                    {"srmse_bad_heuristic", srmse_bad}});
  }
  std::fputs(table.Render().c_str(), stdout);
  dqm::AsciiChart chart("Figure 8 — SRMSE vs epsilon", x);
  chart.AddSeries("10% heuristic error", good);
  chart.AddSeries("50% heuristic error", bad);
  std::fputs(chart.Render(72, 14).c_str(), stdout);
  std::printf(
      "shape check: with an accurate heuristic, small epsilon suffices; "
      "with an inaccurate one, epsilon=0 hides half the errors.\n");
  dqm::bench::EmitBenchJson(json);
  return dqm::bench::WriteBenchArtifact("fig8_prioritization") ? 0 : 1;
}
