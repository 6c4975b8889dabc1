// Reproduces Figure 6 of the paper: scaled error (SRMSE) of the estimators
//   (a) as a function of worker quality (precision), 50 tasks x 15 items;
//   (b) as a function of items per task (coverage), no false positives.
//
// Expected shape (paper): (a) Chao92 degrades sharply as precision drops
// (false positives appear); SWITCH follows VOTING closely and beats it at
// high precision; below ~50% precision nothing works (the majority
// assumption is violated). (b) without false positives Chao92 is excellent
// even at low coverage; SWITCH handles both regimes.

#include <cstdio>

#include "common/ascii.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "estimators/registry.h"
#include "figure_common.h"

namespace {

// SRMSE of each method at `num_tasks`, averaged over r fresh simulations.
// `methods` are registry spec strings.
std::vector<double> SrmseAt(const dqm::core::Scenario& scenario,
                            size_t num_tasks, uint64_t seed,
                            const std::vector<std::string>& methods, size_t r) {
  std::vector<dqm::estimators::EstimatorFactory> factories;
  for (const std::string& method : methods) {
    factories.push_back(
        dqm::estimators::EstimatorRegistry::Global().FactoryFor(method)
            .value());
  }
  std::vector<std::vector<double>> estimates(methods.size());
  for (size_t rep = 0; rep < r; ++rep) {
    dqm::core::SimulatedRun run =
        dqm::core::SimulateScenario(scenario, num_tasks, seed + rep * 131);
    for (size_t m = 0; m < methods.size(); ++m) {
      auto estimator = factories[m](scenario.num_items);
      for (const dqm::crowd::VoteEvent& event : run.log.events()) {
        estimator->Observe(event);
      }
      estimates[m].push_back(estimator->Estimate());
    }
  }
  std::vector<double> srmse;
  double truth = static_cast<double>(scenario.num_dirty());
  for (const auto& method_estimates : estimates) {
    srmse.push_back(dqm::ScaledRmse(method_estimates, truth));
  }
  return srmse;
}

}  // namespace

int main() {
  const std::vector<std::string> methods = {"chao92", "switch", "voting"};
  const std::vector<std::string> names = {"CHAO92", "SWITCH", "VOTING"};
  const size_t r = 10;
  dqm::bench::BenchJsonWriter json("fig6_sensitivity");

  // Panel (a): precision sweep at 50 tasks, 15 items per task. A worker
  // with precision p answers correctly with probability p on both classes.
  std::printf("== Figure 6(a) — SRMSE vs worker precision (50 tasks) ==\n");
  std::printf("sim: 1000 pairs, 100 duplicates, 15 items/task, r=%zu\n", r);
  {
    dqm::AsciiTable table({"precision", "CHAO92", "SWITCH", "VOTING"});
    std::vector<double> x;
    std::vector<std::vector<double>> ys(methods.size());
    for (double precision : {0.55, 0.65, 0.75, 0.85, 0.90, 0.95, 0.99, 1.0}) {
      dqm::core::Scenario scenario =
          dqm::core::SimulationScenario(1.0 - precision, 1.0 - precision, 15);
      std::vector<double> srmse = SrmseAt(scenario, 50, 61, methods, r);
      std::vector<std::string> row = {dqm::StrFormat("%.2f", precision)};
      for (size_t m = 0; m < srmse.size(); ++m) {
        row.push_back(dqm::StrFormat("%.2f", srmse[m]));
        ys[m].push_back(srmse[m]);
      }
      table.AddRow(std::move(row));
      x.push_back(precision);
      std::vector<std::pair<std::string, double>> metrics;
      for (size_t m = 0; m < srmse.size(); ++m) {
        metrics.emplace_back(names[m] + ":srmse", srmse[m]);
      }
      json.AddResult(dqm::StrFormat("precision_%.2f", precision),
                     std::move(metrics));
    }
    std::fputs(table.Render().c_str(), stdout);
    dqm::AsciiChart chart("Figure 6(a) — SRMSE vs precision", x);
    for (size_t m = 0; m < names.size(); ++m) chart.AddSeries(names[m], ys[m]);
    std::fputs(chart.Render(72, 14).c_str(), stdout);
  }

  // Panel (b): items-per-task sweep with false negatives only.
  std::printf(
      "\n== Figure 6(b) — SRMSE vs items per task (no false positives) ==\n");
  std::printf("sim: 1000 pairs, 100 duplicates, fn=0.10, 50 tasks, r=%zu\n",
              r);
  {
    dqm::AsciiTable table({"items/task", "CHAO92", "SWITCH", "VOTING"});
    std::vector<double> x;
    std::vector<std::vector<double>> ys(methods.size());
    for (size_t items : {5u, 10u, 20u, 40u, 60u, 80u, 100u}) {
      dqm::core::Scenario scenario =
          dqm::core::SimulationScenario(0.0, 0.10, items);
      std::vector<double> srmse = SrmseAt(scenario, 50, 67, methods, r);
      std::vector<std::string> row = {dqm::StrFormat("%zu", items)};
      for (size_t m = 0; m < srmse.size(); ++m) {
        row.push_back(dqm::StrFormat("%.2f", srmse[m]));
        ys[m].push_back(srmse[m]);
      }
      table.AddRow(std::move(row));
      x.push_back(static_cast<double>(items));
      std::vector<std::pair<std::string, double>> metrics;
      for (size_t m = 0; m < srmse.size(); ++m) {
        metrics.emplace_back(names[m] + ":srmse", srmse[m]);
      }
      json.AddResult(dqm::StrFormat("items_per_task_%zu", items),
                     std::move(metrics));
    }
    std::fputs(table.Render().c_str(), stdout);
    dqm::AsciiChart chart("Figure 6(b) — SRMSE vs items per task", x);
    for (size_t m = 0; m < names.size(); ++m) chart.AddSeries(names[m], ys[m]);
    std::fputs(chart.Render(72, 14).c_str(), stdout);
  }
  dqm::bench::EmitBenchJson(json);
  return dqm::bench::WriteBenchArtifact("fig6_sensitivity") ? 0 : 1;
}
