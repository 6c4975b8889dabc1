// Scenario x estimator robustness grid over the hostile-crowd workload
// families.
//
// The paper evaluates its estimator panel under benign, fixed-quality
// crowds; this bench stresses every *registered* estimator against every
// requested workload family — drifting worker quality, adversarial cohorts,
// bursty arrival, heavy-tailed item difficulty — and reports each cell's
// final estimate and its absolute error against the workload's hidden
// ground truth. The grid is printed as an ASCII table (rows = workloads,
// columns = estimators) and emitted as a BenchJsonWriter line for
// downstream diffing: one JSON result row per workload with per-estimator
// `<spec>:total` / `<spec>:abs_err` metrics.
//
//   --workloads   comma-separated workload specs (default: all 5 families)
//   --methods     comma-separated estimator specs (default: every
//                 registered estimator, no params)
//   --smoke       shrink any workload that does not pin its own n/tasks to
//                 a tiny universe — the CI-sized run
//
// Robustness headline to look for: SWITCH and EM-VOTING stay near the true
// dirty count while the coverage-based family (CHAO92 etc.) inflates under
// adversarial false positives and drift.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/ascii.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "estimators/registry.h"
#include "figure_common.h"
#include "workload/workload.h"

namespace {

/// --smoke: bolt tiny sizes onto `spec` unless it already pins them, so an
/// explicitly sized workload is respected — including keeping the appended
/// dirty count inside a user-pinned universe.
std::string SmokeSpec(const std::string& spec) {
  dqm::Result<dqm::estimators::EstimatorSpec> parsed =
      dqm::estimators::ParseEstimatorSpec(spec);
  if (!parsed.ok()) return spec;  // let the registry report the error
  auto find = [&](const char* key) -> const std::string* {
    for (const auto& [k, v] : parsed->params) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  std::string smoke = spec;
  auto append = [&](const std::string& param) {
    smoke += smoke.find('?') == std::string::npos ? '?' : '&';
    smoke += param;
  };
  unsigned long long n = 150;
  if (const std::string* pinned_n = find("n")) {
    errno = 0;
    char* end = nullptr;
    n = std::strtoull(pinned_n->c_str(), &end, 10);
    if (errno != 0 || end == pinned_n->c_str() || *end != '\0') {
      return spec;  // malformed n: let the registry report it
    }
  } else {
    append("n=150");
  }
  if (find("dirty") == nullptr) {
    append(dqm::StrFormat("dirty=%llu", std::min<unsigned long long>(
                                            20, std::max<unsigned long long>(
                                                    n / 5, 1))));
  }
  if (find("tasks") == nullptr) append("tasks=60");
  return smoke;
}

}  // namespace

int main(int argc, char** argv) {
  dqm::FlagParser flags;
  std::string* workloads = flags.AddString(
      "workloads",
      "benign,drift,adversarial,burst,heavytail",
      "comma-separated workload specs (families: " +
          dqm::Join(dqm::workload::WorkloadRegistry::Global().Names(), ", ") +
          ")");
  std::string* methods = flags.AddString(
      "methods", "",
      "comma-separated estimator specs (default: every registered "
      "estimator)");
  bool* smoke = flags.AddBool(
      "smoke", false, "tiny sizes for CI (unless a spec pins n/dirty/tasks)");
  int64_t* seed = flags.AddInt("seed", 42, "workload generation seed");
  dqm::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    return status.code() == dqm::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  std::vector<std::string> workload_specs =
      dqm::estimators::SplitSpecList(*workloads);
  if (workload_specs.empty()) {
    std::fprintf(stderr, "--workloads must name at least one workload\n");
    return 1;
  }
  if (*smoke) {
    for (std::string& spec : workload_specs) spec = SmokeSpec(spec);
  }

  std::vector<std::string> estimator_specs;
  if (methods->empty()) {
    estimator_specs = dqm::estimators::EstimatorRegistry::Global().Names();
  } else {
    estimator_specs = dqm::estimators::SplitSpecList(*methods);
  }
  if (estimator_specs.empty()) {
    std::fprintf(stderr, "--methods must name at least one estimator\n");
    return 1;
  }

  dqm::core::ExperimentRunner::Config config;
  config.seed = static_cast<uint64_t>(*seed);
  dqm::core::ExperimentRunner runner(config);

  std::printf("== workload x estimator robustness matrix ==\n");
  std::printf("%zu workloads x %zu estimators, seed %lld%s\n",
              workload_specs.size(), estimator_specs.size(),
              static_cast<long long>(*seed), *smoke ? " (smoke sizes)" : "");

  std::vector<std::string> header = {"workload", "truth", "votes", "batches"};
  for (const std::string& spec : estimator_specs) header.push_back(spec);
  dqm::AsciiTable table(header);

  dqm::bench::BenchJsonWriter json("workload_matrix");
  std::vector<double> abs_error_sums(estimator_specs.size(), 0.0);
  for (const std::string& workload_spec : workload_specs) {
    dqm::Result<dqm::core::ExperimentRunner::WorkloadReport> report =
        runner.RunWorkload(workload_spec, estimator_specs);
    if (!report.ok()) {
      std::fprintf(stderr, "workload '%s': %s\n", workload_spec.c_str(),
                   report.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> cells = {
        report->workload_spec, dqm::StrFormat("%zu", report->num_dirty),
        dqm::StrFormat("%zu", report->num_votes),
        dqm::StrFormat("%zu", report->num_batches)};
    std::vector<std::pair<std::string, double>> metrics = {
        {"true_dirty", static_cast<double>(report->num_dirty)},
        {"votes", static_cast<double>(report->num_votes)},
        {"batches", static_cast<double>(report->num_batches)}};
    for (size_t e = 0; e < report->cells.size(); ++e) {
      const dqm::core::ExperimentRunner::WorkloadCell& cell =
          report->cells[e];
      cells.push_back(dqm::StrFormat("%.1f (err %.1f)", cell.total_errors,
                                     cell.abs_error));
      metrics.emplace_back(cell.spec + ":total", cell.total_errors);
      metrics.emplace_back(cell.spec + ":abs_err", cell.abs_error);
      abs_error_sums[e] += cell.abs_error;
    }
    table.AddRow(std::move(cells));
    json.AddResult(report->workload_spec, std::move(metrics));
  }
  std::fputs(table.Render().c_str(), stdout);

  std::printf("mean absolute error across workloads:\n");
  for (size_t e = 0; e < estimator_specs.size(); ++e) {
    std::printf("  %-20s %.1f\n", estimator_specs[e].c_str(),
                abs_error_sums[e] / static_cast<double>(workload_specs.size()));
  }
  dqm::bench::EmitBenchJson(json);
  return dqm::bench::WriteBenchArtifact("workload_matrix") ? 0 : 1;
}
