// Reproduces Figure 2 of the paper: why the EXTRAPOL baseline fails.
//
//   (a) Four independent, oracle-cleaned 2% samples of the full restaurant
//       pair space (858 records -> 367,653 pairs, 106 duplicates): the
//       extrapolated totals scatter wildly around the truth because rare
//       errors make small samples unrepresentative.
//   (b) A 100-pair sample of the 1264 candidate pairs cleaned by a growing
//       number of fallible (FP-heavy) workers with majority labels: the
//       estimate shifts as earlier false positives are corrected — even
//       "cleaning the sample harder" does not yield a stable estimate.

#include <cstdio>

#include "common/ascii.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/scenario.h"
#include "crowd/response_log.h"
#include "crowd/worker.h"
#include "er/pair.h"
#include "estimators/extrapolation.h"
#include "figure_common.h"

namespace {

void PanelA() {
  std::printf("== Figure 2(a) — oracle extrapolation from 2%% samples ==\n");
  const uint32_t num_records = 858;
  dqm::er::PairIndexer indexer(num_records);
  const uint64_t num_pairs = indexer.num_pairs();
  const size_t num_duplicates = 106;
  std::printf("pair space: %llu pairs, %zu true duplicates\n",
              static_cast<unsigned long long>(num_pairs), num_duplicates);

  // Hidden truth over the full pair space.
  dqm::Rng rng(20170202);
  std::vector<bool> truth(num_pairs, false);
  for (size_t index : rng.SampleIndices(num_pairs, num_duplicates)) {
    truth[index] = true;
  }

  auto sample_size = static_cast<size_t>(0.02 * static_cast<double>(num_pairs));
  dqm::AsciiTable table({"sample", "errors found", "extrapolated total"});
  for (int sample = 1; sample <= 4; ++sample) {
    double estimate =
        dqm::estimators::OracleExtrapolationTrial(truth, sample_size, rng);
    auto found = static_cast<size_t>(
        estimate * static_cast<double>(sample_size) /
            static_cast<double>(num_pairs) +
        0.5);
    table.AddRow({dqm::StrFormat("#%d (2%% = %zu pairs)", sample, sample_size),
                  dqm::StrFormat("%zu", found),
                  dqm::StrFormat("%.1f", estimate)});
  }
  table.AddRow({"ground truth", "-", dqm::StrFormat("%zu", num_duplicates)});
  std::fputs(table.Render().c_str(), stdout);

  dqm::Rng band_rng(555);
  dqm::estimators::ExtrapolationBand band =
      dqm::estimators::OracleExtrapolationBand(truth, 0.02, 50, band_rng);
  std::printf("over 50 samples: mean %.1f +/- %.1f (truth %zu)\n\n",
              band.mean, band.std_dev, num_duplicates);
}

void PanelB(dqm::bench::BenchJsonWriter& json) {
  std::printf(
      "== Figure 2(b) — extrapolation with more workers cleaning the "
      "sample ==\n");
  // 1264 candidates with 12 duplicates; a fixed random sample of 100 pairs
  // is reviewed by k workers each (FP-heavy crowd as on the real dataset).
  const size_t num_candidates = 1264;
  const size_t num_duplicates = 12;
  const size_t sample_size = 100;
  dqm::core::Scenario scenario = dqm::core::RestaurantScenario();

  dqm::AsciiTable table(
      {"workers", "sample#1", "sample#2", "sample#3", "sample#4", "mean"});
  std::vector<double> x;
  std::vector<double> mean_series;
  for (size_t workers : {1u, 2u, 3u, 5u, 8u, 12u, 16u, 25u}) {
    std::vector<std::string> row = {dqm::StrFormat("%zu", workers)};
    std::vector<double> estimates;
    for (uint64_t sample_id = 1; sample_id <= 4; ++sample_id) {
      dqm::Rng rng(sample_id * 7919);
      // The sample's hidden truth.
      std::vector<bool> truth(num_candidates, false);
      for (size_t index :
           rng.SampleIndices(num_candidates, num_duplicates)) {
        truth[index] = true;
      }
      std::vector<size_t> sample =
          rng.SampleIndices(num_candidates, sample_size);
      // k workers each review the whole sample; majority labels.
      dqm::crowd::WorkerPool pool(scenario.workers, dqm::Rng(sample_id * 31));
      std::vector<uint32_t> positive(sample_size, 0);
      for (size_t w = 0; w < workers; ++w) {
        dqm::crowd::WorkerProfile profile = pool.DrawWorker();
        for (size_t i = 0; i < sample_size; ++i) {
          if (profile.Answer(truth[sample[i]], rng) ==
              dqm::crowd::Vote::kDirty) {
            ++positive[i];
          }
        }
      }
      size_t errors_in_sample = 0;
      for (size_t i = 0; i < sample_size; ++i) {
        if (positive[i] * 2 > workers) ++errors_in_sample;
      }
      double estimate = dqm::estimators::ExtrapolateTotal(
          errors_in_sample, sample_size, num_candidates);
      estimates.push_back(estimate);
      row.push_back(dqm::StrFormat("%.1f", estimate));
    }
    row.push_back(dqm::StrFormat("%.1f", dqm::Mean(estimates)));
    table.AddRow(std::move(row));
    x.push_back(static_cast<double>(workers));
    mean_series.push_back(dqm::Mean(estimates));
    json.AddResult(dqm::StrFormat("panel_b_workers%zu", workers),
                   {{"mean_estimate", dqm::Mean(estimates)},
                    {"truth", static_cast<double>(num_duplicates)}});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf("ground truth: %zu duplicates among the %zu candidates\n",
              num_duplicates, num_candidates);
  dqm::AsciiChart chart("Figure 2(b) — mean extrapolated total vs workers", x);
  chart.AddSeries("EXTRAPOL mean", mean_series);
  chart.AddHorizontalLine("ground truth", static_cast<double>(num_duplicates));
  std::fputs(chart.Render(72, 12).c_str(), stdout);
}

}  // namespace

int main() {
  dqm::bench::BenchJsonWriter json("fig2_extrapolation");
  PanelA();
  PanelB(json);
  dqm::bench::EmitBenchJson(json);
  return dqm::bench::WriteBenchArtifact("fig2_extrapolation") ? 0 : 1;
}
