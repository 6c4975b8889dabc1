// google-benchmark microbenchmarks: the per-vote cost of every estimator,
// the f-statistics bookkeeping, the text-similarity kernels, candidate
// generation, and the durable write path's CPU work (WAL record encoding
// and its CRC-32). These bound the library's overhead when monitoring a
// live crowdsourcing deployment (votes/second far beyond any crowd's rate).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "crowd/wal.h"
#include "dataset/restaurant_generator.h"
#include "engine/engine.h"
#include "engine/session.h"
#include "er/blocking.h"
#include "estimators/chao92.h"
#include "estimators/f_statistics.h"
#include "estimators/registry.h"
#include "estimators/switch_total.h"
#include "text/levenshtein.h"
#include "text/similarity.h"
#include "figure_common.h"

namespace {

// Shared simulated vote stream (1000 items, mixed noise).
const dqm::core::SimulatedRun& SharedRun() {
  static const auto& run = *new dqm::core::SimulatedRun(
      dqm::core::SimulateScenario(dqm::core::SimulationScenario(0.01, 0.1, 15),
                                  500, 7));
  return run;
}

void BM_EstimatorObserve(benchmark::State& state, const char* spec) {
  const auto& events = SharedRun().log.events();
  dqm::estimators::EstimatorFactory factory =
      dqm::estimators::EstimatorRegistry::Global().FactoryFor(spec).value();
  for (auto _ : state) {
    auto estimator = factory(1000);
    for (const auto& event : events) {
      estimator->Observe(event);
    }
    benchmark::DoNotOptimize(estimator->Estimate());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK_CAPTURE(BM_EstimatorObserve, voting, "voting");
BENCHMARK_CAPTURE(BM_EstimatorObserve, chao92, "chao92");
BENCHMARK_CAPTURE(BM_EstimatorObserve, vchao92, "vchao92");
BENCHMARK_CAPTURE(BM_EstimatorObserve, switch_est, "switch");

void BM_EstimateEveryTask(benchmark::State& state) {
  // Full estimate series (estimate after each of the 500 tasks).
  for (auto _ : state) {
    dqm::estimators::SwitchTotalErrorEstimator estimator(1000);
    std::vector<double> series =
        dqm::estimators::EstimateSeriesByTask(SharedRun().log, estimator);
    benchmark::DoNotOptimize(series.back());
  }
}
BENCHMARK(BM_EstimateEveryTask);

void BM_FStatisticsPromote(benchmark::State& state) {
  for (auto _ : state) {
    dqm::estimators::FStatistics f;
    for (int species = 0; species < 100; ++species) {
      f.AddSingleton();
    }
    for (uint32_t freq = 1; freq <= 50; ++freq) {
      for (int species = 0; species < 100; ++species) {
        f.Promote(freq);
      }
    }
    benchmark::DoNotOptimize(f.SumIiMinus1());
  }
}
BENCHMARK(BM_FStatisticsPromote);

void BM_Levenshtein(benchmark::State& state) {
  std::string a = "golden dragon cafe and grill house";
  std::string b = "goldan dragn cafe & grill hse";
  for (auto _ : state) {
    benchmark::DoNotOptimize(dqm::text::LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_BoundedLevenshtein(benchmark::State& state) {
  std::string a = "golden dragon cafe and grill house";
  std::string b = "completely different product name!";
  for (auto _ : state) {
    benchmark::DoNotOptimize(dqm::text::BoundedLevenshteinDistance(a, b, 3));
  }
}
BENCHMARK(BM_BoundedLevenshtein);

void BM_HybridSimilarity(benchmark::State& state) {
  std::string a = "Ritz-Carlton Cafe (buckhead)";
  std::string b = "Cafe Ritz-Carlton Buckhead";
  for (auto _ : state) {
    benchmark::DoNotOptimize(dqm::text::HybridSimilarity(a, b));
  }
}
BENCHMARK(BM_HybridSimilarity);

void BM_TokenBlocking(benchmark::State& state) {
  static const auto& dataset = *new dqm::dataset::ErDataset([] {
    dqm::dataset::RestaurantConfig config;
    config.num_entities = 400;
    config.num_duplicates = 50;
    auto result = dqm::dataset::GenerateRestaurantDataset(config);
    return std::move(result).value();
  }());
  dqm::er::CandidateGenerator generator(0.45, 0.95, "name");
  for (auto _ : state) {
    auto partition = generator.TokenBlocking(dataset.table);
    benchmark::DoNotOptimize(partition.value().candidates.size());
  }
}
BENCHMARK(BM_TokenBlocking);

void BM_PermuteTasks(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dqm::core::PermuteTasks(SharedRun().log, seed++).num_events());
  }
}
BENCHMARK(BM_PermuteTasks);

// Encode + CRC of one WAL record per 512-vote batch: what VoteWal::Append
// costs a durable commit before any write(2). The buffer is drained to the
// file every 64 batches with the timer paused, so only encoding is timed.
void BM_WalAppend(benchmark::State& state) {
  constexpr size_t kBatch = 512;
  constexpr int kBatchesPerDrain = 64;
  const auto& events = SharedRun().log.events();
  const std::span<const dqm::crowd::VoteEvent> batch(events.data(), kBatch);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dqm_bench_micro_wal_" + std::to_string(::getpid()) + ".log"))
          .string();
  {
    auto wal = dqm::crowd::VoteWal::Open(path);
    if (!wal.ok()) {
      state.SkipWithError(wal.status().ToString().c_str());
      return;
    }
    int batches = 0;
    for (auto _ : state) {
      wal->Append(batch);
      benchmark::ClobberMemory();
      if (++batches == kBatchesPerDrain) {
        state.PauseTiming();
        batches = 0;
        const bool drained = wal->WriteBuffered().ok() && wal->Reset(1).ok();
        state.ResumeTiming();
        if (!drained) {
          state.SkipWithError("WAL drain failed");
          break;
        }
      }
    }
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  // Seconds per (iteration x kBatch x 1e-9) = nanoseconds per vote.
  state.counters["ns_per_vote"] = benchmark::Counter(
      kBatch * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_WalAppend);

// Serialized session commit of 512-vote batches on the Product universe
// (13,022 items): EstimationSession::AddVotes with no publish and no WAL,
// so what is timed is validation plus the pipeline's per-vote state. A
// tally-only panel keeps per-item tallies and the positive fingerprint; an
// EM-VOTING panel also keeps the per-(worker, item) pair index. Each pass
// over the 8,192-task stream opens a fresh session (timer paused), so the
// index never outgrows one pass.
void BM_SessionCommit(benchmark::State& state, const char* panel) {
  constexpr size_t kBatch = 512;
  static const auto& run = *new dqm::core::SimulatedRun(
      dqm::core::SimulateScenario(dqm::core::ProductScenario(), 8192, 7));
  const auto& events = run.log.events();
  const size_t batches = events.size() / kBatch;
  const std::vector<std::string> specs =
      dqm::estimators::SplitSpecList(panel);
  dqm::engine::SessionOptions options;
  options.cadence = dqm::engine::PublishCadence::kManual;
  options.ingest_stripes = 1;  // pins the serialized commit path
  dqm::engine::DqmEngine engine;
  std::shared_ptr<dqm::engine::EstimationSession> session;
  size_t next = batches;
  for (auto _ : state) {
    if (next == batches) {
      state.PauseTiming();
      if (session != nullptr) (void)engine.CloseSession("s");
      auto opened = engine.OpenSession("s", run.log.num_items(), specs,
                                       options);
      session = opened.ok() ? *opened : nullptr;
      next = 0;
      state.ResumeTiming();
      if (session == nullptr) {
        state.SkipWithError(opened.status().ToString().c_str());
        break;
      }
    }
    const dqm::Status status = session->AddVotes(
        std::span<const dqm::crowd::VoteEvent>(&events[next * kBatch],
                                               kBatch));
    ++next;
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  state.counters["ns_per_vote"] = benchmark::Counter(
      kBatch * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_SessionCommit, tally, "chao92,vchao92?shift=2");
BENCHMARK_CAPTURE(BM_SessionCommit, em, "em-voting");

// CRC-32 over 64 KiB blocks (a group commit's record is ~53 KiB).
void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> block(64 << 10);
  std::mt19937 rng(1);
  for (uint8_t& byte : block) byte = static_cast<uint8_t>(rng());
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = dqm::crowd::Crc32(block.data(), block.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_Crc32);

}  // namespace

// Expanded BENCHMARK_MAIN() so the run also writes BENCH_micro.json (peak
// RSS + any queued lines) like every other bench binary; the per-benchmark
// numbers stay in google-benchmark's own --benchmark_format output.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return dqm::bench::WriteBenchArtifact("micro") ? 0 : 1;
}
