// Telemetry tax: the same striped multi-producer ingest workload measured
// with the timed instrumentation enabled and disabled, interleaved rep by
// rep so machine drift hits both sides equally. The headline number is
// on/off votes-per-second (best rep each side); the CI floor demands the
// enabled side stays within 5% of disabled — the "compiled-in-always is
// affordable" proof behind shipping telemetry unconditionally.
//
//   $ ./bench_telemetry_overhead [--tasks=500] [--batch=512] [--writers=4]
//       [--batches_per_writer=200] [--reps=5] [--smoke]
//
// Counters and size histograms stay on in BOTH configurations (they are one
// relaxed fetch_add and are not gated); the toggle covers clock reads,
// latency histograms, and flight-recorder spans — the part of the
// instrumentation with real per-batch cost.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/ascii.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/scenario.h"
#include "engine/engine.h"
#include "figure_common.h"
#include "telemetry/metrics.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One measured rep: `writers` producers each commit `batches_per_writer`
/// batches into one striped session (order-independent tally panel,
/// coalesced cadence), then a final Publish; returns aggregate votes/sec.
/// The session is rebuilt per rep so on/off reps see identical state.
double MeasureRep(const std::vector<dqm::crowd::VoteEvent>& events,
                  size_t num_items, size_t batch_size, size_t writers,
                  size_t batches_per_writer) {
  dqm::engine::DqmEngine engine;
  const std::vector<std::string> panel = {"chao92", "voting", "nominal"};
  dqm::engine::SessionOptions options =
      dqm::engine::ParsePublishCadenceSpec("every_n_votes:4096").value();
  options.ingest_stripes = 8;
  std::shared_ptr<dqm::engine::EstimationSession> session =
      engine
          .OpenSession("hot", num_items, std::span<const std::string>(panel),
                       options)
          .value();
  DQM_CHECK(session->concurrent_ingest());

  dqm::ThreadPool pool(writers);
  Clock::time_point start = Clock::now();
  dqm::ParallelFor(&pool, writers, [&](size_t w) {
    for (size_t b = 0; b < batches_per_writer; ++b) {
      size_t global = w * batches_per_writer + b;
      size_t begin = (global * batch_size) % (events.size() - batch_size + 1);
      dqm::Status status = session->AddVotes(
          std::span<const dqm::crowd::VoteEvent>(&events[begin], batch_size));
      DQM_CHECK(status.ok()) << status.ToString();
    }
  });
  session->Publish();
  double seconds = SecondsSince(start);
  uint64_t total_votes = static_cast<uint64_t>(writers) * batches_per_writer *
                         batch_size;
  DQM_CHECK_EQ(session->snapshot().num_votes, total_votes);
  return static_cast<double>(total_votes) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  dqm::FlagParser flags;
  int64_t* tasks = flags.AddInt("tasks", 500, "simulated tasks in the log");
  int64_t* batch = flags.AddInt("batch", 512, "votes per ingest batch");
  int64_t* writers =
      flags.AddInt("writers", 4, "concurrent producers into the one session");
  int64_t* batches_per_writer =
      flags.AddInt("batches_per_writer", 200, "batches each producer commits");
  int64_t* reps = flags.AddInt(
      "reps", 5, "interleaved on/off measurement pairs (best rep wins)");
  bool* smoke =
      flags.AddBool("smoke", false, "CI sizes: 3 reps, 60 batches per writer");
  dqm::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    return status.code() == dqm::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  dqm::core::Scenario scenario = dqm::core::SimulationScenario(0.01, 0.1, 15);
  dqm::core::SimulatedRun run = dqm::core::SimulateScenario(
      scenario, static_cast<size_t>(*tasks), 7);
  const std::vector<dqm::crowd::VoteEvent>& events = run.log.events();
  DQM_CHECK(!events.empty());

  size_t batch_size = std::min(
      static_cast<size_t>(std::max<int64_t>(1, *batch)), events.size());
  size_t writer_count = static_cast<size_t>(std::max<int64_t>(1, *writers));
  size_t batches = static_cast<size_t>(std::max<int64_t>(1, *batches_per_writer));
  size_t rep_count = static_cast<size_t>(std::max<int64_t>(1, *reps));
  if (*smoke) {
    rep_count = std::min<size_t>(rep_count, 3);
    batches = std::min<size_t>(batches, 60);
  }

  std::printf("== telemetry overhead: %zu writers x %zu batches x %zu votes, "
              "%zu interleaved reps ==\n",
              writer_count, batches, batch_size, rep_count);

  // One untimed warmup (telemetry on) absorbs first-touch costs — page
  // faults, registry creation, thread-pool spin-up — before either side is
  // scored.
  dqm::telemetry::SetEnabled(true);
  MeasureRep(events, scenario.num_items, batch_size, writer_count, batches);

  dqm::AsciiTable table({"rep", "on votes/sec", "off votes/sec", "on/off"});
  double best_on = 0.0;
  double best_off = 0.0;
  for (size_t rep = 0; rep < rep_count; ++rep) {
    dqm::telemetry::SetEnabled(true);
    double on = MeasureRep(events, scenario.num_items, batch_size,
                           writer_count, batches);
    dqm::telemetry::SetEnabled(false);
    double off = MeasureRep(events, scenario.num_items, batch_size,
                            writer_count, batches);
    best_on = std::max(best_on, on);
    best_off = std::max(best_off, off);
    table.AddRow({dqm::StrFormat("%zu", rep + 1),
                  dqm::StrFormat("%.0f", on), dqm::StrFormat("%.0f", off),
                  dqm::StrFormat("%.3f", on / std::max(off, 1e-9))});
  }
  // Leave the process in the production configuration: the artifact's
  // telemetry block should reflect instrumented runs.
  dqm::telemetry::SetEnabled(true);
  std::fputs(table.Render().c_str(), stdout);

  double ratio = best_on / std::max(best_off, 1e-9);
  std::printf("best-of-%zu: on=%.0f votes/sec, off=%.0f votes/sec, "
              "on/off=%.3f\n",
              rep_count, best_on, best_off, ratio);

  dqm::bench::BenchJsonWriter json("telemetry_overhead");
  json.AddResult("overhead", {{"on_votes_per_sec", best_on},
                              {"off_votes_per_sec", best_off},
                              {"on_off_ratio", ratio}});
  dqm::bench::EmitBenchJson(json);
  return dqm::bench::WriteBenchArtifact("telemetry_overhead") ? 0 : 1;
}
