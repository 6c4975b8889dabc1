// Engine-layer throughput: (a) multi-threaded batched vote ingest + query
// rates through DqmEngine — per estimator panel (--methods=), at 1/4/8
// threads against 1 and 64 sessions, with p50/p99 batch commit latency;
// (b) the multi-producer single-session scaling sweep (--writer_threads):
// 1/2/4/8 producers committing into ONE striped session, per-commit p50/p99
// latency and aggregate votes/s, under both the coalesced every-N-votes
// cadence and the bit-compatible every-batch default — the scaling curve
// behind the "one hot stream scales with writer threads" claim; (c) the
// parallel ExperimentRunner speedup over the serial replay (bit identity
// checked); (d) the long-session sweep: one session with `em-voting`
// attached ingesting until 100k+ accumulated votes, showing that
// warm-started EM keeps per-batch latency flat in history while the
// cold-refit path ("em-voting?warm=0") pays a full EM fit per batch — plus
// the kCounts vs kFullEvents retained-memory curve and (f) the durability
// overhead rows: the same single-producer striped workload with the
// write-ahead log off vs on across group-commit cadences, reporting
// absolute durable throughput (the gated number), the on/off ratio, WAL
// bytes written, and fsync count.
//
//   $ ./bench_engine_throughput [--tasks=500] [--batch=512]
//       [--methods=chao92,em-voting] [--writer_threads=1,2,4,8]
//       [--writer_cadence=every_n_votes:4096] [--sweep_votes=120000]
//       [--smoke]
//
// Emits the shared bench JSON lines after the tables and writes the whole
// run to BENCH_engine_throughput.json (see BenchJsonWriter /
// WriteBenchArtifact) for the CI perf-smoke gate.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/ascii.h"
#include "common/logging.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "engine/engine.h"
#include "engine/replication.h"
#include "estimators/registry.h"
#include "figure_common.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Percentile(std::vector<double>& sorted_in_place, double q) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted_in_place.size() - 1) + 0.5);
  return sorted_in_place[std::min(index, sorted_in_place.size() - 1)];
}

struct IngestResult {
  double votes_per_sec = 0.0;
  double p50_batch_ms = 0.0;
  double p99_batch_ms = 0.0;
};

/// Ingests `batches_per_thread` batches from each of `threads` workers,
/// round-robin over `num_sessions` sessions, querying each session after
/// every batch (the serving pattern: write a batch, read the fresh score).
/// Queries reuse a per-thread Snapshot (the allocation-free read path).
IngestResult MeasureIngest(const std::vector<std::string>& specs,
                           size_t threads, size_t num_sessions,
                           const std::vector<dqm::crowd::VoteEvent>& events,
                           size_t batch_size, size_t batches_per_thread,
                           size_t num_items) {
  dqm::engine::DqmEngine engine;
  std::vector<std::string> names;
  for (size_t s = 0; s < num_sessions; ++s) {
    names.push_back(dqm::StrFormat("dataset-%02zu", s));
    engine
        .OpenSession(names.back(), num_items,
                     std::span<const std::string>(specs))
        .value();
  }

  size_t total_batches = threads * batches_per_thread;
  std::vector<std::vector<double>> batch_ms(threads);
  dqm::ThreadPool pool(threads);
  Clock::time_point start = Clock::now();
  dqm::ParallelFor(&pool, threads, [&](size_t t) {
    batch_ms[t].reserve(batches_per_thread);
    dqm::engine::Snapshot scratch;  // reused across queries: no allocs
    for (size_t b = 0; b < batches_per_thread; ++b) {
      size_t global = t * batches_per_thread + b;
      size_t begin = (global * batch_size) % (events.size() - batch_size + 1);
      const std::string& name = names[global % num_sessions];
      Clock::time_point batch_start = Clock::now();
      dqm::Status status = engine.Ingest(
          name, std::span<const dqm::crowd::VoteEvent>(&events[begin],
                                                       batch_size));
      DQM_CHECK(status.ok()) << status.ToString();
      DQM_CHECK(engine.QueryInto(name, scratch).ok());
      batch_ms[t].push_back(SecondsSince(batch_start) * 1e3);
    }
  });
  double seconds = SecondsSince(start);

  IngestResult result;
  std::vector<double> all_ms;
  for (const std::vector<double>& per_thread : batch_ms) {
    all_ms.insert(all_ms.end(), per_thread.begin(), per_thread.end());
  }
  result.votes_per_sec =
      static_cast<double>(total_batches) * static_cast<double>(batch_size) /
      seconds;
  result.p50_batch_ms = Percentile(all_ms, 0.5);
  result.p99_batch_ms = Percentile(all_ms, 0.99);
  return result;
}

/// One multi-producer single-session measurement: `writers` threads each
/// commit `batches_per_writer` batches into ONE session opened with
/// `options` (striped commit path for order-independent panels), measuring
/// per-commit latency at the producer. After the producers join the session
/// is flushed with an explicit Publish and the final snapshot is checked
/// against the committed vote count — the sweep never reports a number a
/// torn pipeline produced.
IngestResult MeasureMultiWriter(
    const std::vector<std::string>& panel,
    const dqm::engine::SessionOptions& options, size_t writers,
    const std::vector<dqm::crowd::VoteEvent>& events, size_t batch_size,
    size_t batches_per_writer, size_t num_items,
    std::shared_ptr<dqm::engine::ReplicationTransport> replicate_to =
        nullptr) {
  dqm::engine::DqmEngine engine;
  std::shared_ptr<dqm::engine::EstimationSession> session =
      engine
          .OpenSession("hot", num_items, std::span<const std::string>(panel),
                       options)
          .value();
  DQM_CHECK(session->concurrent_ingest())
      << "the writer sweep measures the striped path; panel "
      << dqm::Join(panel, ",") << " fell back to serialized commits";
  // Replication rides the commit path (the ship hook runs inside the WAL
  // flush), so the replicator must be live for the timed window.
  std::unique_ptr<dqm::engine::SessionReplicator> replicator;
  if (replicate_to != nullptr) {
    replicator = dqm::engine::SessionReplicator::Start(session,
                                                       std::move(replicate_to))
                     .value();
  }

  std::vector<std::vector<double>> commit_ms(writers);
  dqm::ThreadPool pool(writers);
  Clock::time_point start = Clock::now();
  dqm::ParallelFor(&pool, writers, [&](size_t w) {
    commit_ms[w].reserve(batches_per_writer);
    for (size_t b = 0; b < batches_per_writer; ++b) {
      size_t global = w * batches_per_writer + b;
      size_t begin = (global * batch_size) % (events.size() - batch_size + 1);
      Clock::time_point commit_start = Clock::now();
      dqm::Status status = session->AddVotes(
          std::span<const dqm::crowd::VoteEvent>(&events[begin], batch_size));
      DQM_CHECK(status.ok()) << status.ToString();
      commit_ms[w].push_back(SecondsSince(commit_start) * 1e3);
    }
  });
  double seconds = SecondsSince(start);
  session->Publish();
  dqm::engine::Snapshot final_snapshot = session->snapshot();
  DQM_CHECK_EQ(final_snapshot.num_votes,
               static_cast<uint64_t>(writers) * batches_per_writer *
                   batch_size);
  if (replicator != nullptr) {
    // A row measured while the ship pipeline silently errored would gate
    // nothing — the overhead being measured includes every successful Put.
    DQM_CHECK_EQ(replicator->stats().ship_errors, uint64_t{0})
        << "replication fell behind during the measurement";
  }

  IngestResult result;
  std::vector<double> all_ms;
  for (const std::vector<double>& per_writer : commit_ms) {
    all_ms.insert(all_ms.end(), per_writer.begin(), per_writer.end());
  }
  result.votes_per_sec = static_cast<double>(writers) *
                         static_cast<double>(batches_per_writer) *
                         static_cast<double>(batch_size) / seconds;
  result.p50_batch_ms = Percentile(all_ms, 0.5);
  result.p99_batch_ms = Percentile(all_ms, 0.99);
  return result;
}

/// One timed ExperimentRunner::Run; returns {seconds, series} for the
/// bit-identity check.
struct TimedRun {
  double seconds = 0.0;
  std::vector<dqm::core::SeriesResult> series;
};

TimedRun MeasureRunner(const dqm::crowd::ResponseLog& log, size_t num_items,
                       size_t permutations, size_t threads) {
  const std::vector<std::string> specs = {"switch", "chao92", "vchao92",
                                          "voting"};
  dqm::core::ExperimentRunner runner(
      {.permutations = permutations, .seed = 42, .threads = threads});
  TimedRun result;
  Clock::time_point start = Clock::now();
  result.series = runner.Run(log, num_items, specs).value();
  result.seconds = SecondsSince(start);
  return result;
}

/// Faithful reproduction of the pre-change EM-VOTING serving path: a full
/// event-sweeping Dawid-Skene fit from cold after every batch, iterating
/// `log.events()` (two passes and two std::log calls per *event* per
/// sweep). This is the baseline the ≥10x acceptance claim is measured
/// against; the library itself no longer contains this code path.
double LegacyEventSweepFit(const dqm::crowd::ResponseLog& log,
                           size_t max_iterations, double tolerance) {
  const size_t num_items = log.num_items();
  const size_t num_workers = std::max<size_t>(log.num_workers(), 1);
  const double s = 1.0;  // smoothing default
  std::vector<double> posterior(num_items, 0.5);
  std::vector<double> sensitivity(num_workers, 0.8);
  std::vector<double> specificity(num_workers, 0.8);
  for (size_t i = 0; i < num_items; ++i) {
    posterior[i] = (log.positive_votes(i) + 1.0) / (log.total_votes(i) + 2.0);
  }
  double prior = 0.5;
  for (size_t iteration = 1; iteration <= max_iterations; ++iteration) {
    std::vector<double> dirty_agree(num_workers, s);
    std::vector<double> dirty_total(num_workers, 2 * s);
    std::vector<double> clean_agree(num_workers, s);
    std::vector<double> clean_total(num_workers, 2 * s);
    for (const dqm::crowd::VoteEvent& event : log.events()) {
      double p = posterior[event.item];
      dirty_total[event.worker] += p;
      clean_total[event.worker] += 1.0 - p;
      if (event.vote == dqm::crowd::Vote::kDirty) {
        dirty_agree[event.worker] += p;
      } else {
        clean_agree[event.worker] += 1.0 - p;
      }
    }
    for (size_t w = 0; w < num_workers; ++w) {
      sensitivity[w] = dirty_agree[w] / dirty_total[w];
      specificity[w] = clean_agree[w] / clean_total[w];
    }
    double prior_num = s;
    for (size_t i = 0; i < num_items; ++i) prior_num += posterior[i];
    prior = prior_num / (static_cast<double>(num_items) + 2 * s);

    std::vector<double> log_dirty(num_items, std::log(prior));
    std::vector<double> log_clean(num_items, std::log(1.0 - prior));
    for (const dqm::crowd::VoteEvent& event : log.events()) {
      double sens = std::clamp(sensitivity[event.worker], 1e-6, 1.0 - 1e-6);
      double spec = std::clamp(specificity[event.worker], 1e-6, 1.0 - 1e-6);
      if (event.vote == dqm::crowd::Vote::kDirty) {
        log_dirty[event.item] += std::log(sens);
        log_clean[event.item] += std::log(1.0 - spec);
      } else {
        log_dirty[event.item] += std::log(1.0 - sens);
        log_clean[event.item] += std::log(spec);
      }
    }
    double max_delta = 0.0;
    for (size_t i = 0; i < num_items; ++i) {
      double m = std::max(log_dirty[i], log_clean[i]);
      double dirty = std::exp(log_dirty[i] - m);
      double clean = std::exp(log_clean[i] - m);
      double next = dirty / (dirty + clean);
      max_delta = std::max(max_delta, std::abs(next - posterior[i]));
      posterior[i] = next;
    }
    if (max_delta < tolerance) break;
  }
  size_t count = 0;
  for (double p : posterior) {
    if (p > 0.5) ++count;
  }
  return static_cast<double>(count);
}

/// One checkpoint of the long-session sweep: batch latency measured over
/// the most recent window of batches, at `votes` accumulated history.
struct SweepPoint {
  uint64_t votes = 0;
  double window_batch_ms = 0.0;
  double window_votes_per_sec = 0.0;
};

struct SweepResult {
  std::vector<SweepPoint> points;
  double total_seconds = 0.0;
  double votes_per_sec = 0.0;
  double p50_batch_ms = 0.0;
  double p99_batch_ms = 0.0;
};

/// Streams `target_votes` votes (cycling over `events`) into ONE session
/// running `spec`, committing `batch_size` votes per batch and querying
/// after every batch. Ten evenly spaced checkpoints record the batch
/// latency of the window that ended there — the "flat in history" evidence.
SweepResult MeasureLongSession(const std::string& spec,
                               const std::vector<dqm::crowd::VoteEvent>& events,
                               size_t batch_size, uint64_t target_votes,
                               size_t num_items) {
  dqm::engine::DqmEngine engine;
  const std::vector<std::string> specs = {spec};
  engine.OpenSession("long", num_items, std::span<const std::string>(specs))
      .value();

  SweepResult result;
  size_t num_batches = static_cast<size_t>(target_votes / batch_size);
  size_t checkpoint_every = std::max<size_t>(num_batches / 10, 1);
  std::vector<double> all_ms;
  all_ms.reserve(num_batches);
  double window_seconds = 0.0;
  size_t window_batches = 0;
  dqm::engine::Snapshot scratch;
  Clock::time_point start = Clock::now();
  for (size_t b = 0; b < num_batches; ++b) {
    size_t begin = (b * batch_size) % (events.size() - batch_size + 1);
    Clock::time_point batch_start = Clock::now();
    dqm::Status status = engine.Ingest(
        "long",
        std::span<const dqm::crowd::VoteEvent>(&events[begin], batch_size));
    DQM_CHECK(status.ok()) << status.ToString();
    DQM_CHECK(engine.QueryInto("long", scratch).ok());
    double seconds = SecondsSince(batch_start);
    all_ms.push_back(seconds * 1e3);
    window_seconds += seconds;
    ++window_batches;
    if ((b + 1) % checkpoint_every == 0 || b + 1 == num_batches) {
      SweepPoint point;
      point.votes = static_cast<uint64_t>(b + 1) * batch_size;
      point.window_batch_ms = window_seconds * 1e3 /
                              static_cast<double>(window_batches);
      point.window_votes_per_sec =
          static_cast<double>(window_batches) *
          static_cast<double>(batch_size) / window_seconds;
      result.points.push_back(point);
      window_seconds = 0.0;
      window_batches = 0;
    }
  }
  result.total_seconds = SecondsSince(start);
  result.votes_per_sec = static_cast<double>(num_batches) *
                         static_cast<double>(batch_size) /
                         result.total_seconds;
  std::vector<double> sorted = all_ms;
  result.p50_batch_ms = Percentile(sorted, 0.5);
  result.p99_batch_ms = Percentile(sorted, 0.99);
  return result;
}

/// The same long-session protocol against the pre-change serving path:
/// kFullEvents retention and a cold event-sweeping EM fit after every batch
/// (see LegacyEventSweepFit). Kept outside the engine because the library
/// no longer offers this path — the point is the before/after ratio.
SweepResult MeasureLegacyLongSession(
    const std::vector<dqm::crowd::VoteEvent>& events, size_t batch_size,
    uint64_t target_votes, size_t num_items) {
  dqm::crowd::ResponseLog log(num_items,
                              dqm::crowd::RetentionPolicy::kFullEvents);
  SweepResult result;
  size_t num_batches = static_cast<size_t>(target_votes / batch_size);
  size_t checkpoint_every = std::max<size_t>(num_batches / 10, 1);
  std::vector<double> all_ms;
  all_ms.reserve(num_batches);
  double window_seconds = 0.0;
  size_t window_batches = 0;
  Clock::time_point start = Clock::now();
  for (size_t b = 0; b < num_batches; ++b) {
    size_t begin = (b * batch_size) % (events.size() - batch_size + 1);
    Clock::time_point batch_start = Clock::now();
    for (size_t e = 0; e < batch_size; ++e) {
      log.Append(events[begin + e]);
    }
    double estimate = LegacyEventSweepFit(log, 50, 1e-6);
    DQM_CHECK(std::isfinite(estimate));
    double seconds = SecondsSince(batch_start);
    all_ms.push_back(seconds * 1e3);
    window_seconds += seconds;
    ++window_batches;
    if ((b + 1) % checkpoint_every == 0 || b + 1 == num_batches) {
      SweepPoint point;
      point.votes = static_cast<uint64_t>(b + 1) * batch_size;
      point.window_batch_ms =
          window_seconds * 1e3 / static_cast<double>(window_batches);
      point.window_votes_per_sec = static_cast<double>(window_batches) *
                                   static_cast<double>(batch_size) /
                                   window_seconds;
      result.points.push_back(point);
      window_seconds = 0.0;
      window_batches = 0;
    }
  }
  result.total_seconds = SecondsSince(start);
  result.votes_per_sec = static_cast<double>(num_batches) *
                         static_cast<double>(batch_size) /
                         result.total_seconds;
  std::vector<double> sorted = all_ms;
  result.p50_batch_ms = Percentile(sorted, 0.5);
  result.p99_batch_ms = Percentile(sorted, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  dqm::FlagParser flags;
  int64_t* tasks = flags.AddInt("tasks", 500, "simulated tasks in the log");
  int64_t* permutations =
      flags.AddInt("permutations", 10, "r — runner permutations");
  int64_t* batch = flags.AddInt("batch", 512, "votes per ingest batch");
  int64_t* batches_per_thread =
      flags.AddInt("batches_per_thread", 200, "ingest batches per worker");
  std::string* methods = flags.AddString(
      "methods", "chao92,em-voting",
      "comma-separated estimator panels for the ingest matrix; each entry "
      "runs as its own single-estimator panel");
  std::string* writer_threads_flag = flags.AddString(
      "writer_threads", "1,2,4,8",
      "comma-separated producer counts for the multi-writer single-session "
      "sweep");
  std::string* writer_cadence_flag = flags.AddString(
      "writer_cadence", "every_n_votes:4096",
      "publish cadence of the multi-writer sweep's coalesced configuration "
      "(every_batch | every_n_votes[:N] | manual)");
  int64_t* sweep_votes = flags.AddInt(
      "sweep_votes", 120000,
      "accumulated votes the long-session em-voting sweep reaches");
  bool* smoke = flags.AddBool(
      "smoke", false,
      "CI sizes: fewer threads/batches and a 24k-vote sweep");
  dqm::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    return status.code() == dqm::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  // The paper's simulation workload (Section 6.1 / Figure 2(b) regime):
  // 1000 items, FP-light FN-heavy crowd, 15 items per task.
  dqm::core::Scenario scenario = dqm::core::SimulationScenario(0.01, 0.1, 15);
  dqm::core::SimulatedRun run = dqm::core::SimulateScenario(
      scenario, static_cast<size_t>(*tasks), 7);
  const std::vector<dqm::crowd::VoteEvent>& events = run.log.events();
  DQM_CHECK(!events.empty()) << "--tasks must produce at least one vote";
  std::printf("workload: %zu items, %zu votes, hardware threads=%zu\n\n",
              scenario.num_items, events.size(),
              dqm::ThreadPool::DefaultThreadCount());

  size_t batch_size =
      std::min(static_cast<size_t>(std::max<int64_t>(1, *batch)),
               events.size());
  size_t ingest_batches = static_cast<size_t>(*batches_per_thread);
  uint64_t target_votes = static_cast<uint64_t>(*sweep_votes);
  std::vector<size_t> thread_counts = {1, 4, 8};
  std::vector<size_t> session_counts = {1, 64};
  if (*smoke) {
    thread_counts = {1, 4};
    session_counts = {1, 8};
    ingest_batches = std::min<size_t>(ingest_batches, 40);
    target_votes = std::min<uint64_t>(target_votes, 24000);
  }

  dqm::bench::BenchJsonWriter json("engine_throughput");

  // --- (a) Engine ingest + query throughput, per estimator panel. ---
  std::vector<std::string> method_specs =
      dqm::estimators::SplitSpecList(*methods);
  if (method_specs.empty()) {
    std::fprintf(stderr, "--methods must name at least one estimator\n");
    return 1;
  }
  std::printf("== engine ingest+query throughput ==\n");
  dqm::AsciiTable ingest_table(
      {"method", "threads", "sessions", "votes/sec", "p50 ms", "p99 ms"});
  for (const std::string& spec : method_specs) {
    const std::vector<std::string> panel = {spec};
    for (size_t threads : thread_counts) {
      for (size_t sessions : session_counts) {
        IngestResult r =
            MeasureIngest(panel, threads, sessions, events, batch_size,
                          ingest_batches, scenario.num_items);
        ingest_table.AddRow(
            {spec, dqm::StrFormat("%zu", threads),
             dqm::StrFormat("%zu", sessions),
             dqm::StrFormat("%.0f", r.votes_per_sec),
             dqm::StrFormat("%.3f", r.p50_batch_ms),
             dqm::StrFormat("%.3f", r.p99_batch_ms)});
        json.AddResult(
            dqm::StrFormat("ingest_%s_t%zu_s%zu", spec.c_str(), threads,
                           sessions),
            {{"threads", static_cast<double>(threads)},
             {"sessions", static_cast<double>(sessions)},
             {"votes_per_sec", r.votes_per_sec},
             {"p50_batch_ms", r.p50_batch_ms},
             {"p99_batch_ms", r.p99_batch_ms}});
      }
    }
  }
  std::fputs(ingest_table.Render().c_str(), stdout);

  // --- (b) Multi-producer single-session scaling (--writer_threads): the
  // striped commit path under N concurrent producers, coalesced cadence vs
  // the bit-compatible every-batch default. ---
  std::vector<size_t> writer_counts;
  for (const std::string& token :
       dqm::estimators::SplitSpecList(*writer_threads_flag)) {
    writer_counts.push_back(
        static_cast<size_t>(std::max(1L, std::atol(token.c_str()))));
  }
  if (*smoke) {
    std::erase_if(writer_counts, [](size_t w) { return w > 4; });
  }
  if (writer_counts.empty()) writer_counts = {1, 4};
  dqm::engine::SessionOptions coalesced =
      dqm::engine::ParsePublishCadenceSpec(*writer_cadence_flag).value();
  dqm::engine::SessionOptions per_batch;  // every_batch default
  // Fixed stripe count for both cadences: the sweep measures the striped
  // commit path (auto striping deliberately stays off under every_batch),
  // and the rows stay comparable across machines with different core
  // counts.
  coalesced.ingest_stripes = 8;
  per_batch.ingest_stripes = 8;
  // Keep the per-writer measurement window >= ~50k votes even in smoke:
  // the sweep's ratios are meaningless when a writer finishes in under a
  // millisecond of wall clock.
  size_t writer_batches = *smoke ? 100 : std::max<size_t>(ingest_batches, 100);
  struct WriterConfig {
    const char* panel_key;
    std::vector<std::string> panel;
    const char* cadence_key;
    const dqm::engine::SessionOptions* options;
  };
  // "tally" is the producer-order-independent panel of the acceptance
  // criterion (pure counter commits, no response matrix); em-voting shows
  // the same commit path when the publish side runs a real EM fit.
  const std::vector<std::string> tally_panel = {"chao92", "voting", "nominal"};
  const std::vector<std::string> em_panel = {"em-voting"};
  std::vector<WriterConfig> writer_configs = {
      {"tally", tally_panel, "coalesced", &coalesced},
      {"tally", tally_panel, "every_batch", &per_batch},
      {"em-voting", em_panel, "coalesced", &coalesced},
  };
  std::printf("\n== multi-producer single-session scaling ==\n");
  std::printf("one session, %zu-vote batches, %zu batches per producer; "
              "coalesced = %s\n",
              batch_size, writer_batches, writer_cadence_flag->c_str());
  dqm::AsciiTable writer_table({"panel", "cadence", "writers", "votes/sec",
                                "p50 commit ms", "p99 commit ms", "scaling"});
  std::map<std::string, double> writer_votes_per_sec;
  for (const WriterConfig& config : writer_configs) {
    double base_votes_per_sec = 0.0;
    for (size_t writers : writer_counts) {
      IngestResult r = MeasureMultiWriter(config.panel, *config.options,
                                          writers, events, batch_size,
                                          writer_batches, scenario.num_items);
      std::string key = dqm::StrFormat("%s_%s_t%zu", config.panel_key,
                                       config.cadence_key, writers);
      writer_votes_per_sec[key] = r.votes_per_sec;
      if (writers == writer_counts.front()) {
        base_votes_per_sec = r.votes_per_sec;
      }
      writer_table.AddRow(
          {config.panel_key, config.cadence_key,
           dqm::StrFormat("%zu", writers),
           dqm::StrFormat("%.0f", r.votes_per_sec),
           dqm::StrFormat("%.4f", r.p50_batch_ms),
           dqm::StrFormat("%.4f", r.p99_batch_ms),
           dqm::StrFormat("%.2fx", r.votes_per_sec /
                                       std::max(base_votes_per_sec, 1e-9))});
      json.AddResult(
          dqm::StrFormat("multiwriter_%s", key.c_str()),
          {{"writers", static_cast<double>(writers)},
           {"votes_per_sec", r.votes_per_sec},
           {"p50_commit_ms", r.p50_batch_ms},
           {"p99_commit_ms", r.p99_batch_ms}});
    }
  }
  std::fputs(writer_table.Render().c_str(), stdout);
  // The acceptance ratio: aggregate tally-panel throughput at 4 producers
  // over 1 producer, coalesced cadence (the scaling configuration).
  {
    std::vector<std::pair<std::string, double>> summary;
    for (const char* cfg : {"tally_coalesced", "tally_every_batch",
                            "em-voting_coalesced"}) {
      auto t1 = writer_votes_per_sec.find(std::string(cfg) + "_t1");
      auto t4 = writer_votes_per_sec.find(std::string(cfg) + "_t4");
      if (t1 != writer_votes_per_sec.end() &&
          t4 != writer_votes_per_sec.end()) {
        double speedup = t4->second / std::max(t1->second, 1e-9);
        std::printf("%s: 4-producer aggregate = %.2fx of 1-producer\n", cfg,
                    speedup);
        summary.emplace_back(std::string(cfg) + "_speedup_4v1", speedup);
      }
    }
    if (!summary.empty()) json.AddResult("multiwriter_summary", summary);
  }

  // --- (c) Parallel ExperimentRunner speedup (bit-identity checked). ---
  std::printf("\n== ExperimentRunner::Run — serial vs pool ==\n");
  size_t r = static_cast<size_t>(*permutations);
  TimedRun serial = MeasureRunner(run.log, scenario.num_items, r, 1);
  dqm::AsciiTable runner_table({"threads", "seconds", "speedup", "identical"});
  runner_table.AddRow({"1", dqm::StrFormat("%.3f", serial.seconds), "1.00",
                       "-"});
  json.AddResult("runner_serial", {{"threads", 1.0},
                                   {"seconds", serial.seconds},
                                   {"speedup", 1.0}});
  bool all_identical = true;
  for (size_t threads : {4u, 8u}) {
    TimedRun parallel = MeasureRunner(run.log, scenario.num_items, r, threads);
    bool identical = parallel.series.size() == serial.series.size();
    for (size_t f = 0; identical && f < parallel.series.size(); ++f) {
      identical = parallel.series[f].mean == serial.series[f].mean &&
                  parallel.series[f].std_dev == serial.series[f].std_dev;
    }
    all_identical = all_identical && identical;
    double speedup = serial.seconds / parallel.seconds;
    runner_table.AddRow({dqm::StrFormat("%zu", threads),
                         dqm::StrFormat("%.3f", parallel.seconds),
                         dqm::StrFormat("%.2f", speedup),
                         identical ? "yes" : "NO"});
    json.AddResult(dqm::StrFormat("runner_t%zu", threads),
                   {{"threads", static_cast<double>(threads)},
                    {"seconds", parallel.seconds},
                    {"speedup", speedup}});
  }
  std::fputs(runner_table.Render().c_str(), stdout);

  // --- (d) Long-session sweep: warm-started vs cold-refit EM at 100k+
  // accumulated votes. Per-batch latency must stay flat in history for the
  // warm path; the headline ratio is the acceptance number. ---
  std::printf("\n== long session: em-voting per-batch latency vs history ==\n");
  std::printf("one session, %zu-vote batches, %llu total votes\n", batch_size,
              static_cast<unsigned long long>(target_votes));
  // Three paths over the identical vote stream:
  //   warm   — the serving default: compacted counts + warm-started EM
  //   cold   — ablation: compacted counts, but every batch refits from cold
  //   legacy — the pre-change path: full event log, event-sweeping cold fit
  SweepResult warm = MeasureLongSession("em-voting", events, batch_size,
                                        target_votes, scenario.num_items);
  SweepResult cold = MeasureLongSession("em-voting?warm=0", events, batch_size,
                                        target_votes, scenario.num_items);
  SweepResult legacy = MeasureLegacyLongSession(events, batch_size,
                                                target_votes,
                                                scenario.num_items);
  dqm::AsciiTable sweep_table({"votes", "warm ms", "cold ms", "legacy ms",
                               "legacy/warm"});
  size_t points =
      std::min({warm.points.size(), cold.points.size(), legacy.points.size()});
  for (size_t p = 0; p < points; ++p) {
    sweep_table.AddRow(
        {dqm::StrFormat("%llu",
                        static_cast<unsigned long long>(warm.points[p].votes)),
         dqm::StrFormat("%.3f", warm.points[p].window_batch_ms),
         dqm::StrFormat("%.3f", cold.points[p].window_batch_ms),
         dqm::StrFormat("%.3f", legacy.points[p].window_batch_ms),
         dqm::StrFormat("%.1fx", legacy.points[p].window_batch_ms /
                                     std::max(warm.points[p].window_batch_ms,
                                              1e-9))});
    json.AddResult(
        dqm::StrFormat("sweep_ck%zu", p),
        {{"votes", static_cast<double>(warm.points[p].votes)},
         {"warm_batch_ms", warm.points[p].window_batch_ms},
         {"cold_batch_ms", cold.points[p].window_batch_ms},
         {"legacy_batch_ms", legacy.points[p].window_batch_ms},
         {"warm_votes_per_sec", warm.points[p].window_votes_per_sec},
         {"cold_votes_per_sec", cold.points[p].window_votes_per_sec},
         {"legacy_votes_per_sec", legacy.points[p].window_votes_per_sec}});
  }
  std::fputs(sweep_table.Render().c_str(), stdout);
  double cold_speedup = warm.votes_per_sec / std::max(cold.votes_per_sec, 1e-9);
  double legacy_speedup =
      warm.votes_per_sec / std::max(legacy.votes_per_sec, 1e-9);
  // The acceptance ratio is measured where history is deepest — the final
  // checkpoint window — not diluted by the cheap early batches.
  double final_speedup =
      legacy.points.empty()
          ? 0.0
          : legacy.points.back().window_batch_ms /
                std::max(warm.points.back().window_batch_ms, 1e-9);
  std::printf(
      "warm:   %.0f votes/sec (p50 %.3f ms, p99 %.3f ms)\n"
      "cold:   %.0f votes/sec (p50 %.3f ms, p99 %.3f ms)\n"
      "legacy: %.0f votes/sec (p50 %.3f ms, p99 %.3f ms)\n"
      "speedup vs cold-compacted: %.1fx; vs pre-change event refit: %.1fx "
      "overall, %.1fx at deepest history\n",
      warm.votes_per_sec, warm.p50_batch_ms, warm.p99_batch_ms,
      cold.votes_per_sec, cold.p50_batch_ms, cold.p99_batch_ms,
      legacy.votes_per_sec, legacy.p50_batch_ms, legacy.p99_batch_ms,
      cold_speedup, legacy_speedup, final_speedup);
  json.AddResult("sweep_summary",
                 {{"warm_votes_per_sec", warm.votes_per_sec},
                  {"warm_p50_batch_ms", warm.p50_batch_ms},
                  {"warm_p99_batch_ms", warm.p99_batch_ms},
                  {"cold_votes_per_sec", cold.votes_per_sec},
                  {"cold_p50_batch_ms", cold.p50_batch_ms},
                  {"cold_p99_batch_ms", cold.p99_batch_ms},
                  {"legacy_votes_per_sec", legacy.votes_per_sec},
                  {"legacy_p50_batch_ms", legacy.p50_batch_ms},
                  {"legacy_p99_batch_ms", legacy.p99_batch_ms},
                  {"warm_vs_cold_speedup", cold_speedup},
                  {"warm_vs_legacy_speedup", legacy_speedup},
                  {"warm_vs_legacy_speedup_at_max_history", final_speedup}});

  // --- (e) Retained memory: kCounts is flat in history, kFullEvents is
  // linear. Pure storage measurement (no estimators attached). ---
  std::printf("\n== retained vote-storage memory vs history ==\n");
  dqm::AsciiTable mem_table({"votes", "kFullEvents MiB", "kCounts MiB"});
  {
    dqm::crowd::ResponseLog full_log(scenario.num_items,
                                     dqm::crowd::RetentionPolicy::kFullEvents);
    dqm::crowd::ResponseLog counts_log(scenario.num_items,
                                       dqm::crowd::RetentionPolicy::kCounts);
    uint64_t ingested = 0;
    size_t checkpoint = 0;
    uint64_t checkpoint_every = std::max<uint64_t>(target_votes / 6, 1);
    while (ingested < target_votes) {
      const dqm::crowd::VoteEvent& event =
          events[static_cast<size_t>(ingested % events.size())];
      full_log.Append(event);
      counts_log.Append(event);
      ++ingested;
      if (ingested % checkpoint_every == 0 || ingested == target_votes) {
        double full_mb =
            static_cast<double>(full_log.RetainedBytes()) / (1024.0 * 1024.0);
        double counts_mb = static_cast<double>(counts_log.RetainedBytes()) /
                           (1024.0 * 1024.0);
        mem_table.AddRow(
            {dqm::StrFormat("%llu", static_cast<unsigned long long>(ingested)),
             dqm::StrFormat("%.2f", full_mb),
             dqm::StrFormat("%.2f", counts_mb)});
        json.AddResult(dqm::StrFormat("memory_ck%zu", checkpoint++),
                       {{"votes", static_cast<double>(ingested)},
                        {"full_events_mib", full_mb},
                        {"counts_mib", counts_mb}});
      }
    }
  }
  std::fputs(mem_table.Render().c_str(), stdout);

  // --- (f) Durability overhead: the identical single-producer striped
  // workload with the write-ahead log off vs on, across group-commit
  // cadences (all >= 256 votes). Checkpoints stay off so the rows isolate
  // the WAL append + fsync cost. The on/off ratio is informative — the
  // in-memory tally path is a pure counter increment, so NO disk-backed
  // log tracks it — while the gated acceptance number is absolute durable
  // throughput: within 1.5x of the in-memory single-writer ingest floor
  // (bench/floors.json, "durability_wal4096.votes_per_sec"). ---
  std::printf("\n== durability: WAL group-commit overhead ==\n");
  {
    namespace fs = std::filesystem;
    const fs::path scratch = fs::temp_directory_path() / "dqm_bench_durability";
    const size_t writers = 1;
    IngestResult off =
        MeasureMultiWriter(tally_panel, coalesced, writers, events, batch_size,
                           writer_batches, scenario.num_items);
    json.AddResult("durability_off",
                   {{"votes_per_sec", off.votes_per_sec},
                    {"p50_commit_ms", off.p50_batch_ms},
                    {"p99_commit_ms", off.p99_batch_ms}});
    dqm::AsciiTable durability_table({"config", "votes/sec", "p50 commit ms",
                                      "p99 commit ms", "on/off", "wal MiB",
                                      "fsyncs"});
    durability_table.AddRow({"off", dqm::StrFormat("%.0f", off.votes_per_sec),
                             dqm::StrFormat("%.4f", off.p50_batch_ms),
                             dqm::StrFormat("%.4f", off.p99_batch_ms), "1.00",
                             "-", "-"});
    auto& registry = dqm::telemetry::MetricsRegistry::Global();
    dqm::telemetry::Counter* wal_bytes = registry.GetCounter(
        dqm::telemetry::metric_names::kWalBytesWrittenTotal);
    dqm::telemetry::Counter* wal_fsyncs =
        registry.GetCounter(dqm::telemetry::metric_names::kWalFsyncsTotal);
    for (uint64_t group_commit :
         {uint64_t{16384}, uint64_t{4096}, uint64_t{256}}) {
      std::error_code ec;
      fs::remove_all(scratch, ec);  // Create() refuses a non-empty dir
      dqm::engine::SessionOptions durable = coalesced;
      durable.durability_dir = scratch.string();
      durable.wal_group_commit_votes = group_commit;
      durable.checkpoint_every_votes = 0;
      uint64_t bytes_before = wal_bytes->Value();
      uint64_t fsyncs_before = wal_fsyncs->Value();
      IngestResult on =
          MeasureMultiWriter(tally_panel, durable, writers, events, batch_size,
                             writer_batches, scenario.num_items);
      double wal_mib =
          static_cast<double>(wal_bytes->Value() - bytes_before) /
          (1024.0 * 1024.0);
      double fsync_count =
          static_cast<double>(wal_fsyncs->Value() - fsyncs_before);
      double ratio = on.votes_per_sec / std::max(off.votes_per_sec, 1e-9);
      std::string key = dqm::StrFormat("durability_wal%llu",
                                       static_cast<unsigned long long>(
                                           group_commit));
      durability_table.AddRow(
          {dqm::StrFormat("wal gc=%llu",
                          static_cast<unsigned long long>(group_commit)),
           dqm::StrFormat("%.0f", on.votes_per_sec),
           dqm::StrFormat("%.4f", on.p50_batch_ms),
           dqm::StrFormat("%.4f", on.p99_batch_ms),
           dqm::StrFormat("%.2f", ratio), dqm::StrFormat("%.2f", wal_mib),
           dqm::StrFormat("%.0f", fsync_count)});
      json.AddResult(key, {{"votes_per_sec", on.votes_per_sec},
                           {"p50_commit_ms", on.p50_batch_ms},
                           {"p99_commit_ms", on.p99_batch_ms},
                           {"on_off_ratio", ratio},
                           {"wal_mib_written", wal_mib},
                           {"wal_fsyncs", fsync_count}});
      fs::remove_all(scratch, ec);
    }
    std::fputs(durability_table.Render().c_str(), stdout);

    // --- (g) Replication overhead: the gc=4096 durable workload with a
    // hot-standby ship pipeline attached (LocalDirTransport, every WAL
    // flush ships a segment before the barrier returns) vs the same
    // workload shipping nothing. The gated number is absolute replicated
    // throughput (bench/floors.json, "replication_on.votes_per_sec") —
    // like the durability rows, the per-segment write+fsync+rename cost
    // does not scale with CPU speed. ---
    std::printf("\n== replication: hot-standby shipping overhead ==\n");
    const fs::path ship_scratch =
        fs::temp_directory_path() / "dqm_bench_repl_ship";
    dqm::AsciiTable replication_table(
        {"config", "votes/sec", "p50 commit ms", "p99 commit ms", "on/off",
         "segments"});
    {
      std::error_code ec;
      fs::remove_all(scratch, ec);
      dqm::engine::SessionOptions durable = coalesced;
      durable.durability_dir = scratch.string();
      durable.wal_group_commit_votes = 4096;
      durable.checkpoint_every_votes = 0;
      IngestResult off =
          MeasureMultiWriter(tally_panel, durable, writers, events, batch_size,
                             writer_batches, scenario.num_items);
      json.AddResult("replication_off",
                     {{"votes_per_sec", off.votes_per_sec},
                      {"p50_commit_ms", off.p50_batch_ms},
                      {"p99_commit_ms", off.p99_batch_ms}});
      replication_table.AddRow(
          {"replication off", dqm::StrFormat("%.0f", off.votes_per_sec),
           dqm::StrFormat("%.4f", off.p50_batch_ms),
           dqm::StrFormat("%.4f", off.p99_batch_ms), "1.00", "-"});

      fs::remove_all(scratch, ec);
      fs::remove_all(ship_scratch, ec);
      std::shared_ptr<dqm::engine::ReplicationTransport> transport =
          dqm::engine::LocalDirTransport::Open(ship_scratch.string()).value();
      dqm::telemetry::Counter* segments =
          dqm::telemetry::MetricsRegistry::Global().GetCounter(
              dqm::telemetry::metric_names::kReplicaSegmentsShippedTotal);
      uint64_t segments_before = segments->Value();
      IngestResult on =
          MeasureMultiWriter(tally_panel, durable, writers, events, batch_size,
                             writer_batches, scenario.num_items, transport);
      double shipped =
          static_cast<double>(segments->Value() - segments_before);
      double ratio = on.votes_per_sec / std::max(off.votes_per_sec, 1e-9);
      replication_table.AddRow(
          {"replication on", dqm::StrFormat("%.0f", on.votes_per_sec),
           dqm::StrFormat("%.4f", on.p50_batch_ms),
           dqm::StrFormat("%.4f", on.p99_batch_ms),
           dqm::StrFormat("%.2f", ratio), dqm::StrFormat("%.0f", shipped)});
      json.AddResult("replication_on", {{"votes_per_sec", on.votes_per_sec},
                                        {"p50_commit_ms", on.p50_batch_ms},
                                        {"p99_commit_ms", on.p99_batch_ms},
                                        {"on_off_ratio", ratio},
                                        {"segments_shipped", shipped}});
      fs::remove_all(scratch, ec);
      fs::remove_all(ship_scratch, ec);
    }
    std::fputs(replication_table.Render().c_str(), stdout);
  }

  std::printf("\n");
  dqm::bench::EmitBenchJson(json);
  const bool wrote = dqm::bench::WriteBenchArtifact("engine_throughput");
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: parallel runner diverged from serial replay\n");
    return 1;
  }
  return wrote ? 0 : 1;
}
