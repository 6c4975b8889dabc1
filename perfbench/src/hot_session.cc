// hot_session: one in-memory session, panel chao92,vchao92?shift=2,em-voting
// under the every_n_votes cadence (so ingest takes the striped path), two
// producers holding the session handle in a closed loop, one reader calling
// SnapshotInto every 100 us. Time goes to the stripe commit path and the
// coalesced publish with warm EM; registry lookup, the WAL and SWITCH are
// bypassed.

#include <cmath>
#include <cstdio>
#include <thread>

#include "engine/engine.h"
#include "stream.h"
#include "telemetry/metric_names.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Universe (SimulationScenario(0.01, 0.1, 15)), tasks per pass and batch
// size are those of bench_engine_throughput's multi-producer single-session
// cells (--tasks=500, --batch=512). The publish cadence is 4x that bench's
// every_n_votes:4096: at 4096, a publish's warm EM fit ran every 8th commit
// and its seed-dependent cost decided commit_p99_us (1.4-3.4 ms over five
// seeds); at 16384 one commit in 32 publishes.
constexpr size_t kProducers = 2;
constexpr size_t kBatchVotes = 512;
constexpr size_t kTasksPerPass = 500;
constexpr uint64_t kPublishEveryVotes = 16384;
// Sets the run's votes (see PhaseBatches). It ran at 11-13M votes/s on the
// tuning machine, so the phases take about 60% of --seconds, and the run
// spends as long again on its 8 migrations, each of which re-emits every
// vote of its round.
constexpr double kNominalVotesPerSecond = 8.0e6;
constexpr auto kReaderPeriod = std::chrono::microseconds(100);
constexpr size_t kRounds = 4;
constexpr size_t kChunksPerRound = kChunksPerRun / kRounds;
// Each migration re-emits every vote of its round, about a second's worth
// of work, so a round times two.
constexpr int kMigrationsPerRound = 2;
const std::vector<std::string> kSpecs = {"chao92", "vchao92?shift=2",
                                         "em-voting"};
const char kName[] = "hot";

dqm::engine::SessionOptions HotOptions() {
  dqm::engine::SessionOptions options;
  options.cadence = dqm::engine::PublishCadence::kEveryNVotes;
  options.publish_every_votes = kPublishEveryVotes;
  return options;
}

}  // namespace

int RunHotSession(Run& run) {
  const uint64_t seed = run.config.seed;
  // --- Inputs (before any timing): one universe, one stream per producer.
  const dqm::core::Scenario scenario =
      dqm::core::SimulationScenario(0.01, 0.1, 15);
  const std::vector<bool> truth = dqm::core::BuildTruth(scenario, seed);
  std::vector<VoteStream> streams;
  for (uint32_t lane = 0; lane < kProducers; ++lane) {
    streams.emplace_back(scenario, truth, kTasksPerPass,
                         seed * 1000 + lane + 1, kBatchVotes, lane,
                         kProducers);
  }
  double input_mb = 0;
  for (const VoteStream& s : streams) input_mb += s.bytes() / 1048576.0;
  // Each producer commits the same number of batches in every round.
  const uint64_t per_producer =
      PhaseBatches(run.config.seconds / kRounds, kNominalVotesPerSecond,
                   kBatchVotes, kProducers) /
      kProducers;
  const uint64_t acked = per_producer * kProducers * kBatchVotes;
  // The tallies every round's session must end with.
  std::vector<uint64_t> positive(truth.size()), total(truth.size());
  for (const VoteStream& s : streams) {
    s.AccumulateTallies(per_producer, positive, total);
  }
  const ExpectedCounts expected = CountsFromTallies(positive, total, truth);
  run.checks.Expect(expected.votes == acked, "hot: tallies cover acked votes");

  std::vector<double> setup_s, open_ms, migrate_s, errs;
  std::vector<ProducerStats> stats(kProducers,
                                   ProducerStats(kRounds * kChunksPerRound));
  PhaseTimes times;
  uint64_t reads = 0, bad_reads = 0, wait_ns = 0;
  double retained_mb = 0;
  dqm::engine::Snapshot final_snap;
  for (size_t round = 0; round < kRounds; ++round) {
    // --- Setup: engine + session up to the first published snapshot,
    // kSetupsPerRound times; the last one is used.
    std::unique_ptr<dqm::engine::DqmEngine> engine;
    std::shared_ptr<dqm::engine::EstimationSession> session;
    for (int rep = 0; rep < kSetupsPerRound; ++rep) {
      session.reset();
      engine.reset();
      const Clock::time_point t0 = Clock::now();
      engine = std::make_unique<dqm::engine::DqmEngine>();
      const Clock::time_point o0 = Clock::now();
      auto opened = engine->OpenSession(kName, scenario.num_items, kSpecs,
                                        HotOptions());
      open_ms.push_back(Seconds(Clock::now() - o0) * 1e3);
      run.ops.Note(opened.ok());
      if (!opened.ok()) {
        std::fprintf(stderr, "open: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      session = opened.value();
      session->Publish();
      setup_s.push_back(Seconds(Clock::now() - t0));
    }
    run.checks.Expect(session->concurrent_ingest(),
                      "hot_session takes the striped commit path");

    // --- Phase.
    const uint64_t wait_before =
        CounterTotal(dqm::telemetry::metric_names::kStripeLockWaitNsTotal);
    Phase phase(per_producer * kProducers, run.config.trace,
                round * kChunksPerRound, kChunksPerRound);
    std::vector<uint64_t> committed(kProducers, 0);
    std::atomic<bool> producers_done{false};
    phase.Start();
    std::vector<std::thread> threads;
    for (size_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        ProducerStats& st = stats[p];
        std::vector<crowd::VoteEvent> batch(kBatchVotes);
        for (uint64_t index = 0; index < per_producer; ++index) {
          const Phase::Op op = phase.Next();
          streams[p].Batch(index, batch);
          Tracer::BeginOperation();
          const uint64_t before = op.traced ? session->committed_votes() : 0;
          const uint64_t t0 = NowNs();
          dqm::Status status;
          {
            Span span(SpanKind::kSessionAddVotes);
            status = session->AddVotes(batch);
          }
          const uint64_t elapsed = NowNs() - t0;
          run.ops.Note(status.ok());
          if (!status.ok()) {
            run.checks.Expect(false, "hot: AddVotes: " + status.ToString());
            return;
          }
          st.Count(op, kBatchVotes, elapsed);
          committed[p]++;
          if (op.traced) {
            const uint64_t after = session->committed_votes();
            const bool published =
                before / kPublishEveryVotes != after / kPublishEveryVotes;
            (published ? st.commit_publish : st.commit_plain).Record(elapsed);
          }
        }
      });
    }
    std::thread reader([&] {
      dqm::engine::Snapshot snap;
      uint64_t last_version = 0, last_votes = 0;
      Ticker ticker(kReaderPeriod);
      while (!producers_done.load(std::memory_order_relaxed)) {
        {
          Span span(SpanKind::kSessionSnapshot);
          session->SnapshotInto(snap);
        }
        const bool ok = snap.version >= last_version &&
                        snap.num_votes >= last_votes &&
                        snap.estimates.size() == kSpecs.size();
        last_version = snap.version;
        last_votes = snap.num_votes;
        reads++;
        bad_reads += !ok;
        run.ops.Note(ok);
        ticker.Wait();
      }
    });
    for (std::thread& t : threads) t.join();
    phase.End();
    producers_done = true;
    reader.join();
    times.Add(phase);
    wait_ns +=
        CounterTotal(dqm::telemetry::metric_names::kStripeLockWaitNsTotal) -
        wait_before;
    for (size_t p = 0; p < kProducers; ++p) {
      if (committed[p] != per_producer) {
        std::fprintf(stderr, "hot: producer %zu stopped after %llu of %llu "
                     "batches\n", p,
                     static_cast<unsigned long long>(committed[p]),
                     static_cast<unsigned long long>(per_producer));
        return 1;
      }
    }
    retained_mb = session->RetainedBytes() / 1048576.0;

    // --- Correctness: the final snapshot against the stream acknowledged.
    {
      Span span(SpanKind::kSessionPublish);
      session->Publish();
    }
    final_snap = session->snapshot();
    run.checks.Expect(final_snap.num_votes == acked,
                      "hot: session num_votes equals acknowledged votes");
    run.checks.Expect(final_snap.majority_count == expected.majority &&
                          final_snap.nominal_count == expected.nominal,
                      "hot: majority/nominal counts match the stream");
    errs.push_back(std::fabs(final_snap.estimated_total_errors -
                             static_cast<double>(expected.dirty_seen)));

    // --- recover_s: rebuild the session on a fresh engine from its
    // exported compacted state (MigrateSession: the checkpoint restore
    // path, in memory), along a chain of fresh engines.
    session.reset();
    for (int rep = 0; rep < kMigrationsPerRound; ++rep) {
      auto target = std::make_unique<dqm::engine::DqmEngine>();
      const Clock::time_point m0 = Clock::now();
      dqm::Status migrated;
      {
        Span span(SpanKind::kEngineMigrate);
        migrated = engine->MigrateSession(kName, *target);
      }
      migrate_s.push_back(Seconds(Clock::now() - m0));
      run.ops.Note(migrated.ok());
      run.checks.Expect(migrated.ok(), "hot: migrate: " + migrated.ToString());
      if (!migrated.ok()) break;
      auto moved = target->GetSession(kName);
      run.checks.Expect(moved.ok(), "hot: migrated session registered");
      if (!moved.ok()) break;
      moved.value()->Publish();
      // Rows 0-1 (CHAO92, V-CHAO) are closed-form; EM-VOTING is not
      // compared.
      run.checks.Expect(SameSnapshot(moved.value()->snapshot(), final_snap, 2),
                        "hot: migrated session equals the primary on tallies "
                        "and closed-form rows");
      engine = std::move(target);
    }
  }
  ReportPhase(run, times, stats);
  run.checks.Expect(bad_reads == 0, "reader saw snapshots go backwards");
  // The same votes give the same closed-form estimate in every round.
  run.checks.Expect(Min(errs) == Median(errs) && Median(errs) == errs.back(),
                    "hot: every round ends with the same estimate");
  run.e2e.Set("est_abs_err", errs.back(), "items");
  std::printf("hot: %s estimate %.3f, truth %zu dirty items seen, "
              "abs err %.3f, majority %zu, nominal %zu\n",
              final_snap.method_name.c_str(),
              final_snap.estimated_total_errors, expected.dirty_seen,
              errs.back(), final_snap.majority_count,
              final_snap.nominal_count);
  run.layers.Set("session.stripe_lock_wait_ms", wait_ns / 1e6, "ms");
  LatencyHistogram plain, publish;
  for (const ProducerStats& st : stats) {
    plain.Merge(st.commit_plain);
    publish.Merge(st.commit_publish);
  }
  run.layers.Set("session.commit_us", plain.QuantileNs(0.5) / 1e3, "us");
  run.layers.Set("session.publish_commit_us", publish.QuantileNs(0.5) / 1e3,
                 "us");
  run.layers.Set("session.retained_mb", retained_mb, "MB");
  run.e2e.Set("recover_s", Min(migrate_s), "s");
  std::printf("recover: migrated %llu votes in %.3f s at best, %.3f s "
              "median, over %zu migrations\n",
              static_cast<unsigned long long>(acked), Min(migrate_s),
              Median(migrate_s), migrate_s.size());
  run.e2e.Set("setup_s", FastQuantile(setup_s), "s");
  run.layers.Set("engine.open_session_ms", Median(open_ms), "ms");
  if (run.config.trace) {
    ProbeEstimators(run, streams[0].pass_votes(), scenario.num_items);
  }
  run.e2e.Set("rss_peak_mb", PeakRssMb(), "MB");
  std::printf("memory: peak rss %.1f MB, input %.1f MB, reads %llu\n",
              PeakRssMb(), input_mb, static_cast<unsigned long long>(reads));
  return 0;
}

}  // namespace perfbench
