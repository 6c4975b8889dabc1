// many_sessions: 64 in-memory sessions, panel switch,chao92 (order-sensitive,
// so every session takes the serialized commit path) under the default
// every-batch cadence. Two producers each own half the sessions and, per
// operation, Ingest one batch into a session by name and QueryInto it by
// name. Time goes to registry lookup, the serialized commit path and a
// publish after every batch, over 64 sessions' state; stripes and
// durability are bypassed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "engine/engine.h"
#include "stream.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Session count and batch size are those of bench_engine_throughput's
// 64-session ingest cells (--batch=512).
constexpr size_t kSessions = 64;
constexpr size_t kProducers = 2;
constexpr size_t kBatchVotes = 512;
// Tasks per simulated pass. Small on purpose: the state a commit reads at
// random (per-item tallies, the (worker, item) pairs of four passes) stays
// near 100 KB a session, so the 64 sessions fit in cache. On 13,022-item
// Product universes that state reached ~3 MB a session, every commit waited
// on DRAM, and votes_per_s moved 2x between runs with the shared host's
// memory traffic.
constexpr size_t kTasksPerPass = 100;
// Votes per second this workload ran at on the tuning machine, in rounds
// (see PhaseBatches).
constexpr double kNominalVotesPerSecond = 40.0e6;
// Sessions rebuilt for recover_s (every 16th): their replay is timed and
// checked bit-identical.
constexpr size_t kRecoverStride = 16;
// Twice the rounds of the other workloads: a session's state grows with its
// votes, and with a quarter of the run's votes per round it outgrew the
// cache, and the figures moved with the host's memory traffic (spreads up
// to 0.28 over five runs, against 0.15 with an eighth).
constexpr size_t kRounds = 8;
constexpr size_t kChunksPerRound = kChunksPerRun / kRounds;
// Timed rebuilds after each round.
constexpr int kRebuildsPerRound = 3;
const std::vector<std::string> kSpecs = {"switch", "chao92"};

std::string SessionName(size_t s) { return "dataset-" + std::to_string(s); }

}  // namespace

int RunManySessions(Run& run) {
  const uint64_t seed = run.config.seed;
  // --- Inputs (before any timing): one universe and stream per session,
  // from the paper's Restaurant preset (Section 6.1.1). Its false-positive
  // heavy crowd keeps SWITCH's error near 12 items on every seed; on the
  // 1,000-item simulation universe it was 1-5 items, heavy-tailed, and its
  // mean over 64 sessions moved 28% from seed to seed.
  const dqm::core::Scenario scenario = dqm::core::RestaurantScenario();
  std::vector<std::vector<bool>> truths;
  std::vector<VoteStream> streams;
  double input_mb = 0;
  for (size_t s = 0; s < kSessions; ++s) {
    truths.push_back(dqm::core::BuildTruth(scenario, seed * 7919 + s));
    streams.emplace_back(scenario, truths.back(), kTasksPerPass,
                         seed * 104729 + s, kBatchVotes);
    input_mb += streams.back().bytes() / 1048576.0;
  }
  // Every session gets the same number of batches in every round.
  const uint64_t batches =
      PhaseBatches(run.config.seconds / kRounds, kNominalVotesPerSecond,
                   kBatchVotes, kSessions) /
      kSessions;
  // What every round's sessions must end with.
  std::vector<ExpectedCounts> expected;
  for (size_t s = 0; s < kSessions; ++s) {
    std::vector<uint64_t> positive(scenario.num_items),
        total(scenario.num_items);
    streams[s].AccumulateTallies(batches, positive, total);
    expected.push_back(CountsFromTallies(positive, total, truths[s]));
  }

  std::vector<double> setup_s, open_ms, replay_s, round_errs;
  std::vector<double> errs;
  std::vector<ProducerStats> stats(kProducers,
                                   ProducerStats(kRounds * kChunksPerRound));
  PhaseTimes times;
  size_t retained = 0;
  std::vector<dqm::engine::Snapshot> finals(kSessions);
  for (size_t round = 0; round < kRounds; ++round) {
    // --- Setup: engine + 64 sessions, each up to its first snapshot;
    // kSetupsPerRound times, the last one is used.
    std::unique_ptr<dqm::engine::DqmEngine> engine;
    for (int rep = 0; rep < kSetupsPerRound; ++rep) {
      engine.reset();
      const Clock::time_point t0 = Clock::now();
      engine = std::make_unique<dqm::engine::DqmEngine>();
      for (size_t s = 0; s < kSessions; ++s) {
        const Clock::time_point o0 = Clock::now();
        auto opened =
            engine->OpenSession(SessionName(s), scenario.num_items, kSpecs);
        open_ms.push_back(Seconds(Clock::now() - o0) * 1e3);
        run.ops.Note(opened.ok());
        if (!opened.ok()) {
          std::fprintf(stderr, "open: %s\n",
                       opened.status().ToString().c_str());
          return 1;
        }
        opened.value()->Publish();
      }
      setup_s.push_back(Seconds(Clock::now() - t0));
    }

    // --- Phase: `batches` batches into every session.
    Phase phase(batches * kSessions, run.config.trace,
                round * kChunksPerRound, kChunksPerRound);
    std::vector<uint64_t> session_batches(kSessions, 0);
    phase.Start();
    std::vector<std::thread> threads;
    for (size_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        ProducerStats& st = stats[p];
        std::vector<crowd::VoteEvent> batch(kBatchVotes);
        std::vector<std::string> names;
        std::vector<size_t> owned;
        for (size_t s = p; s < kSessions; s += kProducers) {
          owned.push_back(s);
          names.push_back(SessionName(s));
        }
        dqm::engine::Snapshot snap;
        for (uint64_t i = 0; i < batches * owned.size(); ++i) {
          const size_t turn = i % owned.size();
          const Phase::Op op = phase.Next();
          const size_t s = owned[turn];
          streams[s].Batch(session_batches[s], batch);
          Tracer::BeginOperation();
          const uint64_t t0 = NowNs();
          bool ok;
          if (!op.traced) {
            ok = engine->Ingest(names[turn], batch).ok() &&
                 engine->QueryInto(names[turn], snap).ok();
          } else {
            // Traced: the same calls split at the layer boundaries Ingest
            // hides (lookup, then the session commit).
            const uint64_t l0 = NowNs();
            std::shared_ptr<dqm::engine::EstimationSession> handle;
            {
              Span span(SpanKind::kEngineGetSession);
              auto found = engine->GetSession(names[turn]);
              if (found.ok()) handle = std::move(found).value();
            }
            const uint64_t l1 = NowNs();
            ok = handle != nullptr;
            if (ok) {
              Span span(SpanKind::kSessionAddVotes);
              ok = handle->AddVotes(batch).ok();
            }
            const uint64_t q0 = NowNs();
            if (ok) {
              Span span(SpanKind::kEngineQuery);
              ok = engine->QueryInto(names[turn], snap).ok();
            }
            const uint64_t q1 = NowNs();
            st.lookup.Record(l1 - l0);
            st.commit_publish.Record(q0 - l1);
            st.query.Record(q1 - q0);
          }
          const uint64_t elapsed = NowNs() - t0;
          run.ops.Note(ok);
          if (!ok) {
            run.checks.Expect(false, "many: Ingest + QueryInto failed");
            return;
          }
          if (snap.num_votes != (session_batches[s] + 1) * kBatchVotes) {
            run.checks.Expect(false, "many: a query missed its own ingest");
          }
          session_batches[s]++;
          st.Count(op, kBatchVotes, elapsed);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    phase.End();
    times.Add(phase);

    // --- Correctness: every session against the stream it acknowledged.
    errs.clear();
    retained = 0;
    for (size_t s = 0; s < kSessions; ++s) {
      auto session = engine->GetSession(SessionName(s));
      run.checks.Expect(session.ok(), "many: session still registered");
      if (!session.ok()) continue;
      retained += session.value()->RetainedBytes();
      session.value()->Publish();
      finals[s] = session.value()->snapshot();
      run.checks.Expect(
          session_batches[s] == batches &&
              finals[s].num_votes == batches * kBatchVotes &&
              expected[s].votes == finals[s].num_votes,
          "many: " + SessionName(s) + " num_votes equals acknowledged votes");
      run.checks.Expect(finals[s].majority_count == expected[s].majority &&
                            finals[s].nominal_count == expected[s].nominal,
                        "many: " + SessionName(s) + " majority/nominal counts");
      errs.push_back(std::fabs(finals[s].estimated_total_errors -
                               static_cast<double>(expected[s].dirty_seen)));
    }
    double err_sum = 0;
    for (double e : errs) err_sum += e;
    round_errs.push_back(err_sum / kSessions);
    engine.reset();

    // --- recover_s: SWITCH panels have no checkpoint form (their
    // durability is WAL-only), so rebuilding one means replaying its
    // acknowledged batches in order into a fresh session. Only the engine
    // calls are timed; each replay must equal its primary bit for bit.
    std::vector<crowd::VoteEvent> batch(kBatchVotes);
    for (int rep = 0; rep < kRebuildsPerRound; ++rep) {
      dqm::engine::DqmEngine target;
      uint64_t replay_ns = 0;
      for (size_t s = 0; s < kSessions; s += kRecoverStride) {
        const uint64_t o0 = NowNs();
        const bool opened =
            target.OpenSession(SessionName(s), scenario.num_items, kSpecs)
                .ok();
        replay_ns += NowNs() - o0;
        run.ops.Note(opened);
        if (!opened) return 1;
        bool ok = true;
        for (uint64_t b = 0; b < batches && ok; ++b) {
          streams[s].Batch(b, batch);
          const uint64_t t0 = NowNs();
          {
            Span span(SpanKind::kEngineIngest);
            ok = target.Ingest(SessionName(s), batch).ok();
          }
          replay_ns += NowNs() - t0;
        }
        run.ops.Note(ok);
        auto snap = target.Query(SessionName(s));
        if (!ok || !snap.ok()) return 1;
        run.checks.Expect(SameSnapshot(snap.value(), finals[s], kSpecs.size()),
                          "many: replayed " + SessionName(s) +
                              " equals the primary bit for bit");
      }
      replay_s.push_back(replay_ns / 1e9);
    }
  }
  ReportPhase(run, times, stats);
  LatencyHistogram lookup, commit, query;
  for (const ProducerStats& st : stats) {
    lookup.Merge(st.lookup);
    commit.Merge(st.commit_publish);
    query.Merge(st.query);
  }
  run.layers.Set("engine.lookup_us", lookup.QuantileNs(0.5) / 1e3, "us");
  run.layers.Set("engine.query_us", query.QuantileNs(0.5) / 1e3, "us");
  run.layers.Set("session.publish_commit_us", commit.QuantileNs(0.5) / 1e3,
                 "us");
  run.layers.Set("session.retained_mb", retained / 1048576.0, "MB");
  // The same votes give the same estimates in every round.
  run.checks.Expect(Min(round_errs) == Median(round_errs) &&
                        Median(round_errs) == round_errs.back(),
                    "many: every round ends with the same estimates");
  run.e2e.Set("est_abs_err", round_errs.back(), "items");
  std::sort(errs.begin(), errs.end());
  std::printf("many: %s mean abs err %.3f over %zu sessions (median %.3f, "
              "min %.3f, max %.3f)\n",
              finals[0].method_name.c_str(), round_errs.back(), kSessions,
              Median(errs), errs.front(), errs.back());
  run.e2e.Set("recover_s", Min(replay_s), "s");
  std::printf("recover: replayed %llu votes into %zu sessions in %.3f s at "
              "best, %.3f s median, over %zu rebuilds\n",
              static_cast<unsigned long long>(batches * kBatchVotes *
                                              (kSessions / kRecoverStride)),
              kSessions / kRecoverStride, Min(replay_s), Median(replay_s),
              replay_s.size());
  run.e2e.Set("setup_s", FastQuantile(setup_s), "s");
  run.layers.Set("engine.open_session_ms", Median(open_ms), "ms");
  if (run.config.trace) {
    ProbeEstimators(run, streams[0].pass_votes(), scenario.num_items);
    ProbeExperiment(run);
  }
  run.e2e.Set("rss_peak_mb", PeakRssMb(), "MB");
  std::printf("memory: peak rss %.1f MB, input %.1f MB\n", PeakRssMb(),
              input_mb);
  return 0;
}

}  // namespace perfbench
