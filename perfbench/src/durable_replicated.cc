// durable_replicated: one durable session, panel chao92,vchao92?shift=2,
// with WAL group commit and a checkpoint cadence, shipped by a
// SessionReplicator to a LocalDirTransport. One producer runs a closed loop
// and one standby thread polls a StandbyApplier every 5 ms. The only
// workload that runs WAL encode, CRC, write and fsync, segment ship under
// the WAL lock, checkpoint writes, standby apply and recovery.
//
// Durable state lives under the run's state directory, which run.py puts
// on a tmpfs when the machine has one: the device's fsync latency is not
// the program's, and on a shared disk it dominated the spread.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "crowd/wal.h"
#include "engine/engine.h"
#include "engine/replication.h"
#include "stream.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// Batch and group-commit sizes of bench_engine_throughput's durability_wal4096
// cell (--batch=512, wal_group_commit_votes=4096).
constexpr size_t kBatchVotes = 512;
constexpr uint64_t kGroupCommitVotes = 4096;
// Not taken from elsewhere: large enough that a checkpoint is not every
// other group commit, small enough that a run writes tens of them.
constexpr uint64_t kCheckpointEveryVotes = 1 << 20;
constexpr uint64_t kCheckpointBatches = kCheckpointEveryVotes / kBatchVotes;
// Tasks per simulated pass: about three votes per item of the Product
// universe (13,022 items, 10 per task).
constexpr size_t kTasksPerPass = 4'096;
// Votes per second this workload ran at on the tuning machine (see
// PhaseBatches).
constexpr double kNominalVotesPerSecond = 4.0e6;
constexpr auto kStandbyPeriod = std::chrono::microseconds(5000);
constexpr size_t kRounds = 4;
constexpr size_t kChunksPerRound = kChunksPerRun / kRounds;
// Timed RecoverSessions rebuilds of each round's root.
constexpr int kRebuildsPerRound = 3;
constexpr double kDrainTimeoutSeconds = 90;
const std::vector<std::string> kSpecs = {"chao92", "vchao92?shift=2"};
const char kName[] = "durable";

dqm::engine::SessionOptions DurableOptions(const std::string& root) {
  dqm::engine::SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = kGroupCommitVotes;
  options.checkpoint_every_votes = kCheckpointEveryVotes;
  return options;
}

/// Primary, replicator and standby of one setup. Members are declared in
/// teardown order's reverse: the standby goes first, then the replicator
/// (which holds the session), then the primary's engine.
struct Pair {
  std::unique_ptr<dqm::engine::DqmEngine> engine;
  std::shared_ptr<dqm::engine::EstimationSession> session;
  std::shared_ptr<dqm::engine::ReplicationTransport> transport;
  std::shared_ptr<TracingTransport> traced_transport;
  std::unique_ptr<dqm::engine::SessionReplicator> replicator;
  std::unique_ptr<dqm::engine::DqmEngine> standby_engine;
  std::unique_ptr<dqm::engine::StandbyApplier> standby;
  std::string root;
  std::string ship_dir;

  ~Pair() {
    standby.reset();
    standby_engine.reset();
    replicator.reset();
    session.reset();
    engine.reset();
  }
};

dqm::Status SetUp(Pair& pair, const std::string& dir, size_t num_items,
                  bool trace) {
  pair.root = dir + "/primary";
  pair.ship_dir = dir + "/ship";
  pair.engine = std::make_unique<dqm::engine::DqmEngine>();
  DQM_ASSIGN_OR_RETURN(
      pair.session,
      pair.engine->OpenSession(kName, num_items, kSpecs,
                               DurableOptions(pair.root)));
  DQM_ASSIGN_OR_RETURN(std::unique_ptr<dqm::engine::LocalDirTransport> local,
                       dqm::engine::LocalDirTransport::Open(pair.ship_dir));
  pair.transport = std::move(local);
  if (trace) {
    pair.traced_transport = std::make_shared<TracingTransport>(pair.transport);
    pair.transport = pair.traced_transport;
  }
  DQM_ASSIGN_OR_RETURN(
      pair.replicator,
      dqm::engine::SessionReplicator::Start(pair.session, pair.transport));
  pair.standby_engine = std::make_unique<dqm::engine::DqmEngine>();
  DQM_ASSIGN_OR_RETURN(pair.standby,
                       dqm::engine::StandbyApplier::Open(*pair.standby_engine,
                                                         pair.transport));
  DQM_RETURN_NOT_OK(pair.standby->Poll());
  pair.session->Publish();
  return dqm::Status::OK();
}

}  // namespace

int RunDurableReplicated(Run& run) {
  const uint64_t seed = run.config.seed;
  // --- Inputs (before any timing): the paper's Product preset (Section
  // 6.1.2), whose hard matches most workers miss.
  const dqm::core::Scenario scenario = dqm::core::ProductScenario();
  const std::vector<bool> truth = dqm::core::BuildTruth(scenario, seed);
  const VoteStream stream(scenario, truth, kTasksPerPass, seed * 1000 + 1,
                          kBatchVotes);
  // Every round ingests the same batches. A round's phase ends half a
  // checkpoint interval past a checkpoint, so recovery always replays a
  // checkpoint plus a WAL tail of the same length.
  const uint64_t batches =
      PhaseBatches(run.config.seconds / kRounds, kNominalVotesPerSecond,
                   kBatchVotes, kCheckpointBatches) -
      kCheckpointBatches / 2;
  const uint64_t acked = batches * kBatchVotes;
  // The tallies every round's primary must end with.
  std::vector<uint64_t> positive(scenario.num_items),
      total(scenario.num_items);
  stream.AccumulateTallies(batches, positive, total);
  const ExpectedCounts expected = CountsFromTallies(positive, total, truth);
  run.checks.Expect(expected.votes == acked,
                    "durable: tallies cover acked votes");

  {
    // engine.open_session_ms: a durable open on its own, outside setup_s.
    std::vector<double> open_ms;
    dqm::engine::DqmEngine scratch;
    for (int rep = 0; rep < 15; ++rep) {
      const std::string root =
          run.config.state_dir + "/open-" + std::to_string(rep);
      const Clock::time_point o0 = Clock::now();
      dqm::Status opened;
      {
        Span span(SpanKind::kEngineOpenSession);
        opened = scratch.OpenSession(kName + std::to_string(rep),
                                     scenario.num_items, kSpecs,
                                     DurableOptions(root))
                     .status();
      }
      open_ms.push_back(Seconds(Clock::now() - o0) * 1e3);
      run.ops.Note(opened.ok());
    }
    run.layers.Set("engine.open_session_ms", Median(open_ms), "ms");
  }
  dqm::telemetry::MetricsRegistry& registry =
      dqm::telemetry::MetricsRegistry::Global();
  dqm::telemetry::Counter* fsyncs =
      registry.GetCounter(dqm::telemetry::metric_names::kWalFsyncsTotal);
  dqm::telemetry::Counter* wal_bytes =
      registry.GetCounter(dqm::telemetry::metric_names::kWalBytesWrittenTotal);
  dqm::telemetry::Counter* wal_votes =
      registry.GetCounter(dqm::telemetry::metric_names::kWalVotesTotal);

  std::vector<double> setup_s, recover_s, flush_us, catchup_ms,
      checkpoint_read_ms, errs;
  std::vector<ProducerStats> stats(1,
                                   ProducerStats(kRounds * kChunksPerRound));
  PhaseTimes times;
  uint64_t phase_fsyncs = 0, phase_wal_bytes = 0, phase_wal_votes = 0;
  uint64_t polls = 0, poll_errors = 0, resyncs = 0, restored = 0;
  LatencyHistogram poll_latency;
  TracingTransport::PutStats puts;
  double retained_mb = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    const std::string round_dir =
        run.config.state_dir + "/round-" + std::to_string(round);
    // --- Setup: durable session, replicator, standby, first snapshot;
    // kSetupsPerRound times, each in a directory of its own. `pair` keeps
    // the last, and the directories of the others are removed.
    std::unique_ptr<Pair> pair;
    for (int rep = 0; rep < kSetupsPerRound; ++rep) {
      if (pair) {
        const fs::path dir = fs::path(pair->root).parent_path();
        pair.reset();
        std::error_code ec;
        fs::remove_all(dir, ec);
      }
      const std::string dir = round_dir + "/setup-" + std::to_string(rep);
      const Clock::time_point t0 = Clock::now();
      pair = std::make_unique<Pair>();
      const dqm::Status status =
          SetUp(*pair, dir, scenario.num_items, run.config.trace);
      setup_s.push_back(Seconds(Clock::now() - t0));
      run.ops.Note(status.ok());
      if (!status.ok()) {
        std::fprintf(stderr, "setup: %s\n", status.ToString().c_str());
        return 1;
      }
    }
    dqm::engine::EstimationSession& session = *pair->session;
    const uint64_t fsyncs_before = fsyncs->Value();
    const uint64_t bytes_before = wal_bytes->Value();
    const uint64_t wal_votes_before = wal_votes->Value();

    // A failed poll (known defect: the primary's GC can delete an artifact
    // between the standby's List and Get) is counted and retried next tick.
    auto poll_once = [&] {
      const uint64_t t0 = NowNs();
      dqm::Status status;
      {
        Span span(SpanKind::kReplicationPoll);
        status = pair->standby->Poll();
      }
      poll_latency.Record(NowNs() - t0);
      polls++;
      run.polls.Note(status.ok());
      if (!status.ok()) {
        poll_errors++;
        std::fprintf(stderr, "standby poll failed (retrying next tick): %s\n",
                     status.ToString().c_str());
      }
    };

    // --- Phase: `batches` AddVotes, then the final FlushDurability.
    Phase phase(batches, run.config.trace, round * kChunksPerRound,
                kChunksPerRound);
    std::atomic<bool> producer_done{false};
    uint64_t committed = 0;
    phase.Start();
    std::thread producer([&] {
      ProducerStats& st = stats[0];
      std::vector<crowd::VoteEvent> batch(kBatchVotes);
      for (uint64_t index = 0; index < batches; ++index) {
        const Phase::Op op = phase.Next();
        stream.Batch(index, batch);
        Tracer::BeginOperation();
        const uint64_t before = session.committed_votes();
        const uint64_t syncs = op.traced ? fsyncs->Value() : 0;
        const uint64_t t0 = NowNs();
        dqm::Status status;
        {
          Span span(SpanKind::kSessionAddVotes);
          status = session.AddVotes(batch);
        }
        const uint64_t elapsed = NowNs() - t0;
        run.ops.Note(status.ok());
        if (!status.ok()) {
          run.checks.Expect(false, "durable: AddVotes: " + status.ToString());
          return;
        }
        st.Count(op, kBatchVotes, elapsed);
        committed++;
        if (!op.traced) continue;
        const uint64_t after = session.committed_votes();
        if (before / kCheckpointEveryVotes != after / kCheckpointEveryVotes) {
          st.commit_checkpoint.Record(elapsed);
        } else if (fsyncs->Value() != syncs) {
          st.commit_group.Record(elapsed);
        } else {
          st.commit_publish.Record(elapsed);  // every-batch cadence
        }
      }
    });
    std::thread standby([&] {
      Ticker ticker(kStandbyPeriod);
      while (!producer_done.load(std::memory_order_relaxed)) {
        poll_once();
        ticker.Wait();
      }
    });
    producer.join();
    phase.End();
    // The final flush closes the ingest phase; its time joins votes_per_s
    // as the phase's tail.
    uint64_t flush_ns;
    {
      const uint64_t f0 = NowNs();
      dqm::Status flushed;
      {
        Span span(SpanKind::kDurabilityFlush);
        flushed = session.FlushDurability();
      }
      flush_ns = NowNs() - f0;
      run.ops.Note(flushed.ok());
      run.checks.Expect(flushed.ok(), "durable: final flush");
    }
    producer_done = true;
    standby.join();
    times.Add(phase, flush_ns / 1e9);
    flush_us.push_back(flush_ns / 1e3);
    if (committed != batches) {
      std::fprintf(stderr, "durable: the producer stopped after %llu of %llu "
                   "batches\n", static_cast<unsigned long long>(committed),
                   static_cast<unsigned long long>(batches));
      return 1;
    }
    // Exact counts over the phase's fixed number of votes.
    phase_fsyncs += fsyncs->Value() - fsyncs_before;
    phase_wal_bytes += wal_bytes->Value() - bytes_before;
    phase_wal_votes += wal_votes->Value() - wal_votes_before;
    retained_mb = session.RetainedBytes() / 1048576.0;

    // --- Standby drain, then standby == primary.
    const Clock::time_point d0 = Clock::now();
    {
      Ticker ticker(kStandbyPeriod);
      while (pair->standby->applied_votes() != acked ||
             pair->standby->divergent()) {
        if (Seconds(Clock::now() - d0) > kDrainTimeoutSeconds) break;
        poll_once();
        ticker.Wait();
      }
    }
    catchup_ms.push_back(Seconds(Clock::now() - d0) * 1e3);
    const bool drained = pair->standby->applied_votes() == acked;
    run.ops.Note(drained);
    run.checks.Expect(drained,
                      "durable: standby drained every acknowledged vote");
    session.Publish();
    const dqm::engine::Snapshot primary_snap = session.snapshot();
    pair->standby->session()->Publish();
    run.checks.Expect(
        SameSnapshot(pair->standby->session()->snapshot(), primary_snap,
                     kSpecs.size()),
        "durable: standby equals the primary on tallies and estimates");
    resyncs += pair->standby->resyncs();
    if (pair->traced_transport) {
      const TracingTransport::PutStats round_puts =
          pair->traced_transport->put_stats();
      puts.latency.Merge(round_puts.latency);
      puts.puts += round_puts.puts;
      puts.bytes += round_puts.bytes;
    }

    // --- Ground truth of the acknowledged stream.
    run.checks.Expect(primary_snap.num_votes == acked,
                      "durable: session num_votes equals acknowledged votes");
    run.checks.Expect(primary_snap.majority_count == expected.majority &&
                          primary_snap.nominal_count == expected.nominal,
                      "durable: majority/nominal counts match the stream");
    errs.push_back(std::fabs(primary_snap.estimated_total_errors -
                             static_cast<double>(expected.dirty_seen)));

    // --- Recovery of the primary's durability root on fresh engines; the
    // root holds the same votes in every round and every run with the same
    // --seconds.
    const std::string checkpoint_path =
        session.durability_engine()->checkpoint_path();
    pair->replicator->Stop();
    const std::string root = pair->root;
    pair.reset();  // closes the primary's WAL
    for (int rep = 0; rep < kRebuildsPerRound; ++rep) {
      dqm::engine::DqmEngine recovered;
      const Clock::time_point r0 = Clock::now();
      auto report = [&] {
        Span span(SpanKind::kEngineRecover);
        return recovered.RecoverSessions(root);
      }();
      recover_s.push_back(Seconds(Clock::now() - r0));
      run.ops.Note(report.ok());
      run.checks.Expect(report.ok() && report.value().size() == 1,
                        "durable: recovery found the session");
      if (!report.ok() || report.value().size() != 1) break;
      restored = report.value()[0].votes_restored;
      run.checks.Expect(restored == acked,
                        "durable: recovery restored every acknowledged vote");
      auto rebuilt = recovered.Query(kName);
      run.checks.Expect(rebuilt.ok() &&
                            SameSnapshot(rebuilt.value(), primary_snap,
                                         kSpecs.size()),
                        "durable: recovered session equals the primary");
    }
    {
      const Clock::time_point c0 = Clock::now();
      bool read_ok;
      {
        Span span(SpanKind::kDurabilityCheckpointRead);
        read_ok = dqm::crowd::ReadCheckpointFile(checkpoint_path).ok();
      }
      checkpoint_read_ms.push_back(Seconds(Clock::now() - c0) * 1e3);
      run.ops.Note(read_ok);
      run.checks.Expect(read_ok, "durable: checkpoint file reads back");
    }
    std::error_code ec;
    fs::remove_all(round_dir, ec);
  }

  ReportPhase(run, times, stats);
  // The same votes give the same closed-form estimate in every round.
  run.checks.Expect(Min(errs) == Median(errs) && Median(errs) == errs.back(),
                    "durable: every round ends with the same estimate");
  run.e2e.Set("est_abs_err", errs.back(), "items");
  std::printf("durable: CHAO92 abs err %.3f (truth %zu); %llu polls (%llu "
              "failed), %llu resyncs, catch-up %.1f ms median\n",
              errs.back(), expected.dirty_seen,
              static_cast<unsigned long long>(polls),
              static_cast<unsigned long long>(poll_errors),
              static_cast<unsigned long long>(resyncs), Median(catchup_ms));
  run.e2e.Set("recover_s", Min(recover_s), "s");
  std::printf("recover: %llu votes restored in %.3f s at best, %.3f s "
              "median, over %zu rebuilds\n",
              static_cast<unsigned long long>(restored), Min(recover_s),
              Median(recover_s), recover_s.size());
  run.layers.Set("durability.fsyncs", static_cast<double>(phase_fsyncs),
                 "count");
  run.layers.Set("wal.bytes_per_vote",
                 phase_wal_votes ? static_cast<double>(phase_wal_bytes) /
                                       phase_wal_votes
                                 : 0.0,
                 "bytes");
  run.layers.Set("durability.flush_us", Median(flush_us), "us");
  run.layers.Set("durability.group_commit_us",
                 stats[0].commit_group.QuantileNs(0.5) / 1e3, "us");
  run.layers.Set("durability.checkpoint_commit_ms",
                 stats[0].commit_checkpoint.QuantileNs(0.5) / 1e6, "ms");
  run.layers.Set("session.publish_commit_us",
                 stats[0].commit_publish.QuantileNs(0.5) / 1e3, "us");
  run.layers.Set("session.retained_mb", retained_mb, "MB");
  run.layers.Set("replication.catchup_ms", Median(catchup_ms), "ms");
  run.layers.Set("replication.poll_ms", poll_latency.QuantileNs(0.5) / 1e6,
                 "ms");
  run.layers.Set("replication.resyncs", static_cast<double>(resyncs),
                 "count");
  run.layers.Set("replication.poll_errors", static_cast<double>(poll_errors),
                 "count");
  if (run.config.trace) {
    run.layers.Set("replication.put_p50_us", puts.latency.QuantileNs(0.5) / 1e3,
                   "us");
    run.layers.Set("replication.put_p99_us",
                   puts.latency.QuantileNs(0.99) / 1e3, "us");
    run.layers.Set("replication.puts", static_cast<double>(puts.puts),
                   "count");
    run.layers.Set("replication.ship_bytes_per_vote",
                   static_cast<double>(puts.bytes) / (acked * kRounds),
                   "bytes");
  }
  run.layers.Set("durability.recover_votes_replayed",
                 static_cast<double>(restored), "count");
  run.layers.Set("durability.checkpoint_read_ms", Median(checkpoint_read_ms),
                 "ms");
  run.e2e.Set("setup_s", FastQuantile(setup_s), "s");
  if (run.config.trace) {
    ProbeEstimators(run, stream.pass_votes(), scenario.num_items);
    ProbeWal(run, stream.pass_votes(), kBatchVotes, kGroupCommitVotes,
             run.config.state_dir);
  }
  run.e2e.Set("rss_peak_mb", PeakRssMb(), "MB");
  std::printf("memory: peak rss %.1f MB, input %.1f MB\n", PeakRssMb(),
              stream.bytes() / 1048576.0);
  return 0;
}

}  // namespace perfbench
