// The perfbench workloads and the plumbing they share.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "crowd/vote.h"
#include "engine/replication.h"
#include "harness.h"
#include "stream.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durable state and files (a tmpfs when the
  /// machine has one; see run.py). Created and removed by the caller.
  std::string state_dir;
};

/// Everything one run reports.
struct Run {
  RunConfig config;
  /// Operations the run needs to succeed: producer calls, reader queries,
  /// set-ups, the standby drain, rebuilds. The result line's
  /// attempted / failed.
  OpCount ops;
  /// The standby's scheduled polls during ingest, which retry on the next
  /// tick. They fail on a known defect whose count depends on thread timing
  /// (see README.md), so they are counted in ok_frac and
  /// replication.poll_errors but not in the result line's counts, which
  /// must agree between runs of the same code.
  OpCount polls;
  Checks checks;
  /// The end_to_end metrics (printed when untraced).
  Metrics e2e;
  /// The per_layer metrics (printed when traced). Layers a workload does
  /// not cross keep their 0 default.
  Metrics layers;
};

int RunHotSession(Run& run);
int RunManySessions(Run& run);
int RunDurableReplicated(Run& run);

// --- Shared plumbing (common.cc) --------------------------------------------

/// Every workload runs its ingest in rounds of the same work (each
/// workload sets its own count): a fresh setup, an ingest phase of an equal
/// share of the run's votes, the checks, and the timed rebuilds. Every
/// timing is then taken from samples spread over the whole run rather than
/// one moment of it: the shared host's speed drifts by tens of percent over
/// seconds to minutes, and a figure taken in one 10-second window moved
/// with it (the fastest of 9 rebuilds taken after a single phase spread
/// 0.24-0.33 of its median over ten runs).
///
/// Timed setups per round; setup_s is taken over all of them.
inline constexpr int kSetupsPerRound = 16;
/// Chunks of the phases of a run (see Phase), over all its rounds.
inline constexpr size_t kChunksPerRun = 48;

/// The statistic every timing but recover_s reports over its samples
/// (chunks of the ingest phases, setups): their 10th percentile, the
/// figure of the run's less disturbed moments. A host slowdown only ever
/// adds time, and over ten runs the median of a run's samples spread about
/// twice as far as their 10th percentile (durable_replicated commit p50:
/// 0.14 vs 0.08). recover_s is the fastest rebuild.
inline constexpr double kFastQuantile = 0.1;
double FastQuantile(const std::vector<double>& values);

/// Producer batches of one run's measured phase: `seconds` x the
/// workload's nominal rate (the votes per second it ran at on the machine
/// the benchmark was tuned on, so the phase lasts about `seconds` there),
/// rounded up to a multiple of `multiple` batches. The work is fixed for a
/// given --seconds, so a faster program finishes sooner instead of building
/// more state, and every count and size the run reports is over the same
/// votes on both sides of a comparison.
uint64_t PhaseBatches(double seconds, double nominal_votes_per_s,
                      size_t batch_votes, uint64_t multiple);

/// One measured ingest phase: a fixed number of producer operations, cut by
/// their global order into chunks of equal work, numbered from
/// `first_chunk` so that the chunks of a run's rounds line up in one
/// ProducerStats. In a traced run the operations alternate untraced /
/// traced in 8 segments, so one run yields both rates for
/// trace.overhead_frac.
class Phase {
 public:
  Phase(uint64_t operations, bool trace, size_t first_chunk, size_t chunks);
  /// Stops the tracer and starts the clock.
  void Start();
  struct Op {
    size_t chunk;  // run-wide chunk index
    bool traced;
  };
  /// Called by a producer before each of its operations; flips the tracer
  /// at segment boundaries.
  Op Next();
  /// Called once the producers' operations are done: stops the clock and
  /// the tracer.
  void End();
  double wall_seconds() const { return Seconds(end_ - start_); }
  /// Wall time from the first operation of local chunk `chunk` to the first
  /// of the next.
  double chunk_seconds(size_t chunk) const;
  size_t chunks() const { return chunk_start_ns_.size(); }
  bool trace() const { return trace_; }
  /// Layer self times (Tracer::SelfMsByLayer) when the phase started.
  const std::map<std::string, double>& self_ms_at_start() const {
    return self_ms_at_start_;
  }

 private:
  uint64_t operations_;
  bool trace_;
  size_t first_chunk_;
  std::atomic<uint64_t> started_{0};
  std::vector<std::atomic<uint64_t>> chunk_start_ns_;
  std::map<std::string, double> self_ms_at_start_;
  Clock::time_point start_;
  Clock::time_point end_;
};

/// Per-producer tallies over every phase of a run.
struct ProducerStats {
  explicit ProducerStats(size_t chunks) : latency(chunks) {}
  /// Operation latency per run-wide chunk.
  std::vector<LatencyHistogram> latency;
  uint64_t batches = 0;
  /// Acknowledged votes and producer time of untraced / traced operations.
  uint64_t votes_untraced = 0;
  uint64_t votes_traced = 0;
  uint64_t ns_untraced = 0;
  uint64_t ns_traced = 0;
  /// Traced commits, split by the boundary they crossed.
  LatencyHistogram commit_plain;
  LatencyHistogram commit_publish;
  LatencyHistogram commit_group;
  LatencyHistogram commit_checkpoint;
  LatencyHistogram lookup;
  LatencyHistogram query;
  /// Records one acknowledged operation.
  void Count(const Phase::Op& op, uint64_t votes, uint64_t ns) {
    latency[op.chunk].Record(ns);
    batches++;
    (op.traced ? votes_traced : votes_untraced) += votes;
    (op.traced ? ns_traced : ns_untraced) += ns;
  }
};

/// Chunk times and layer self times of a run's phases, in run order.
struct PhaseTimes {
  std::vector<double> chunk_s;
  double wall_s = 0;
  /// Time after the producers' last operation that still belongs to the
  /// phase (durable_replicated's final FlushDurability).
  double tail_s = 0;
  /// Self time per layer over the traced operations of the phases only.
  std::map<std::string, double> self_ms;
  /// Adds an ended phase and, in a traced run, turns the tracer back on so
  /// that what follows (checks, rebuilds, probes) lands in the span file.
  void Add(const Phase& phase, double tail_seconds = 0.0);
};

/// Folds the producer stats of every phase: votes_per_s (votes over the
/// number of chunks x the FastQuantile chunk time, plus the tails),
/// commit_p50_us and commit_p99_us (FastQuantile of the chunks' quantiles)
/// and, traced, trace.overhead_frac and self_ms.<layer>.
void ReportPhase(Run& run, const PhaseTimes& times,
                 const std::vector<ProducerStats>& producers);

/// Fixed-schedule sleeper for readers and the standby: wakes every
/// `period`, never spins, never bursts to catch up.
class Ticker {
 public:
  explicit Ticker(std::chrono::microseconds period);
  void Wait();

 private:
  std::chrono::microseconds period_;
  Clock::time_point next_;
};

/// Sum of every counter called `name`, over all label sets.
uint64_t CounterTotal(const char* name);

/// True when `a` and `b` carry the same vote, majority and nominal counts
/// and bit-identical totals in their first `rows` estimator rows.
bool SameSnapshot(const dqm::engine::Snapshot& a,
                  const dqm::engine::Snapshot& b, size_t rows);

/// estimators.<name>.report_us for chao92 / vchao92 / switch / em-voting:
/// a standalone DataQualityMetric per estimator is fed `stream` in
/// publish-sized chunks and ReportInto is timed after each chunk.
void ProbeEstimators(Run& run, std::span<const crowd::VoteEvent> stream,
                     size_t num_items);

/// experiment.run_ms / experiment.serial_run_ms: ExperimentRunner::Run over
/// seeded restaurant-scenario logs with 3 runner threads and with 1, whose
/// series must be bit-identical. Run from many_sessions' traced run: the
/// paper_replay workload was dropped as unsteady (see README.md).
void ProbeExperiment(Run& run);

/// wal.append_ns_per_vote, wal.crc_ns_per_byte and wal.write_us from a
/// standalone VoteWal in `dir`, fed `stream` in `batch`-vote records.
void ProbeWal(Run& run, std::span<const crowd::VoteEvent> stream,
              size_t batch, size_t group_votes, const std::string& dir);

/// self_ms.<layer> from the tracer; writes the stored spans to
/// `spans_path` (to `<state_dir>/spans.jsonl` when empty).
void ReportTrace(Run& run, const std::string& spans_path);

/// Benchmark-side transport decorator for the traced run: times and counts
/// every call into the wrapped LocalDirTransport and records a span for it.
class TracingTransport : public dqm::engine::ReplicationTransport {
 public:
  explicit TracingTransport(
      std::shared_ptr<dqm::engine::ReplicationTransport> inner)
      : inner_(std::move(inner)) {}

  dqm::Status Put(const std::string& name, std::span<const uint8_t> bytes,
                  uint64_t fencing_token) override;
  dqm::Result<std::vector<std::string>> List() override;
  dqm::Result<std::vector<uint8_t>> Get(const std::string& name) override;
  dqm::Status Delete(const std::string& name) override;
  dqm::Status RaiseFence(uint64_t token) override;
  dqm::Result<uint64_t> Fence() override;

  struct PutStats {
    LatencyHistogram latency;
    uint64_t puts = 0;
    uint64_t bytes = 0;
  };
  PutStats put_stats() const;

 private:
  std::shared_ptr<dqm::engine::ReplicationTransport> inner_;
  mutable std::mutex mutex_;
  PutStats put_stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
