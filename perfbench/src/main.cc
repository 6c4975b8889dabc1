// perfbench: the DQM engine benchmark.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --state_dir=<dir> [--spans_out=<file>]
//
// Generates the workload's inputs from the seed, sets up, measures for the
// given seconds, checks the outputs, and prints one JSON line last:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// (untraced) or the per-layer ledger (traced). perfbench/run.py builds this
// program and forwards that line.

#include <linux/magic.h>
#include <sys/vfs.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. A workload that does not
// cross a layer reports 0 for it.
constexpr LayerMetric kLayerMetrics[] = {
    {"engine.open_session_ms", "ms"},
    {"engine.lookup_us", "us"},
    {"engine.query_us", "us"},
    {"session.commit_us", "us"},
    {"session.publish_commit_us", "us"},
    {"session.stripe_lock_wait_ms", "ms"},
    {"session.retained_mb", "MB"},
    {"estimators.chao92.report_us", "us"},
    {"estimators.vchao92.report_us", "us"},
    {"estimators.switch.report_us", "us"},
    {"estimators.em-voting.report_us", "us"},
    {"wal.append_ns_per_vote", "ns"},
    {"wal.crc_ns_per_byte", "ns"},
    {"wal.write_us", "us"},
    {"wal.bytes_per_vote", "bytes"},
    {"durability.fsyncs", "count"},
    {"durability.group_commit_us", "us"},
    {"durability.checkpoint_commit_ms", "ms"},
    {"durability.flush_us", "us"},
    {"durability.recover_votes_replayed", "count"},
    {"durability.checkpoint_read_ms", "ms"},
    {"replication.put_p50_us", "us"},
    {"replication.put_p99_us", "us"},
    {"replication.puts", "count"},
    {"replication.ship_bytes_per_vote", "bytes"},
    {"replication.poll_ms", "ms"},
    {"replication.resyncs", "count"},
    {"replication.poll_errors", "count"},
    {"replication.catchup_ms", "ms"},
    {"experiment.run_ms", "ms"},
    {"experiment.serial_run_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"self_ms.engine", "ms"},
    {"self_ms.session", "ms"},
    {"self_ms.durability", "ms"},
    {"self_ms.replication", "ms"},
    {"self_ms.estimators", "ms"},
    {"self_ms.wal", "ms"},
    {"self_ms.experiment", "ms"},
};

bool ParseFlag(std::string_view arg, std::string_view name, std::string* out) {
  const std::string prefix = "--" + std::string(name) + "=";
  if (arg.substr(0, prefix.size()) != prefix) return false;
  *out = std::string(arg.substr(prefix.size()));
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=<hot_session|"
               "many_sessions|durable_replicated> --seed=<n> "
               "--seconds=<s> --trace=<0|1> --state_dir=<dir> "
               "[--spans_out=<file>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  dqm::SetLogLevel(dqm::LogLevel::kWarning);
  Run run;
  std::string seed, seconds, trace, spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!ParseFlag(arg, "workload", &run.config.workload) &&
        !ParseFlag(arg, "seed", &seed) &&
        !ParseFlag(arg, "seconds", &seconds) &&
        !ParseFlag(arg, "trace", &trace) &&
        !ParseFlag(arg, "state_dir", &run.config.state_dir) &&
        !ParseFlag(arg, "spans_out", &spans_out)) {
      return Usage("unknown argument");
    }
  }
  if (seed.empty() || seconds.empty() || run.config.state_dir.empty()) {
    return Usage("missing argument");
  }
  run.config.seed = std::strtoull(seed.c_str(), nullptr, 10);
  run.config.seconds = std::strtod(seconds.c_str(), nullptr);
  run.config.trace = trace == "1";
  if (!(run.config.seconds > 0)) return Usage("--seconds must be positive");

  for (const LayerMetric& m : kLayerMetrics) run.layers.Set(m.name, 0.0, m.unit);
  struct statfs fs {};
  const bool tmpfs = statfs(run.config.state_dir.c_str(), &fs) == 0 &&
                     fs.f_type == TMPFS_MAGIC;
  std::printf("config: workload %s, seed %llu, %g s, state on %s\n",
              run.config.workload.c_str(),
              static_cast<unsigned long long>(run.config.seed),
              run.config.seconds, tmpfs ? "tmpfs" : "a non-tmpfs filesystem");
  if (!tmpfs) {
    std::fprintf(stderr, "perfbench: WARNING: state directory %s is not on "
                 "a tmpfs; durable figures include the device\n",
                 run.config.state_dir.c_str());
  }

  int rc = 0;
  if (run.config.workload == "hot_session") {
    rc = RunHotSession(run);
  } else if (run.config.workload == "many_sessions") {
    rc = RunManySessions(run);
  } else if (run.config.workload == "durable_replicated") {
    rc = RunDurableReplicated(run);
  } else {
    return Usage("unknown workload");
  }
  if (rc != 0) return rc;
  if (run.config.trace) ReportTrace(run, spans_out);

  const uint64_t attempted = run.ops.attempted.load();
  const uint64_t failed = run.ops.failed.load();
  const uint64_t polls = run.polls.attempted.load();
  const uint64_t failed_polls = run.polls.failed.load();
  const uint64_t all = attempted + polls;
  const uint64_t all_ok = all - failed - failed_polls;
  run.e2e.Set("ok_frac", all ? static_cast<double>(all_ok) / all : 0.0,
              "ratio");
  std::printf("ok_frac: %llu of %llu operations succeeded (%llu of %llu "
              "required operations, %llu of %llu standby polls)\n",
              static_cast<unsigned long long>(all_ok),
              static_cast<unsigned long long>(all),
              static_cast<unsigned long long>(attempted - failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(polls - failed_polls),
              static_cast<unsigned long long>(polls));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              run.checks.all_ok() && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              run.config.trace ? run.layers.Json().c_str()
                               : run.e2e.Json().c_str());
  return 0;
}
