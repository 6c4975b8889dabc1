#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/logging.h"
#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "crowd/wal.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {

// --- Phase ------------------------------------------------------------------

namespace {
constexpr uint64_t kTraceSegments = 8;
}  // namespace

double FastQuantile(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  // Linear interpolation between the two nearest ranks.
  const double rank = kFastQuantile * (sorted.size() - 1);
  const size_t lower = static_cast<size_t>(rank);
  const size_t upper = std::min(lower + 1, sorted.size() - 1);
  return sorted[lower] + (sorted[upper] - sorted[lower]) * (rank - lower);
}

uint64_t PhaseBatches(double seconds, double nominal_votes_per_s,
                      size_t batch_votes, uint64_t multiple) {
  const double batches = seconds * nominal_votes_per_s / batch_votes;
  const uint64_t units =
      static_cast<uint64_t>(std::ceil(batches / static_cast<double>(multiple)));
  return std::max<uint64_t>(units, 1) * multiple;
}

Phase::Phase(uint64_t operations, bool trace, size_t first_chunk,
             size_t chunks)
    : operations_(operations),
      trace_(trace),
      first_chunk_(first_chunk),
      chunk_start_ns_(chunks) {
  DQM_CHECK_GE(operations, chunks);
}

void Phase::Start() {
  Tracer::SetActive(false);
  self_ms_at_start_ = Tracer::SelfMsByLayer();
  start_ = Clock::now();
}

Phase::Op Phase::Next() {
  const uint64_t op = started_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t chunks = chunk_start_ns_.size();
  const size_t chunk = static_cast<size_t>(op * chunks / operations_);
  if (op == 0 || (op - 1) * chunks / operations_ != chunk) {
    chunk_start_ns_[chunk].store(NowNs(), std::memory_order_relaxed);
  }
  if (!trace_) return {first_chunk_ + chunk, false};
  const bool traced = op * kTraceSegments / operations_ % 2 == 1;
  if (Tracer::Active() != traced) Tracer::SetActive(traced);
  return {first_chunk_ + chunk, traced};
}

void Phase::End() {
  end_ = Clock::now();
  Tracer::SetActive(false);
}

double Phase::chunk_seconds(size_t chunk) const {
  const uint64_t begin = chunk_start_ns_[chunk].load();
  const uint64_t end =
      chunk + 1 < chunk_start_ns_.size()
          ? chunk_start_ns_[chunk + 1].load()
          : static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    end_.time_since_epoch())
                    .count());
  return (end - begin) / 1e9;
}

void PhaseTimes::Add(const Phase& phase, double tail_seconds) {
  for (size_t c = 0; c < phase.chunks(); ++c) {
    chunk_s.push_back(phase.chunk_seconds(c));
  }
  wall_s += phase.wall_seconds();
  tail_s += tail_seconds;
  if (!phase.trace()) return;
  const std::map<std::string, double>& before = phase.self_ms_at_start();
  for (const auto& [layer, ms] : Tracer::SelfMsByLayer()) {
    const auto it = before.find(layer);
    self_ms[layer] += ms - (it == before.end() ? 0.0 : it->second);
  }
  Tracer::SetActive(true);
}

void ReportPhase(Run& run, const PhaseTimes& times,
                 const std::vector<ProducerStats>& producers) {
  uint64_t votes_off = 0, votes_on = 0, ns_off = 0, ns_on = 0;
  LatencyHistogram all;
  std::vector<double> chunk_p50, chunk_p99;
  const size_t chunks = times.chunk_s.size();
  for (size_t c = 0; c < chunks; ++c) {
    LatencyHistogram chunk;
    for (const ProducerStats& p : producers) chunk.Merge(p.latency[c]);
    all.Merge(chunk);
    chunk_p50.push_back(chunk.QuantileNs(0.50) / 1e3);
    chunk_p99.push_back(chunk.QuantileNs(0.99) / 1e3);
  }
  for (const ProducerStats& p : producers) {
    votes_off += p.votes_untraced;
    votes_on += p.votes_traced;
    ns_off += p.ns_untraced;
    ns_on += p.ns_traced;
  }
  const uint64_t votes = votes_off + votes_on;
  const double robust_s = FastQuantile(times.chunk_s) * chunks + times.tail_s;
  run.e2e.Set("votes_per_s", votes / robust_s, "1/s");
  run.e2e.Set("commit_p50_us", FastQuantile(chunk_p50), "us");
  run.e2e.Set("commit_p99_us", FastQuantile(chunk_p99), "us");
  std::printf("phase: %llu votes in %.3f s wall + %.3f s tail: %.0f votes/s "
              "overall, %.0f votes/s from the 10th percentile of %zu chunks\n",
              static_cast<unsigned long long>(votes), times.wall_s,
              times.tail_s, votes / (times.wall_s + times.tail_s),
              votes / robust_s, chunks);
  std::printf("latency: %llu operations (%llu per chunk, %llu beyond each "
              "chunk's p99); overall p50 %.2f us, p99 %.2f us\n",
              static_cast<unsigned long long>(all.count()),
              static_cast<unsigned long long>(all.count() / chunks),
              static_cast<unsigned long long>(all.count() / chunks / 100),
              all.QuantileNs(0.50) / 1e3, all.QuantileNs(0.99) / 1e3);
  if (!run.config.trace) return;
  // Votes per second of producer time, untraced vs traced operations: in a
  // closed loop that is the ratio of the two segments' ingest rates.
  const double rate_off = ns_off ? votes_off * 1e9 / ns_off : 0.0;
  const double rate_on = ns_on ? votes_on * 1e9 / ns_on : 0.0;
  run.layers.Set("trace.overhead_frac",
                 rate_off > 0 ? 1.0 - rate_on / rate_off : 0.0, "ratio");
  std::printf("trace: untraced %.0f votes/s, traced %.0f votes/s of "
              "producer time\n",
              rate_off, rate_on);
  for (const auto& [layer, ms] : times.self_ms) {
    run.layers.Set("self_ms." + layer, ms, "ms");
  }
}

// --- Ticker -----------------------------------------------------------------

Ticker::Ticker(std::chrono::microseconds period)
    : period_(period), next_(Clock::now() + period) {}

void Ticker::Wait() {
  std::this_thread::sleep_until(next_);
  const Clock::time_point now = Clock::now();
  next_ += period_;
  // Late by more than one period: restart the schedule from now instead of
  // firing a burst of back-to-back wakeups.
  if (next_ < now) next_ = now + period_;
}

bool SameSnapshot(const dqm::engine::Snapshot& a,
                  const dqm::engine::Snapshot& b, size_t rows) {
  if (a.num_votes != b.num_votes || a.majority_count != b.majority_count ||
      a.nominal_count != b.nominal_count || a.estimates.size() < rows ||
      b.estimates.size() < rows) {
    return false;
  }
  for (size_t i = 0; i < rows; ++i) {
    if (a.estimates[i].total_errors != b.estimates[i].total_errors ||
        a.estimates[i].undetected_errors != b.estimates[i].undetected_errors) {
      return false;
    }
  }
  return true;
}

uint64_t CounterTotal(const char* name) {
  uint64_t total = 0;
  for (const auto& counter :
       dqm::telemetry::MetricsRegistry::Global().Collect().counters) {
    if (counter.name == name) total += counter.value;
  }
  return total;
}

// --- Layer probes -----------------------------------------------------------

void ProbeEstimators(Run& run, std::span<const crowd::VoteEvent> stream,
                     size_t num_items) {
  // One publish's worth of new votes between reports, as the sessions do.
  constexpr size_t kChunk = 4096;
  constexpr size_t kMaxReports = 48;
  for (const char* spec : {"chao92", "vchao92?shift=2", "switch", "em-voting"}) {
    auto metric = dqm::core::DataQualityMetric::Create(
        num_items, std::vector<std::string>{spec},
        dqm::crowd::RetentionPolicy::kCounts);
    run.checks.Expect(metric.ok(), std::string("create metric ") + spec);
    if (!metric.ok()) continue;
    dqm::core::DataQualityMetric::QualityReport report;
    std::vector<double> us;
    for (size_t begin = 0; begin < stream.size() && us.size() < kMaxReports;
         begin += kChunk) {
      const size_t end = std::min(stream.size(), begin + kChunk);
      for (size_t i = begin; i < end; ++i) {
        const crowd::VoteEvent& v = stream[i];
        metric.value().AddVote(v.task, v.worker, v.item,
                               v.vote == crowd::Vote::kDirty);
      }
      Tracer::BeginOperation();
      const uint64_t t0 = NowNs();
      {
        Span span(SpanKind::kEstimatorsReport);
        metric.value().ReportInto(report);
      }
      us.push_back((NowNs() - t0) / 1e3);
    }
    std::string name = spec;
    name = name.substr(0, name.find('?'));
    run.layers.Set("estimators." + name + ".report_us", Median(us), "us");
  }
}

void ProbeExperiment(Run& run) {
  // The paper's accuracy protocol on its restaurant scenario: r task-order
  // permutations per log, the estimator panel of Figure 3.
  constexpr size_t kLogs = 16;
  constexpr size_t kTasks = 600;
  const std::vector<std::string> specs = {"switch", "chao92",
                                          "vchao92?shift=2", "voting"};
  const dqm::core::Scenario scenario = dqm::core::RestaurantScenario();
  dqm::core::ExperimentRunner::Config config;
  config.permutations = 15;
  config.seed = run.config.seed;
  config.threads = 3;
  const dqm::core::ExperimentRunner parallel(config);
  config.threads = 1;
  const dqm::core::ExperimentRunner serial(config);
  std::vector<double> parallel_ms, serial_ms;
  bool identical = true;
  for (size_t i = 0; i < kLogs; ++i) {
    const dqm::core::SimulatedRun sim = dqm::core::SimulateScenario(
        scenario, kTasks, run.config.seed * 4099 + i);
    Tracer::BeginOperation();
    uint64_t t0 = NowNs();
    auto threaded = [&] {
      Span span(SpanKind::kExperimentRun);
      return parallel.Run(sim.log, scenario.num_items, specs);
    }();
    parallel_ms.push_back((NowNs() - t0) / 1e6);
    t0 = NowNs();
    auto single = [&] {
      Span span(SpanKind::kExperimentRun);
      return serial.Run(sim.log, scenario.num_items, specs);
    }();
    serial_ms.push_back((NowNs() - t0) / 1e6);
    const bool ok = threaded.ok() && single.ok();
    run.ops.Note(ok);
    identical = identical && ok &&
                threaded.value().size() == single.value().size();
    for (size_t s = 0; identical && s < threaded.value().size(); ++s) {
      identical = threaded.value()[s].mean == single.value()[s].mean &&
                  threaded.value()[s].std_dev == single.value()[s].std_dev;
    }
  }
  run.checks.Expect(identical,
                    "experiment: threads=1 replay is bit-identical to "
                    "threads=3");
  run.layers.Set("experiment.run_ms", Median(parallel_ms), "ms");
  run.layers.Set("experiment.serial_run_ms", Median(serial_ms), "ms");
}

void ProbeWal(Run& run, std::span<const crowd::VoteEvent> stream, size_t batch,
              size_t group_votes, const std::string& dir) {
  const std::string path = dir + "/probe_wal.log";
  auto wal = dqm::crowd::VoteWal::Open(path);
  run.checks.Expect(wal.ok(), "open probe WAL");
  if (!wal.ok()) return;
  // Append cost per vote and write(2) cost per group, as the session's
  // group commit issues them (no fsync: that is the device, not the layer).
  uint64_t append_ns = 0, appended = 0;
  std::vector<double> write_us;
  size_t pending = 0;
  for (size_t begin = 0; begin + batch <= stream.size(); begin += batch) {
    std::span<const crowd::VoteEvent> records = stream.subspan(begin, batch);
    Tracer::BeginOperation();
    const uint64_t t0 = NowNs();
    {
      Span span(SpanKind::kWalAppend);
      wal.value().Append(records);
    }
    append_ns += NowNs() - t0;
    appended += batch;
    pending += batch;
    if (pending >= group_votes) {
      const uint64_t w0 = NowNs();
      dqm::Status st;
      {
        Span span(SpanKind::kWalWrite);
        st = wal.value().WriteBuffered();
      }
      write_us.push_back((NowNs() - w0) / 1e3);
      run.checks.Expect(st.ok(), "probe WAL write");
      pending = 0;
    }
  }
  run.layers.Set("wal.append_ns_per_vote",
                 appended ? static_cast<double>(append_ns) / appended : 0.0,
                 "ns");
  run.layers.Set("wal.write_us", Median(write_us), "us");

  // CRC over the votes in the WAL's 13-byte vote layout, 64 KiB at a time.
  std::vector<uint8_t> bytes;
  bytes.reserve(stream.size() * 13);
  for (const crowd::VoteEvent& v : stream) {
    for (uint32_t word : {v.task, v.worker, v.item}) {
      for (int shift = 0; shift < 32; shift += 8) {
        bytes.push_back(static_cast<uint8_t>(word >> shift));
      }
    }
    bytes.push_back(static_cast<uint8_t>(v.vote));
  }
  constexpr size_t kBlock = 1 << 16;
  std::vector<double> ns_per_byte;
  uint32_t crc = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t begin = 0; begin + kBlock <= bytes.size(); begin += kBlock) {
      const uint64_t t0 = NowNs();
      {
        Span span(SpanKind::kWalCrc);
        crc = dqm::crowd::Crc32(bytes.data() + begin, kBlock, crc);
      }
      ns_per_byte.push_back(static_cast<double>(NowNs() - t0) / kBlock);
    }
  }
  run.layers.Set("wal.crc_ns_per_byte", Median(ns_per_byte), "ns");
  std::printf("wal probe: crc %08x over %zu bytes\n", crc, bytes.size());
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

void ReportTrace(Run& run, const std::string& spans_path) {
  const std::string path =
      spans_path.empty() ? run.config.state_dir + "/spans.jsonl" : spans_path;
  const bool written = Tracer::WriteSpans(path);
  run.checks.Expect(written, "write spans to " + path);
  std::printf("trace: %llu spans stored (%llu beyond the per-thread cap) -> "
              "%s\n",
              static_cast<unsigned long long>(Tracer::SpansRecorded()),
              static_cast<unsigned long long>(Tracer::SpansDropped()),
              path.c_str());
}

// --- TracingTransport ---------------------------------------------------------

dqm::Status TracingTransport::Put(const std::string& name,
                                  std::span<const uint8_t> bytes,
                                  uint64_t fencing_token) {
  const uint64_t t0 = NowNs();
  dqm::Status st;
  {
    Span span(SpanKind::kReplicationPut);
    st = inner_->Put(name, bytes, fencing_token);
  }
  const uint64_t elapsed = NowNs() - t0;
  std::lock_guard<std::mutex> lock(mutex_);
  put_stats_.latency.Record(elapsed);
  put_stats_.puts++;
  put_stats_.bytes += bytes.size();
  return st;
}

dqm::Result<std::vector<std::string>> TracingTransport::List() {
  Span span(SpanKind::kReplicationList);
  return inner_->List();
}

dqm::Result<std::vector<uint8_t>> TracingTransport::Get(
    const std::string& name) {
  Span span(SpanKind::kReplicationGet);
  return inner_->Get(name);
}

dqm::Status TracingTransport::Delete(const std::string& name) {
  Span span(SpanKind::kReplicationDelete);
  return inner_->Delete(name);
}

dqm::Status TracingTransport::RaiseFence(uint64_t token) {
  return inner_->RaiseFence(token);
}

dqm::Result<uint64_t> TracingTransport::Fence() { return inner_->Fence(); }

TracingTransport::PutStats TracingTransport::put_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return put_stats_;
}

}  // namespace perfbench
