// Measurement plumbing shared by the perfbench workloads: a fixed-size
// log-linear latency histogram, the in-memory span tracer, operation
// accounting, and the result line the runner script forwards.
//
// Nothing here reaches into src/: spans wrap the benchmark's own calls into
// the library's public API.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Latency histogram with 128 linear sub-buckets per power of two (bucket
/// width <= 0.8% of its value). Memory stays fixed however many operations
/// a run completes, so a faster program does not grow its own peak RSS.
/// Quantiles interpolate inside the bucket, so they are not quantized to
/// bucket edges.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(uint64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// Value at quantile q in [0, 1], in nanoseconds (0 when empty).
  double QuantileNs(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static size_t Index(uint64_t ns);
  static uint64_t Lower(size_t index);
  static uint64_t Width(size_t index);
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Median of a sample (copies; small inputs only).
double Median(std::vector<double> values);
/// Smallest value of a sample (0 when empty).
double Min(const std::vector<double>& values);

/// Process peak resident set (VmHWM), MiB.
double PeakRssMb();

/// Succeeded / attempted over every operation the benchmark issues.
struct OpCount {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  void Note(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

// ---------------------------------------------------------------------------
// Tracing
//
// Spans are recorded only while Tracer::Active() is true (the traced run
// alternates traced and untraced segments). Each thread keeps a stack of
// open spans; a span's parent is the span open below it on the same
// thread, and nested spans inherit the operation id of their root. Spans
// stay in memory (bounded per thread) and are written when the run ends;
// per-kind totals and self times are accumulated for every span, stored or
// not.
// ---------------------------------------------------------------------------

enum class SpanKind : uint8_t {
  kEngineOpenSession,
  kEngineGetSession,
  kEngineQuery,
  kEngineIngest,
  kEngineRecover,
  kEngineMigrate,
  kSessionAddVotes,
  kSessionSnapshot,
  kSessionPublish,
  kDurabilityFlush,
  kDurabilityCheckpointRead,
  kReplicationPut,
  kReplicationList,
  kReplicationGet,
  kReplicationDelete,
  kReplicationPoll,
  kEstimatorsReport,
  kWalAppend,
  kWalCrc,
  kWalWrite,
  kExperimentRun,
  kCount,
};

/// "engine.query", ...; the text before the dot is the layer.
const char* SpanName(SpanKind kind);

class Tracer {
 public:
  static bool Active() { return active_.load(std::memory_order_relaxed); }
  static void SetActive(bool on) {
    active_.store(on, std::memory_order_relaxed);
  }
  /// Starts a new operation on this thread; spans opened until the next
  /// call carry its id.
  static void BeginOperation();

  /// Total self time per layer, in ms, over every span recorded so far.
  static std::map<std::string, double> SelfMsByLayer();
  /// Spans recorded / dropped because a thread's store was full.
  static uint64_t SpansRecorded();
  static uint64_t SpansDropped();
  /// Writes every stored span as one JSON object per line.
  static bool WriteSpans(const std::string& path);

 private:
  friend class Span;
  static std::atomic<bool> active_;
};

/// RAII span; a no-op unless the tracer is active when it opens.
class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_ = false;
};

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

/// Ordered name -> (value, unit) map printed as the run's final JSON line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Shortest round-trip decimal spelling of `value` (JSON-safe: non-finite
/// values print as 0 and are reported by the caller as a failed check).
std::string FormatDouble(double value);

/// Records a failed correctness check (printed to stderr); the run's
/// `correct` flag is the conjunction of every check.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool all_ok() const { return ok_.load(); }

 private:
  std::atomic<bool> ok_{true};
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
