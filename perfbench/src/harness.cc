#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

// --- LatencyHistogram -----------------------------------------------------

LatencyHistogram::LatencyHistogram() : buckets_((64 - kSubBits + 1) * kSub) {}

size_t LatencyHistogram::Index(uint64_t ns) {
  if (ns < kSub) return static_cast<size_t>(ns);
  const int shift = std::bit_width(ns) - 1 - kSubBits;
  return (static_cast<size_t>(shift) + 1) * kSub +
         static_cast<size_t>((ns >> shift) - kSub);
}

uint64_t LatencyHistogram::Lower(size_t index) {
  if (index < kSub) return index;
  const size_t shift = index / kSub - 1;
  return (kSub + index % kSub) << shift;
}

uint64_t LatencyHistogram::Width(size_t index) {
  return index < kSub ? 1 : uint64_t{1} << (index / kSub - 1);
}

void LatencyHistogram::Record(uint64_t ns) {
  buckets_[Index(ns)]++;
  count_++;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::QuantileNs(double q) const {
  if (count_ == 0) return 0.0;
  // Rank of the q-quantile among count_ samples (0-based, continuous).
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (static_cast<double>(seen + buckets_[i]) > rank) {
      // Spread the bucket's samples evenly over its width.
      const double within = (rank - static_cast<double>(seen) + 0.5) /
                            static_cast<double>(buckets_[i]);
      return static_cast<double>(Lower(i)) +
             within * static_cast<double>(Width(i));
    }
    seen += buckets_[i];
  }
  return static_cast<double>(Lower(buckets_.size() - 1));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Tracer ---------------------------------------------------------------

namespace {

constexpr size_t kKinds = static_cast<size_t>(SpanKind::kCount);
// Bounds the in-memory span store; totals keep accumulating past it.
constexpr size_t kMaxStoredSpansPerThread = 50'000;

struct SpanRecord {
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t op_id;
  uint32_t parent;  // 1-based index into the thread's store; 0 = root
  uint32_t thread;
  SpanKind kind;
};

struct Frame {
  SpanKind kind;
  uint64_t start_ns;
  uint64_t child_ns;
  uint32_t stored_index;  // 1-based; 0 when not stored
};

struct ThreadTrace {
  uint32_t thread = 0;
  uint32_t op_id = 0;
  std::vector<Frame> stack;
  std::vector<SpanRecord> spans;
  uint64_t dropped = 0;
  uint64_t self_ns[kKinds] = {};
};

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

std::vector<std::unique_ptr<ThreadTrace>>& Registry() {
  static std::vector<std::unique_ptr<ThreadTrace>> traces;
  return traces;
}

ThreadTrace& Local() {
  thread_local ThreadTrace* local = [] {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    auto trace = std::make_unique<ThreadTrace>();
    trace->thread = static_cast<uint32_t>(Registry().size());
    trace->spans.reserve(4096);
    Registry().push_back(std::move(trace));
    return Registry().back().get();
  }();
  return *local;
}

constexpr const char* kSpanNames[kKinds] = {
    "engine.open_session",   "engine.get_session",
    "engine.query",          "engine.ingest",
    "engine.recover_sessions", "engine.migrate_session",
    "session.add_votes",     "session.snapshot",
    "session.publish",       "durability.flush",
    "durability.checkpoint_read", "replication.put",
    "replication.list",      "replication.get",
    "replication.delete",    "replication.poll",
    "estimators.report",     "wal.append",
    "wal.crc",               "wal.write",
    "experiment.run",
};

}  // namespace

std::atomic<bool> Tracer::active_{false};

const char* SpanName(SpanKind kind) {
  return kSpanNames[static_cast<size_t>(kind)];
}

void Tracer::BeginOperation() { Local().op_id++; }

Span::Span(SpanKind kind) {
  if (!Tracer::Active()) return;
  on_ = true;
  ThreadTrace& t = Local();
  uint32_t stored = 0;
  if (t.spans.size() < kMaxStoredSpansPerThread) {
    const uint32_t parent = t.stack.empty() ? 0 : t.stack.back().stored_index;
    t.spans.push_back({0, 0, t.op_id, parent, t.thread, kind});
    stored = static_cast<uint32_t>(t.spans.size());
  } else {
    t.dropped++;
  }
  t.stack.push_back({kind, NowNs(), 0, stored});
}

Span::~Span() {
  if (!on_) return;
  const uint64_t end = NowNs();
  ThreadTrace& t = Local();
  Frame frame = t.stack.back();
  t.stack.pop_back();
  const uint64_t duration = end - frame.start_ns;
  t.self_ns[static_cast<size_t>(frame.kind)] +=
      duration - std::min(duration, frame.child_ns);
  if (!t.stack.empty()) t.stack.back().child_ns += duration;
  if (frame.stored_index != 0) {
    SpanRecord& record = t.spans[frame.stored_index - 1];
    record.start_ns = frame.start_ns;
    record.end_ns = end;
  }
}

std::map<std::string, double> Tracer::SelfMsByLayer() {
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (size_t k = 0; k < kKinds; ++k) {
    std::string name = kSpanNames[k];
    out[name.substr(0, name.find('.'))] += 0.0;
  }
  for (const auto& t : Registry()) {
    for (size_t k = 0; k < kKinds; ++k) {
      std::string name = kSpanNames[k];
      out[name.substr(0, name.find('.'))] += t->self_ns[k] / 1e6;
    }
  }
  return out;
}

uint64_t Tracer::SpansRecorded() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  uint64_t n = 0;
  for (const auto& t : Registry()) n += t->spans.size();
  return n;
}

uint64_t Tracer::SpansDropped() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  uint64_t n = 0;
  for (const auto& t : Registry()) n += t->dropped;
  return n;
}

bool Tracer::WriteSpans(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (const auto& t : Registry()) {
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRecord& s = t->spans[i];
      std::fprintf(out,
                   "{\"id\":\"%u.%zu\",\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":\"%s\",\"op\":\"%u.%u\"}\n",
                   s.thread, i + 1, SpanName(s.kind),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   s.parent == 0
                       ? ""
                       : (std::to_string(s.thread) + "." +
                          std::to_string(s.parent))
                             .c_str(),
                   s.thread, s.op_id);
    }
  }
  return std::fclose(out) == 0;
}

// --- Result line ----------------------------------------------------------

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string Metrics::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + items_[i].first + "\": {\"value\": " +
           FormatDouble(items_[i].second.first) + ", \"unit\": \"" +
           items_[i].second.second + "\"}";
  }
  return out + "}";
}

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  ok_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

}  // namespace perfbench
