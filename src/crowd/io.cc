#include "crowd/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"

namespace dqm::crowd::io {

namespace {

/// RetryOptions, decomposed into atomics so readers on the I/O paths never
/// take a lock (Set is a setup-path operation).
std::atomic<int> g_max_attempts{RetryOptions{}.max_attempts};
std::atomic<uint64_t> g_backoff_initial_us{RetryOptions{}.backoff_initial_us};
std::atomic<uint64_t> g_backoff_max_us{RetryOptions{}.backoff_max_us};

struct IoMetrics {
  telemetry::Counter* retries;
  telemetry::Counter* exhausted;
};

const IoMetrics& Metrics() {
  static const IoMetrics metrics = [] {
    auto& registry = telemetry::MetricsRegistry::Global();
    namespace names = telemetry::metric_names;
    return IoMetrics{registry.GetCounter(names::kWalRetriesTotal),
                     registry.GetCounter(names::kWalRetryExhaustedTotal)};
  }();
  return metrics;
}

Status ErrnoError(const char* op, const std::string& path, int err) {
  return Status::IOError(
      StrFormat("%s '%s': %s", op, path.c_str(), std::strerror(err)));
}

/// One syscall's transient-errno budget: the first transient error retries
/// immediately, later ones back off exponentially up to the cap.
class TransientRetrier {
 public:
  TransientRetrier()
      : retries_left_(g_max_attempts.load(std::memory_order_relaxed) - 1),
        backoff_us_(g_backoff_initial_us.load(std::memory_order_relaxed)),
        backoff_max_us_(g_backoff_max_us.load(std::memory_order_relaxed)) {}

  /// True if `err` is transient and budget remains — the caller loops. The
  /// exhaustion counter only ticks when a transient error RAN OUT of
  /// budget; non-transient errors surface without touching either counter.
  bool ShouldRetry(int err) {
    if (!IsTransientErrno(err)) return false;
    if (retries_left_ <= 0) {
      Metrics().exhausted->Increment();
      return false;
    }
    --retries_left_;
    Metrics().retries->Increment();
    if (slept_once_) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us_));
      backoff_us_ = std::min(backoff_us_ * 2, backoff_max_us_);
    }
    slept_once_ = true;
    return true;
  }

 private:
  int retries_left_;
  uint64_t backoff_us_;
  uint64_t backoff_max_us_;
  bool slept_once_ = false;
};

/// rename(2) — the commit point of AtomicWriteFile.
Status Rename(const char* failpoint, const std::string& from,
              const std::string& to) {
  TransientRetrier retrier;
  for (;;) {
    auto injected = failpoint::Eval(failpoint);
    if (injected.op == failpoint::EvalResult::Op::kReturnEarly) {
      return Status::OK();  // commit point silently skipped
    }
    int err = 0;
    if (injected.op == failpoint::EvalResult::Op::kError) {
      err = injected.injected_errno;
    } else if (::rename(from.c_str(), to.c_str()) != 0) {
      err = errno;
    }
    if (err == 0) return Status::OK();
    if (retrier.ShouldRetry(err)) continue;
    return ErrnoError("rename", from, err);
  }
}

}  // namespace

bool IsTransientErrno(int err) {
  if (err == EINTR || err == EAGAIN) return true;
  // On Linux/BSD EWOULDBLOCK == EAGAIN and this branch compiles away; POSIX
  // permits them to be distinct values (SVR4-lineage systems), and a
  // duplicate-case `err == EWOULDBLOCK` above would then silently be the
  // only thing keeping the distinct value transient — spell the platform
  // split explicitly so neither spelling regresses.
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
  if (err == EWOULDBLOCK) return true;
#endif
  return false;
}

RetryOptions GetRetryOptions() {
  RetryOptions options;
  options.max_attempts = g_max_attempts.load(std::memory_order_relaxed);
  options.backoff_initial_us =
      g_backoff_initial_us.load(std::memory_order_relaxed);
  options.backoff_max_us = g_backoff_max_us.load(std::memory_order_relaxed);
  return options;
}

void SetRetryOptions(const RetryOptions& options) {
  g_max_attempts.store(options.max_attempts < 1 ? 1 : options.max_attempts,
                       std::memory_order_relaxed);
  g_backoff_initial_us.store(options.backoff_initial_us,
                             std::memory_order_relaxed);
  g_backoff_max_us.store(options.backoff_max_us, std::memory_order_relaxed);
}

Result<int> Open(const char* failpoint, const std::string& path, int flags,
                 mode_t mode) {
  TransientRetrier retrier;
  for (;;) {
    auto injected = failpoint::Eval(failpoint);
    int err;
    if (injected.op == failpoint::EvalResult::Op::kError) {
      err = injected.injected_errno;
    } else {
      // kReturnEarly has no fd to fake; treat it as a clean pass-through.
      int fd = ::open(path.c_str(), flags, mode);
      if (fd >= 0) return fd;
      err = errno;
    }
    if (retrier.ShouldRetry(err)) continue;
    return ErrnoError("open", path, err);
  }
}

Status WriteAll(const char* failpoint, int fd, const uint8_t* data,
                size_t size, const std::string& path) {
  TransientRetrier retrier;
  size_t done = 0;
  while (done < size) {
    auto injected = failpoint::Eval(failpoint);
    if (injected.op == failpoint::EvalResult::Op::kReturnEarly) {
      return Status::OK();  // lost write: caller believes it landed
    }
    ssize_t n;
    int err = 0;
    if (injected.op == failpoint::EvalResult::Op::kError) {
      n = -1;
      err = injected.injected_errno;
    } else {
      n = ::write(fd, data + done, size - done);
      if (n < 0) err = errno;
    }
    if (n < 0) {
      if (retrier.ShouldRetry(err)) continue;
      return ErrnoError("write", path, err);
    }
    done += static_cast<size_t>(n);  // short write: progress, not an error
  }
  return Status::OK();
}

Status ReadExactAt(const char* failpoint, int fd, uint8_t* data, size_t size,
                   uint64_t offset, const std::string& path) {
  TransientRetrier retrier;
  size_t done = 0;
  while (done < size) {
    auto injected = failpoint::Eval(failpoint);
    ssize_t n;
    int err = 0;
    if (injected.op == failpoint::EvalResult::Op::kError) {
      n = -1;
      err = injected.injected_errno;
    } else {
      n = ::pread(fd, data + done, size - done,
                  static_cast<off_t>(offset + done));
      if (n < 0) err = errno;
    }
    if (n < 0) {
      if (retrier.ShouldRetry(err)) continue;
      return ErrnoError("read", path, err);
    }
    if (n == 0) {
      return Status::IOError(
          StrFormat("read '%s': unexpected end of file", path.c_str()));
    }
    done += static_cast<size_t>(n);  // short read: keep going
  }
  return Status::OK();
}

Status Fsync(const char* failpoint, int fd, const std::string& path) {
  TransientRetrier retrier;
  for (;;) {
    auto injected = failpoint::Eval(failpoint);
    if (injected.op == failpoint::EvalResult::Op::kReturnEarly) {
      return Status::OK();  // lost durability point
    }
    int err = 0;
    if (injected.op == failpoint::EvalResult::Op::kError) {
      err = injected.injected_errno;
    } else if (::fsync(fd) != 0) {
      err = errno;
    }
    if (err == 0) return Status::OK();
    if (retrier.ShouldRetry(err)) continue;
    return ErrnoError("fsync", path, err);
  }
}

Status FsyncParentDir(const char* failpoint, const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  TransientRetrier retrier;
  for (;;) {
    auto injected = failpoint::Eval(failpoint);
    if (injected.op == failpoint::EvalResult::Op::kReturnEarly) {
      return Status::OK();  // dirent never synced
    }
    int err = 0;
    const char* op = "fsync directory";
    if (injected.op == failpoint::EvalResult::Op::kError) {
      err = injected.injected_errno;
    } else {
      int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
      if (fd < 0) {
        err = errno;
        op = "open directory";
      } else {
        if (::fsync(fd) != 0) err = errno;
        ::close(fd);
      }
    }
    if (err == 0) return Status::OK();
    if (retrier.ShouldRetry(err)) continue;
    return ErrnoError(op, dir, err);
  }
}

Status Ftruncate(const char* failpoint, int fd, uint64_t size,
                 const std::string& path) {
  TransientRetrier retrier;
  for (;;) {
    auto injected = failpoint::Eval(failpoint);
    if (injected.op == failpoint::EvalResult::Op::kReturnEarly) {
      return Status::OK();
    }
    int err = 0;
    if (injected.op == failpoint::EvalResult::Op::kError) {
      err = injected.injected_errno;
    } else if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      err = errno;
    }
    if (err == 0) return Status::OK();
    if (retrier.ShouldRetry(err)) continue;
    return ErrnoError("truncate", path, err);
  }
}

Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes,
                       const AtomicWriteFailpoints& failpoints) {
  const std::string tmp = path + ".tmp";
  DQM_ASSIGN_OR_RETURN(
      int fd, Open(failpoints.open, tmp,
                   O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  Status status =
      WriteAll(failpoints.write, fd, bytes.data(), bytes.size(), tmp);
  if (status.ok()) status = Fsync(failpoints.fsync, fd, tmp);
  ::close(fd);
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  DQM_RETURN_NOT_OK(Rename(failpoints.rename, tmp, path));
  return FsyncParentDir(failpoints.dirsync, path);
}

}  // namespace dqm::crowd::io
