#ifndef DQM_CROWD_IO_H_
#define DQM_CROWD_IO_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/result.h"
#include "common/status.h"

/// Failpoint-instrumented POSIX I/O for the durability stack.
///
/// Every syscall the WAL / checkpoint / manifest machinery issues goes
/// through these wrappers instead of the raw calls (tools/dqm_lint.py's
/// raw-syscall rule enforces this for crowd/wal.cc and
/// engine/durability.cc). Each wrapper:
///
///  - evaluates a named failpoint (common/failpoint.h) before EVERY
///    attempt, so scripted faults are indistinguishable from real ones to
///    the caller — including being retried;
///  - rides out transient errno classes (EINTR, EAGAIN/EWOULDBLOCK) with
///    bounded exponential backoff instead of surfacing them, counting
///    dqm_wal_retries_total / dqm_wal_retry_exhausted_total;
///  - treats short reads/writes as progress, not errors (the loop
///    continues without consuming retry budget).
///
/// Failpoint `return` actions (skip the syscall, report success) apply to
/// the mutating edges — write, fsync, rename, truncate — and model lost
/// I/O; open/read edges ignore them because the caller needs real bytes.
namespace dqm::crowd::io {

/// Failpoint names for the durability-stack syscall edges, one per
/// (subsystem, operation). Arm them via `--failpoints=` / DQM_FAILPOINTS,
/// e.g. `dqm.wal.fsync=error(EIO)%0.3`.
namespace fpn {
inline constexpr char kWalOpen[] = "dqm.wal.open";
inline constexpr char kWalRead[] = "dqm.wal.read";
inline constexpr char kWalWrite[] = "dqm.wal.write";
inline constexpr char kWalFsync[] = "dqm.wal.fsync";
inline constexpr char kWalTruncate[] = "dqm.wal.truncate";
inline constexpr char kCheckpointOpen[] = "dqm.checkpoint.open";
inline constexpr char kCheckpointRead[] = "dqm.checkpoint.read";
inline constexpr char kCheckpointWrite[] = "dqm.checkpoint.write";
inline constexpr char kCheckpointFsync[] = "dqm.checkpoint.fsync";
inline constexpr char kCheckpointRename[] = "dqm.checkpoint.rename";
inline constexpr char kCheckpointDirsync[] = "dqm.checkpoint.dirsync";
/// Replication transport edges (engine/replication.cc, LocalDirTransport).
inline constexpr char kReplOpen[] = "dqm.repl.open";
inline constexpr char kReplRead[] = "dqm.repl.read";
inline constexpr char kReplWrite[] = "dqm.repl.write";
inline constexpr char kReplFsync[] = "dqm.repl.fsync";
inline constexpr char kReplRename[] = "dqm.repl.rename";
inline constexpr char kReplDirsync[] = "dqm.repl.dirsync";
}  // namespace fpn

/// True for the errno classes the retry loop treats as transient: EINTR and
/// EAGAIN/EWOULDBLOCK. Spelled to stay correct on platforms where
/// EWOULDBLOCK is a distinct value rather than an alias of EAGAIN (POSIX
/// allows either; historically some SVR4-lineage systems differ).
bool IsTransientErrno(int err);

/// Budget for riding out transient errnos, process-global. The defaults
/// absorb bursts of EINTR/EAGAIN in well under a group-commit interval;
/// `--io_retry_max_attempts` and friends override them from the CLI.
struct RetryOptions {
  /// Total tries per syscall (1 = no retries).
  int max_attempts = 8;
  /// Sleep before the first retry; doubles per retry up to the cap. The
  /// first transient errno is retried immediately (EINTR is usually just a
  /// signal) — backoff kicks in from the second.
  uint64_t backoff_initial_us = 100;
  uint64_t backoff_max_us = 20'000;
};

RetryOptions GetRetryOptions();
void SetRetryOptions(const RetryOptions& options);

/// open(2). `failpoint` error actions fail the open; `return` is ignored
/// (there is no fd to fake).
Result<int> Open(const char* failpoint, const std::string& path, int flags,
                 mode_t mode = 0);

/// write(2) until `size` bytes landed.
Status WriteAll(const char* failpoint, int fd, const uint8_t* data,
                size_t size, const std::string& path);

/// pread(2) until `size` bytes arrived; hitting end-of-file first is an
/// IOError ("unexpected end of file"), not a retry.
Status ReadExactAt(const char* failpoint, int fd, uint8_t* data, size_t size,
                   uint64_t offset, const std::string& path);

/// fsync(2).
Status Fsync(const char* failpoint, int fd, const std::string& path);

/// Opens and fsyncs the directory containing `path`, so a just-renamed or
/// just-created entry survives power loss. The failpoint covers the whole
/// edge (open + fsync of the directory fd).
Status FsyncParentDir(const char* failpoint, const std::string& path);

/// ftruncate(2).
Status Ftruncate(const char* failpoint, int fd, uint64_t size,
                 const std::string& path);

/// The failpoint of each edge of an AtomicWriteFile, so every caller keeps
/// its own subsystem's names.
struct AtomicWriteFailpoints {
  const char* open;
  const char* write;
  const char* fsync;
  const char* rename;
  const char* dirsync;
};

/// Publishes `bytes` at `path` so a reader sees either the old file or the
/// whole new one: writes and fsyncs `<path>.tmp`, renames it over `path`
/// (the commit point), then fsyncs the parent directory so the rename
/// survives power loss. A failed write or fsync removes the tmp file.
Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes,
                       const AtomicWriteFailpoints& failpoints);

}  // namespace dqm::crowd::io

#endif  // DQM_CROWD_IO_H_
