#ifndef DQM_ENGINE_DURABILITY_H_
#define DQM_ENGINE_DURABILITY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "crowd/vote.h"
#include "crowd/wal.h"
#include "telemetry/metrics.h"

namespace dqm::engine {

/// What a session does when its WAL seals (an I/O failure survived the
/// retry budget): fail-stop rejects every later batch until a checkpoint
/// reset; degrade-to-volatile keeps committing in memory, loudly flagging
/// itself (snapshots, dqm_sessions_degraded) and counting every vote acked
/// without a durable record, then re-arms at the next successful
/// checkpoint reset.
enum class DurabilityFailurePolicy : uint8_t {
  kFailStop = 0,
  kDegradeToVolatile = 1,
};

/// Canonical spellings, as accepted by --durability_failure_policy and the
/// manifest: "fail_stop" | "degrade_to_volatile".
const char* DurabilityFailurePolicyName(DurabilityFailurePolicy policy);
Result<DurabilityFailurePolicy> ParseDurabilityFailurePolicy(
    std::string_view text);

/// Failpoint names for the durability edges owned by this layer (the
/// WAL/checkpoint edges live in crowd/io.h).
namespace fpn {
inline constexpr char kManifestOpen[] = "dqm.manifest.open";
inline constexpr char kManifestRead[] = "dqm.manifest.read";
inline constexpr char kManifestWrite[] = "dqm.manifest.write";
inline constexpr char kManifestFsync[] = "dqm.manifest.fsync";
inline constexpr char kManifestRename[] = "dqm.manifest.rename";
/// fsync of a directory fd (session dir dirents; manifest parent).
inline constexpr char kDirSync[] = "dqm.durability.dirsync";
/// Evaluated by the group-commit flusher thread at each wake: error and
/// return actions skip that flush cycle, delay stalls it (lock held).
inline constexpr char kFlusherWake[] = "dqm.wal.flusher";
}  // namespace fpn

/// Per-session durability knobs (resolved from SessionOptions by the
/// engine; `dir` is this session's own directory, not the engine root).
struct DurabilityOptions {
  std::string dir;
  /// Session name, for the session=... label on the checkpoint-size gauge.
  std::string session_name;
  /// fsync the WAL whenever at least this many votes accumulated since the
  /// last sync (clamped to >= 1; 1 = fsync every batch).
  uint64_t group_commit_votes = 256;
  /// Additionally fsync at most this many milliseconds after a vote was
  /// buffered (0 = no timed flusher): bounds the durability lag of a
  /// trickle workload that never fills a vote-count group.
  uint64_t group_commit_ms = 0;
  /// Checkpoint whenever the session's committed total crosses a multiple
  /// of this (0 = never; recovery then replays the whole WAL).
  uint64_t checkpoint_every_votes = 0;
  /// What to do when the WAL seals; see DurabilityFailurePolicy.
  DurabilityFailurePolicy failure_policy = DurabilityFailurePolicy::kFailStop;
};

/// Everything needed to rebuild a session's configuration at recovery,
/// persisted as a key=value text file (`MANIFEST`) in the session dir.
/// Holds primitives only — the engine re-derives SessionOptions from it —
/// so this header stays independent of engine/session.h.
struct SessionManifest {
  std::string name;
  uint64_t num_items = 0;
  std::vector<std::string> specs;
  /// ParsePublishCadenceSpec spelling ("every_batch" | "manual" |
  /// "every_n_votes:N").
  std::string cadence = "every_batch";
  /// The RESOLVED stripe count the live session used (log.num_stripes();
  /// 0 = serialized path) — recorded so recovery rebuilds the same stripe
  /// layout deterministically instead of re-deriving it from the hardware
  /// it happens to recover on.
  uint64_t ingest_stripes = 0;
  uint64_t publish_every_votes = 4096;
  uint64_t wal_group_commit_votes = 256;
  uint64_t wal_group_commit_ms = 0;
  uint64_t checkpoint_every_votes = 0;
  /// Persisted as its canonical spelling; manifests from before this key
  /// existed recover as fail_stop (the old behavior).
  DurabilityFailurePolicy failure_policy = DurabilityFailurePolicy::kFailStop;
  /// Monotonic replication fencing token. A primary stamps every shipped
  /// artifact with its token; promoting a standby raises the transport
  /// fence past the old primary's token, so a zombie primary's late pushes
  /// are rejected (no split-brain double-apply). Manifests from before this
  /// key existed recover as epoch 1.
  uint64_t fencing_token = 1;
};

/// Escapes a session name into a filesystem-safe token ('/' and friends
/// percent-encoded); decodes exactly.
std::string PercentEncode(std::string_view raw);
Result<std::string> PercentDecode(std::string_view encoded);

/// Manifest (de)serialization: key=value lines, written tmp+rename+fsync.
Status WriteManifestFile(const std::string& path, const SessionManifest& m);
Result<SessionManifest> ReadManifestFile(const std::string& path);

/// Parses manifest content already in memory (the replication path receives
/// manifests as shipped artifact bytes). `context` names the source for
/// error messages; ReadManifestFile is this plus the file read.
Result<SessionManifest> ParseManifestContent(std::string_view content,
                                             const std::string& context);

/// Serializes `m` to the exact key=value text WriteManifestFile persists —
/// what a primary ships as the manifest artifact.
std::string ManifestContent(const SessionManifest& m);

/// Path of the manifest inside a session directory — what
/// DqmEngine::RecoverSessions probes each subdirectory for.
std::string SessionManifestPath(const std::string& session_dir);

/// One session's durability engine: the WAL group-commit policy, the
/// checkpoint protocol, and recovery. Owns the session directory layout
///
///   <dir>/MANIFEST         session configuration (written once at create)
///   <dir>/wal.log          crowd::VoteWal (tail since the last checkpoint)
///   <dir>/checkpoint.bin   crowd checkpoint file (latest committed one)
///
/// ## Commit protocol (see EstimationSession::AddVotes)
///
/// The session appends every accepted batch here BEFORE applying it:
/// AppendBatch buffers the record under the WAL mutex and write(2)+fsyncs
/// when the group-commit cadence says so — an IOError rejects the batch
/// before a single vote reaches the pipeline, keeping the WAL a superset
/// of the applied state. A write/fsync failure additionally SEALS the WAL
/// (see crowd::VoteWal): the file is cut back to the last fsync'd record
/// and every later AppendBatch/Flush fails until a checkpoint commit
/// resets the log — fail-stop durability, never a silently lossy log.
/// After applying, the session calls NoteApplied,
/// which is what lets a checkpoint quiesce: CommitCheckpoint blocks new
/// appends (WAL mutex), drains appended-but-unapplied batches
/// (in_flight == 0), snapshots the log via the caller's build callback,
/// rename-commits the checkpoint file carrying generation G+1, then
/// resets the WAL to G+1. A crash between those last two steps is healed
/// by the generation compare in Recover.
///
/// Lock order: session (200) -> WAL (250) -> stripes (300); the checkpoint
/// build callback pauses stripes while holding both outer locks.
class SessionDurability {
 public:
  /// Kill points, in commit order, for crash-recovery tests: the hook runs
  /// with the WAL mutex held immediately AFTER the named step completed.
  enum class Phase {
    kAppend,           // batch buffered (user-space only — dies with us)
    kFsync,            // group-commit fsync returned
    kCheckpointWrite,  // checkpoint file rename-committed, WAL not yet reset
    kWalReset,         // WAL truncated to the new generation
  };

  /// Creates a FRESH session directory (mkdir -p), writes the manifest, and
  /// opens an empty WAL. FailedPrecondition when the directory already
  /// holds state — recovering an existing session must go through
  /// DqmEngine::RecoverSessions, not OpenSession.
  static Result<std::unique_ptr<SessionDurability>> Create(
      const DurabilityOptions& options, const SessionManifest& manifest);

  /// Attaches to an EXISTING session directory for recovery (the caller has
  /// already read the manifest). Opens the WAL but replays nothing until
  /// Recover.
  static Result<std::unique_ptr<SessionDurability>> Attach(
      const DurabilityOptions& options);

  /// Stops the timed flusher and flushes+fsyncs any buffered records
  /// (best-effort; failures are logged).
  ~SessionDurability();

  SessionDurability(const SessionDurability&) = delete;
  SessionDurability& operator=(const SessionDurability&) = delete;

  /// Logs one accepted batch: buffers the record, marks it in-flight, and
  /// runs the group-commit cadence (write+fsync once enough votes
  /// accumulated). On error the batch is NOT in the WAL and must be
  /// rejected before being applied.
  Status AppendBatch(std::span<const crowd::VoteEvent> votes)
      DQM_EXCLUDES(wal_mutex_);

  /// Marks one AppendBatch'd batch as applied to the in-memory log. Must be
  /// called exactly once per successful AppendBatch, after the apply.
  void NoteApplied();

  /// write(2)+fsyncs everything buffered regardless of cadence — the
  /// explicit durability point (close, tests, CLI flush).
  Status Flush() DQM_EXCLUDES(wal_mutex_);

  bool checkpoints_enabled() const {
    return options_.checkpoint_every_votes > 0;
  }
  uint64_t checkpoint_every_votes() const {
    return options_.checkpoint_every_votes;
  }

  /// Snapshots the session state and swaps it in for the WAL. `build` runs
  /// with the WAL quiesced (appends blocked, in-flight batches drained) and
  /// must return the log's checkpoint data carrying the generation it is
  /// passed; the caller is responsible for holding the session mutex so the
  /// serialized apply path is also quiet. Failures leave the WAL intact
  /// (the previous checkpoint, if any, stays committed).
  Status CommitCheckpoint(
      const std::function<Result<crowd::CheckpointData>(uint64_t generation)>&
          build) DQM_EXCLUDES(wal_mutex_);

  struct RecoveryStats {
    /// Votes the checkpoint snapshot holds (its num_events), restored as
    /// columns in one call — not re-emitted vote by vote.
    uint64_t checkpoint_votes = 0;
    /// Votes replayed from the WAL tail.
    uint64_t replayed_votes = 0;
    uint64_t torn_records = 0;
    bool had_checkpoint = false;
  };

  /// Full recovery: loads the latest checkpoint (if any) and hands it to
  /// `restore_checkpoint` whole (O(#pairs + #items) for the engine's
  /// direct restore), then replays the WAL tail through `restore`, healing
  /// the checkpoint/WAL generation seam and truncating a torn tail. Total
  /// cost: the checkpoint's size plus the tail's votes. Call once, before
  /// the first AppendBatch, with the session not yet serving.
  Result<RecoveryStats> Recover(
      size_t num_items,
      const std::function<Status(const crowd::CheckpointData&)>&
          restore_checkpoint,
      const std::function<Status(std::span<const crowd::VoteEvent>)>& restore)
      DQM_EXCLUDES(wal_mutex_);

  /// Heap retained by the WAL buffer + replay scratch — rolled into the
  /// session's RetainedBytes accounting.
  size_t RetainedBytes() const DQM_EXCLUDES(wal_mutex_);

  const DurabilityOptions& options() const { return options_; }
  const std::string& dir() const { return options_.dir; }
  std::string wal_path() const;
  std::string checkpoint_path() const;

  /// Installs a crash-injection hook for tests (called with the WAL mutex
  /// held after each Phase completes). Install before concurrent use.
  void SetPhaseHookForTest(std::function<void(Phase)> hook)
      DQM_EXCLUDES(wal_mutex_);

  /// One durability event worth shipping to a replica. Fired synchronously
  /// with the WAL mutex held, so the hook sees events in exact commit order
  /// and the reported durable boundary cannot move under it. The hook must
  /// not call back into this SessionDurability and must only take locks
  /// ranked above kWal (the replicator uses LockRank::kReplication).
  struct ShipEvent {
    enum class Kind : uint8_t {
      /// A group-commit fsync was acknowledged: WAL bytes up to
      /// `durable_size` are durable and eligible for shipping.
      kWalDurable,
      /// A checkpoint was rename-committed and the WAL reset to
      /// `generation`; `checkpoint_votes` is the snapshot's num_events.
      kCheckpoint,
    };
    Kind kind = Kind::kWalDurable;
    uint64_t generation = 0;
    /// WAL file size (including the header) covered by the last fsync.
    uint64_t durable_size = 0;
    uint64_t checkpoint_votes = 0;
  };

  /// Installs (or clears, with nullptr) the replication ship hook. Ship
  /// failures must be absorbed by the hook (log + count + mark divergent):
  /// a replica falling behind must never fail a primary commit.
  void SetShipHook(std::function<void(const ShipEvent&)> hook)
      DQM_EXCLUDES(wal_mutex_);

  /// The WAL's fsync-acknowledged file size (header included) — the durable
  /// prefix boundary a replica may trust.
  uint64_t DurableWalSize() const DQM_EXCLUDES(wal_mutex_) {
    MutexLock lock(wal_mutex_);
    return wal_.durable_size();
  }

  /// Current WAL generation (advances at each checkpoint commit).
  uint64_t WalGeneration() const DQM_EXCLUDES(wal_mutex_) {
    MutexLock lock(wal_mutex_);
    return wal_.generation();
  }

  /// Makes the next WAL fsync fail as if the device errored, sealing the
  /// log — for flush-failure / seal-and-heal tests.
  void InjectWalSyncErrorForTest() DQM_EXCLUDES(wal_mutex_) {
    MutexLock lock(wal_mutex_);
    wal_.InjectSyncErrorForTest();
  }

  /// True once an I/O failure sealed the WAL (appends are being rejected).
  bool wal_sealed() const DQM_EXCLUDES(wal_mutex_) {
    MutexLock lock(wal_mutex_);
    return wal_.sealed();
  }

  /// True while the session is running with durability degraded to
  /// volatile mode (degrade_to_volatile policy, WAL sealed). Cleared by
  /// the checkpoint reset that re-arms durability.
  bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Cumulative votes this session acknowledged WITHOUT a durable record —
  /// what a crash during the degraded windows would lose. Monotonic across
  /// re-arms (it is an audit trail, not a live backlog: a successful
  /// checkpoint makes the in-memory state durable again).
  uint64_t dropped_durability_votes() const {
    return degraded_votes_.load(std::memory_order_acquire);
  }

 private:
  explicit SessionDurability(DurabilityOptions options);

  Status OpenWal() DQM_EXCLUDES(wal_mutex_);
  Status FlushLocked(bool sync) DQM_REQUIRES(wal_mutex_);
  /// Flips the session into degraded mode (gauge, log) the first time a
  /// seal is absorbed under degrade_to_volatile.
  void EnterDegradedLocked(const Status& cause) DQM_REQUIRES(wal_mutex_);
  void RunHook(Phase phase) DQM_REQUIRES(wal_mutex_);
  void StartFlusher();
  void FlusherLoop() DQM_EXCLUDES(wal_mutex_);

  const DurabilityOptions options_;
  mutable Mutex wal_mutex_{LockRank::kWal, "session-wal"};
  crowd::VoteWal wal_ DQM_GUARDED_BY(wal_mutex_);
  /// Votes buffered/written since the last fsync — the group-commit gauge.
  uint64_t pending_votes_ DQM_GUARDED_BY(wal_mutex_) = 0;
  /// Batches appended to the WAL but not yet applied to the in-memory log.
  /// Incremented under wal_mutex_ (AppendBatch), decremented lock-free
  /// (NoteApplied) so the checkpoint quiesce can drain it while holding the
  /// mutex without deadlocking the appliers.
  std::atomic<uint64_t> in_flight_{0};
  /// Degradation state (degrade_to_volatile policy). Written under
  /// wal_mutex_; atomics so snapshot readers see them lock-free.
  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> degraded_votes_{0};
  std::function<void(Phase)> phase_hook_ DQM_GUARDED_BY(wal_mutex_);
  std::function<void(const ShipEvent&)> ship_hook_ DQM_GUARDED_BY(wal_mutex_);
  bool stop_flusher_ DQM_GUARDED_BY(wal_mutex_) = false;
  CondVar flusher_cv_;
  std::thread flusher_;
  /// Refcounted per-session checkpoint-size gauge (released in the dtor).
  telemetry::Gauge* checkpoint_bytes_gauge_ = nullptr;
};

}  // namespace dqm::engine

#endif  // DQM_ENGINE_DURABILITY_H_
