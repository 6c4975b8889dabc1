#ifndef DQM_ENGINE_REPLICATION_H_
#define DQM_ENGINE_REPLICATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "crowd/wal.h"
#include "engine/durability.h"
#include "engine/engine.h"
#include "engine/session.h"

namespace dqm::engine {

// ---------------------------------------------------------------------------
// Replicated hot-standby
//
// A primary's SessionDurability already defines an acknowledged durable
// prefix: every committed batch is in the WAL below durable_size before the
// commit returns, and checkpoints atomically fold that prefix into
// checkpoint.bin under the next WAL generation. Replication ships exactly
// those two artifact kinds to a standby:
//
//   primary                          transport                      standby
//   SessionDurability --ShipEvent--> SessionReplicator --Put--> artifacts
//                                                                  |
//                                      StandbyApplier::Poll <------+
//                                             |
//                                      warm EstimationSession
//
// The transport namespace is flat and per session:
//
//   MANIFEST                      the session manifest (serving config)
//   ckpt_<generation>.bin         checkpoint file bytes, verbatim
//   seg_<generation>_<seq>.bin    a crowd::WalSegment (wal.h): a slice of
//                                 the WAL body [start_offset, +payload)
//                                 with generation / 1-based sequence /
//                                 cumulative-vote / fencing metadata and a
//                                 whole-segment CRC
//   FENCE                         the current fencing token (decimal)
//
// Numbers in artifact names are zero-padded so lexicographic order equals
// numeric order. Segments within one generation are contiguous: segment
// seq+1 starts where segment seq ended. The applier refuses gaps, overlaps,
// CRC damage, and torn record frames (divergence — counted, never partially
// applied) and resynchronizes from the next shipped checkpoint.
//
// Fencing: every Put carries the shipper's fencing token and the transport
// rejects tokens below the current fence (FailedPrecondition, counted as
// dqm_replica_fence_rejections_total). StandbyApplier::Promote raises the
// fence past every token it has observed and persists the new token in the
// promoted session's manifest, so a zombie primary that wakes up after
// failover can no longer publish artifacts — its late pushes bounce off the
// fence instead of corrupting the promoted replica.
// ---------------------------------------------------------------------------

/// Artifact names, exported so tests and tools can address artifacts
/// directly (e.g. to corrupt a specific segment in a fault drill).
inline constexpr char kManifestArtifact[] = "MANIFEST";
std::string CheckpointArtifactName(uint64_t generation);
std::string SegmentArtifactName(uint64_t generation, uint64_t seq);

/// Parsed artifact identity; see ParseArtifactName.
struct ArtifactId {
  enum class Kind : uint8_t { kManifest, kCheckpoint, kSegment, kOther };
  Kind kind = Kind::kOther;
  uint64_t generation = 0;
  /// Segment sequence number (segments only).
  uint64_t seq = 0;
};
ArtifactId ParseArtifactName(std::string_view name);

/// Where shipped artifacts live. Implementations must make Put atomic
/// (readers never observe a torn artifact) and enforce the fence: a Put
/// whose token is below the current fence fails with FailedPrecondition.
/// RaiseFence is monotonic — an attempt to lower the fence is a no-op.
class ReplicationTransport {
 public:
  virtual ~ReplicationTransport() = default;

  virtual Status Put(const std::string& name, std::span<const uint8_t> bytes,
                     uint64_t fencing_token) = 0;
  /// Artifact names (FENCE excluded), sorted.
  virtual Result<std::vector<std::string>> List() = 0;
  /// NotFound when no artifact of that name exists (e.g. it was listed,
  /// then garbage-collected before this read).
  virtual Result<std::vector<uint8_t>> Get(const std::string& name) = 0;
  virtual Status Delete(const std::string& name) = 0;
  virtual Status RaiseFence(uint64_t token) = 0;
  virtual Result<uint64_t> Fence() = 0;
};

/// Directory-backed transport: one artifact per file, published with the
/// same tmp + fsync + rename + dirsync dance the durability layer uses, all
/// through the failpoint-instrumented crowd::io wrappers (`dqm.repl.*`
/// failpoints). The fence lives in a FENCE file beside the artifacts.
///
/// This models shipping over a shared filesystem; a networked transport
/// would implement the same interface with the fence check done atomically
/// server-side. Here the check-fence-then-rename window is benign for the
/// intended topology (promote happens only after the primary is stopped or
/// declared dead).
class LocalDirTransport : public ReplicationTransport {
 public:
  /// Creates `dir` (and parents) if needed.
  static Result<std::unique_ptr<LocalDirTransport>> Open(
      const std::string& dir);

  Status Put(const std::string& name, std::span<const uint8_t> bytes,
             uint64_t fencing_token) override;
  Result<std::vector<std::string>> List() override;
  Result<std::vector<uint8_t>> Get(const std::string& name) override;
  Status Delete(const std::string& name) override;
  Status RaiseFence(uint64_t token) override;
  Result<uint64_t> Fence() override;

  const std::string& dir() const { return dir_; }

 private:
  explicit LocalDirTransport(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
};

/// Point-in-time replicator counters (see stats()).
struct ReplicationStats {
  uint64_t segments_shipped = 0;
  uint64_t checkpoints_shipped = 0;
  uint64_t ship_errors = 0;
  /// Cumulative durable votes covered by shipped artifacts.
  uint64_t shipped_votes = 0;
  /// WAL generation the shipped artifacts belong to.
  uint64_t shipped_generation = 0;
};

/// Primary-side shipping pipeline for one durable session.
///
/// Start() performs an initial sync — manifest, current checkpoint (if
/// any), and the already-durable WAL tail as segment 1 — then installs a
/// SessionDurability ship hook. From then on every acknowledged fsync
/// ships the newly durable WAL bytes as the next segment *before* the
/// commit returns to the producer (no-lost-ack: an acknowledged vote is
/// either shipped or counted in dqm_replica_ship_errors_total and re-shipped
/// with the next segment), and every checkpoint ships the checkpoint file
/// and garbage-collects artifacts of older generations.
///
/// Ship failures NEVER fail the primary's commit: the primary's durability
/// is its own WAL; replication lag is surfaced through
/// dqm_replica_lag_bytes and the ship-error counter, and the pipeline
/// catches up automatically (a later segment simply covers a wider byte
/// range, and an unshipped checkpoint is re-shipped on the next event).
///
/// The hook runs under the session's WAL mutex (LockRank::kWal) and takes
/// only the replicator's own mutex (LockRank::kReplication) above it.
class SessionReplicator {
 public:
  /// The session must be durable (FailedPrecondition otherwise). The
  /// fencing token is read from the session's manifest.
  static Result<std::unique_ptr<SessionReplicator>> Start(
      std::shared_ptr<EstimationSession> session,
      std::shared_ptr<ReplicationTransport> transport);

  ~SessionReplicator();

  SessionReplicator(const SessionReplicator&) = delete;
  SessionReplicator& operator=(const SessionReplicator&) = delete;

  /// Uninstalls the ship hook. Idempotent; the destructor calls it.
  void Stop();

  ReplicationStats stats() const DQM_EXCLUDES(mutex_);
  uint64_t fencing_token() const { return fencing_token_; }
  const std::string& session_name() const { return session_->name(); }

 private:
  SessionReplicator(std::shared_ptr<EstimationSession> session,
                    std::shared_ptr<ReplicationTransport> transport,
                    uint64_t fencing_token);

  /// Ship-hook body. Failures are absorbed into ship_errors.
  void OnShipEvent(const SessionDurability::ShipEvent& event)
      DQM_EXCLUDES(mutex_);

  /// (Re)ships the current checkpoint file and rebases the segment cursor
  /// onto its generation. No-op when already on `generation`.
  Status ShipCheckpointLocked(uint64_t generation)
      DQM_REQUIRES(mutex_);

  /// Ships WAL bytes [shipped_offset_, durable_size) as the next segment.
  Status ShipSegmentLocked(uint64_t generation, uint64_t durable_size)
      DQM_REQUIRES(mutex_);

  /// Best-effort removal of artifacts older than shipped_generation_.
  void GarbageCollectLocked() DQM_REQUIRES(mutex_);

  const std::shared_ptr<EstimationSession> session_;
  const std::shared_ptr<ReplicationTransport> transport_;
  const uint64_t fencing_token_;
  SessionDurability* const durability_;

  mutable Mutex mutex_{LockRank::kReplication, "session-replicator"};
  /// Read-only fd on the primary's wal.log (segments are read back from
  /// the file, not captured in memory — the durable prefix is stable below
  /// durable_size while the WAL mutex is held).
  int wal_fd_ DQM_GUARDED_BY(mutex_) = -1;
  uint64_t shipped_generation_ DQM_GUARDED_BY(mutex_) = 0;
  /// Next unshipped byte of the current generation's WAL.
  uint64_t shipped_offset_ DQM_GUARDED_BY(mutex_) = 0;
  uint64_t next_seq_ DQM_GUARDED_BY(mutex_) = 1;
  uint64_t shipped_votes_ DQM_GUARDED_BY(mutex_) = 0;
  ReplicationStats stats_ DQM_GUARDED_BY(mutex_);
  std::vector<crowd::VoteEvent> scan_scratch_ DQM_GUARDED_BY(mutex_);
  bool stopped_ = false;
};

/// Standby-side applier: materializes the shipped artifact stream into a
/// warm EstimationSession registered on `engine`, ready to serve the moment
/// Promote() is called.
///
/// Poll() is the replay heartbeat — call it from a timer or loop. Each call
/// lists the transport, loads a newer checkpoint if one appeared (this is
/// also how divergence heals), then applies pending segments in sequence
/// order through the ordinary ingest path. Applied votes are
/// crash-consistent with the primary's acknowledged durable prefix:
/// a segment is fully validated (CRC, contiguity, clean record scan)
/// before a single vote of it is applied.
///
/// Single-threaded by contract: Poll/Promote must not be called
/// concurrently (drive it from one replay thread).
class StandbyApplier {
 public:
  struct Options {
    /// Durability root for the standby session ("" = the standby session
    /// is in-memory; promote still serves, it is just not yet durable).
    /// When set, the applier wipes and rebuilds the session's subdirectory
    /// on open and on every resync — standby state is entirely derived
    /// from the transport.
    std::string durability_dir;
  };

  /// Fetches the manifest artifact, rebuilds the primary's serving
  /// configuration (specs, cadence, stripe pinning), and opens the warm
  /// session under the primary's name. Fails if no manifest was shipped
  /// yet or the name is already taken on `engine`.
  static Result<std::unique_ptr<StandbyApplier>> Open(
      DqmEngine& engine, std::shared_ptr<ReplicationTransport> transport,
      const Options& options = Options());

  ~StandbyApplier();

  StandbyApplier(const StandbyApplier&) = delete;
  StandbyApplier& operator=(const StandbyApplier&) = delete;

  /// Applies everything currently shipped. Divergence (gap, overlap, CRC or
  /// metadata mismatch, torn frame) is not an error: it is counted, the
  /// offending segment is left unapplied, and the applier waits for a
  /// fresh checkpoint to resync from. An artifact garbage-collected between
  /// the listing and its read is not an error either: Poll lists once more
  /// and continues from there, failing only if that pass fails too.
  /// FailedPrecondition after Promote().
  Status Poll();

  struct PromotionReport {
    /// The fence the promoted session now owns (> every token observed).
    uint64_t fencing_token = 0;
    uint64_t applied_votes = 0;
    uint64_t generation = 0;
  };

  /// Final drain + fence raise + manifest fencing-token persist (durable
  /// standbys). After Promote the session serves as a normal primary and
  /// this applier refuses further Poll() calls.
  Result<PromotionReport> Promote();

  const std::string& session_name() const { return manifest_.name; }
  std::shared_ptr<EstimationSession> session() const { return session_; }
  uint64_t applied_votes() const { return applied_votes_; }
  uint64_t applied_generation() const { return applied_generation_; }
  bool divergent() const { return divergent_; }
  bool promoted() const { return promoted_; }
  uint64_t divergences() const { return divergences_; }
  uint64_t resyncs() const { return resyncs_; }

 private:
  StandbyApplier(DqmEngine& engine,
                 std::shared_ptr<ReplicationTransport> transport,
                 Options options, SessionManifest manifest);

  /// Builds the SessionOptions a recovered/standby session runs with
  /// (mirrors DqmEngine recovery: manifest stripes are pinned, 0 -> 1).
  SessionOptions BuildSessionOptions() const;

  /// Closes + reopens the warm session from checkpoint artifact bytes
  /// (empty `ckpt` = from scratch at generation `generation`).
  Status ResyncFromCheckpoint(uint64_t generation,
                              std::span<const uint8_t> ckpt);

  /// One pass of Poll over a single transport listing: resync from a newer
  /// checkpoint if needed, then apply pending segments. NotFound when a
  /// listed artifact vanished before it was read (garbage-collected by the
  /// primary), which Poll answers with one fresh listing.
  Status ApplyListing();

  /// Validates and applies one decoded segment; flags divergence and
  /// returns without applying anything on any mismatch.
  Status ApplySegment(const crowd::WalSegment& segment);

  void NoteDivergence(const std::string& why);

  DqmEngine& engine_;
  const std::shared_ptr<ReplicationTransport> transport_;
  const Options options_;
  SessionManifest manifest_;
  std::shared_ptr<EstimationSession> session_;

  bool opened_ = false;
  bool promoted_ = false;
  bool divergent_ = false;
  uint64_t applied_generation_ = 0;
  uint64_t next_seq_ = 1;
  /// WAL byte offset the next segment must start at.
  uint64_t expected_offset_ = 0;
  uint64_t applied_votes_ = 0;
  uint64_t divergences_ = 0;
  uint64_t resyncs_ = 0;
  /// Highest fencing token observed in shipped segments.
  uint64_t max_token_seen_ = 0;
  /// Highest cumulative vote count observed in decoded artifacts — the
  /// basis for the lag gauge.
  uint64_t max_cum_votes_seen_ = 0;

  std::vector<crowd::VoteEvent> scan_scratch_;
};

}  // namespace dqm::engine

#endif  // DQM_ENGINE_REPLICATION_H_
