// ReplicationManager: the library's primary public API.
//
// One manager governs the replicas of one data object (or one group of
// objects treated as a virtual object, Section II-A). It maintains the
// paper's machinery end to end:
//
//   * a micro-cluster summarizer per current replica (Section III-B),
//   * periodic macro-clustering placement proposals (Algorithm 1),
//   * the migration cost/benefit gate (Section III-C),
//   * optional demand-driven adjustment of the replication degree k.
//
// The manager is deliberately transport-agnostic: callers route client
// accesses to it (serve / record_access) and invoke run_epoch() on whatever
// schedule they like. The scenario engine (`scenario/runner.h`) wires it
// into the discrete-event simulator; a real deployment would wire it to RPC
// handlers the same way.
//
// Concurrency contract (capability-annotated, see common/sync.h): the
// *record* paths — serve / record_access / record_access_batch — may be
// called concurrently from any number of threads. Each record ingests its
// rows straight into the replica's summarizer under the manager's one
// ingest mutex, which also guards the epoch access counter, so records to
// one manager are serialized; the groups of a fleet each have their own
// manager and ingest independently. No accesses are lost or corrupted (the
// interleaving order across threads is the scheduler's, so
// bit-reproducibility holds only for externally ordered streams). The
// *epoch and checkpoint* paths — run_epoch / save / restore / summary_of /
// delay_by_degree_curve — require exclusive access to the manager: they
// read and replace the summarizers the record paths feed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/summarizer.h"
#include "common/point_set.h"
#include "common/serialize.h"
#include "common/sync.h"
#include "core/collector.h"
#include "core/epoch_trace.h"
#include "core/migration.h"
#include "placement/candidate_table.h"
#include "placement/types.h"

namespace geored::core {

/// Checkpoint wire format produced by ReplicationManager::save. The header
/// guards against feeding stale or foreign blobs into restore(): the magic
/// identifies the blob as a manager checkpoint at all, and the version is
/// bumped whenever the payload layout changes so an old blob fails with a
/// clear error instead of misparsing silently.
///
/// Version history:
///   1  placement, degree, per-replica summaries, counters, warm centroids
///   2  v1 + the external budget state (budget_granted flag, budget_weight)
///      appended after the degree field, so a restored coordinator resumes
///      a fleet allocator's decisions. v1 blobs still load; they restore
///      the documented defaults budget_granted = false, budget_weight = 1.
///   3  v2 with each replica's summaries as one summary frame
///      (cluster/summary_frame.h) instead of the fixed-width per-cluster
///      layout; every other field is unchanged. v1 and v2 blobs still load,
///      their summaries through cluster::read_fixed_width_clusters.
///   4  v3 with no micro-cluster weight: every cluster header has w = 1,
///      and one with w = 0 is rejected. v3 blobs still load, their summaries
///      through cluster::read_v3_clusters; like the v1 and v2 reader, it
///      checks each stored weight and drops it.
inline constexpr std::uint32_t kCheckpointMagic = 0x47524D43;  // "GRMC"
inline constexpr std::uint32_t kCheckpointVersion = 4;

struct ManagerConfig {
  /// Target degree of replication (the paper's k).
  std::size_t replication_degree = 3;

  /// Per-replica summarizer parameters (the paper's m etc.).
  cluster::SummarizerConfig summarizer;

  /// Migration cost/benefit gate.
  MigrationPolicy migration;

  /// Demand-adaptive degree (paper §III-C: "vary the number of replicas ...
  /// as the demand of an object increases/decreases"). When enabled, the
  /// degree grows by one when the epoch's accesses exceed
  /// grow_accesses_per_replica * degree, and shrinks by one when they fall
  /// below shrink_accesses_per_replica * degree.
  bool dynamic_degree = false;
  double grow_accesses_per_replica = 10000.0;
  double shrink_accesses_per_replica = 1000.0;
  std::size_t min_degree = 1;
  std::size_t max_degree = 7;
};

/// Outcome of one placement epoch.
struct EpochReport {
  place::Placement old_placement;
  place::Placement proposed_placement;
  place::Placement adopted_placement;  ///< == old unless migrated
  double old_estimated_delay_ms = 0.0; ///< summary-estimated per-access delay
  double new_estimated_delay_ms = 0.0;
  MigrationDecision decision;
  std::size_t replicas_moved = 0;      ///< sites added by the proposal
  std::size_t summary_bytes = 0;       ///< wire size of both phases' frames
  std::uint64_t epoch_accesses = 0;    ///< accesses summarized this epoch
  std::size_t degree = 0;              ///< k in force after the epoch
  std::size_t stale_sources = 0;       ///< sources served from a collector cache
  std::size_t lost_sources = 0;        ///< sources that contributed nothing
  std::size_t handoff_lost_sources = 0; ///< sources the adopted placement did not inherit
  /// Per-stage wall time of this epoch (observational only; see
  /// core/epoch_trace.h — no retained value or decision depends on it).
  EpochStageTrace stages;
};

class ReplicationManager {
 public:
  /// `candidates` are the usable data centers (with coordinates); the
  /// initial placement is a seeded random choice of k of them, exactly like
  /// a location-oblivious system would start. Collects summaries in-process
  /// (DirectCollector).
  ReplicationManager(std::vector<place::CandidateInfo> candidates, ManagerConfig config,
                     std::uint64_t seed);

  /// As above, but summaries reach the decision point through `collector` —
  /// the epoch's one pluggable stage (hierarchical, decentralized or rpc
  /// collection; see core/collector.h). Throws std::invalid_argument
  /// when `collector` is null.
  ReplicationManager(std::vector<place::CandidateInfo> candidates, ManagerConfig config,
                     std::uint64_t seed, std::unique_ptr<SummaryCollector> collector);

  /// As above, over a candidate table that other managers may share: a
  /// fleet builds one table and hands it to every group. Throws
  /// std::invalid_argument when `candidates` or `collector` is null.
  ReplicationManager(std::shared_ptr<const place::CandidateTable> candidates,
                     ManagerConfig config, std::uint64_t seed,
                     std::unique_ptr<SummaryCollector> collector);

  const place::Placement& placement() const { return placement_; }
  std::size_t degree() const { return degree_; }

  /// Chooses the replica that can serve a client at `client_coords` with the
  /// lowest estimated latency, records the access, and returns the replica.
  /// Throws std::invalid_argument, recording nothing, when no replica is at
  /// a finite distance (squared distances of extreme coordinates overflow).
  ///
  /// Every entry point that routes or records (serve, route, record_access,
  /// record_access_batch) requires client coordinates of the candidates'
  /// dimension with every component finite, and throws
  /// std::invalid_argument before ingesting or counting anything otherwise.
  topo::NodeId serve(const Point& client_coords);

  /// Pure routing: the replica nearest `client_coords` in coordinate space,
  /// skipping any replica in `down` (e.g. data centers currently failed).
  /// Returns nullopt when every replica is down or every squared distance
  /// overflows to infinity. Records nothing — callers that serve the access
  /// follow up with record_access. serve() is route({}) + record_access.
  std::optional<topo::NodeId> route(const Point& client_coords,
                                    const std::set<topo::NodeId>& down = {}) const;

  /// Records an access served by `replica` (which must currently hold a
  /// replica) for a client at `client_coords`, ingesting it into the
  /// replica's summarizer at once. Use this form when the caller did its
  /// own replica selection (e.g. the event-driven simulator).
  void record_access(topo::NodeId replica, const Point& client_coords);

  /// Records a whole chunk of accesses served by `replica`, one per row of
  /// `client_coords`. Equivalent to record_access per row in order; the
  /// chunk is ingested straight from `client_coords`, with no copy. A bad
  /// row rejects the whole chunk before anything is ingested or counted.
  void record_access_batch(topo::NodeId replica, const PointSet& client_coords);

  /// No-op, kept for existing callers: every record is ingested when it
  /// arrives, so there is nothing to flush.
  void flush_ingest() const {}

  /// Micro-clusters currently held for `replica`, read in place
  /// (observability / tests); valid until the replica's next record or
  /// epoch.
  cluster::ClusterView summary_of(topo::NodeId replica) const;

  /// Runs one placement epoch: collect summaries through the collector,
  /// propose a placement by online clustering (warm-started from the last
  /// epoch's macro centroids when configured), apply the migration gate,
  /// then either adopt the proposal and redistribute the summaries or age
  /// the kept ones. Deterministic in construction seed and the sequence of
  /// recorded accesses.
  ///
  /// `excluded` lists candidates that must not host replicas this epoch
  /// (e.g. data centers currently failed). If the *current* placement
  /// contains an excluded node, the proposal is adopted unconditionally —
  /// availability overrides the migration cost gate.
  EpochReport run_epoch(const std::set<topo::NodeId>& excluded = {});

  /// Accesses recorded since the last epoch.
  std::uint64_t epoch_accesses() const;

  /// Sets the degree an external allocator (e.g. FleetManager's replica
  /// budget) granted this object, clamped to the configured bounds. Takes
  /// effect at the next epoch: the proposal is sized to the new degree and
  /// adopted under the degree-change rule.
  void set_degree(std::size_t degree);

  /// Whether an external allocator has granted this manager a degree via
  /// set_degree since construction (or since the restored checkpoint said
  /// so) — how a fleet distinguishes "budget decision in force" from "still
  /// on the configured default" after a coordinator failover.
  bool budget_granted() const { return budget_granted_; }

  /// Allocation-priority weight an external controller (scenario engine,
  /// operator) assigned this object. FleetManager multiplies the group's
  /// demand curve by it before dividing the replica budget, so weight 2
  /// bids for replicas as if the group were twice as hot. 1 = neutral.
  void set_budget_weight(double weight);
  double budget_weight() const { return budget_weight_; }

  /// Estimated summary-weighted delay per access for each degree in
  /// [min_degree, max_degree], scaled by the summarized access weight so
  /// hot objects weigh more — the demand curve allocate_replica_budget
  /// consumes. Non-increasing by construction. Does not mutate any state.
  std::vector<double> delay_by_degree_curve(std::size_t min_degree,
                                            std::size_t max_degree) const;

  /// Serializes the full mutable state (placement, degree, per-replica
  /// summaries, epoch counters, warm-start centroids) behind a magic +
  /// format-version header (kCheckpointMagic / kCheckpointVersion) so a
  /// coordinator can checkpoint and a stand-by can resume without losing
  /// the learned usage knowledge.
  void save(ByteWriter& writer) const;

  /// A checkpoint that parse_checkpoint() has read and validated, ready for
  /// commit_checkpoint(). Opaque outside the manager.
  class Checkpoint {
    friend class ReplicationManager;
    std::uint64_t epoch_index = 0;
    std::uint64_t epoch_accesses = 0;
    std::size_t degree = 0;
    bool budget_granted = false;
    double budget_weight = 1.0;
    place::Placement placement;
    std::map<topo::NodeId, cluster::MicroClusterSummarizer> summarizers;
    PointSet warm_centroids;
  };

  /// Restores state saved by save(): commit_checkpoint(parse_checkpoint()).
  /// The manager must have been constructed with the same candidates and
  /// configuration. A rejected blob leaves the manager unchanged.
  void restore(ByteReader& reader);

  /// Reads one checkpoint written by save() and validates everything this
  /// manager would commit, changing nothing. Blobs with a wrong magic or an
  /// unknown format version, an empty placement, a placement that repeats a
  /// node or references an unknown candidate, micro-clusters or warm
  /// centroids of another dimension than the candidates', a warm centroid
  /// with a non-finite component, and counts larger than the bytes left
  /// could hold, throw std::invalid_argument (a truncated or oversized
  /// count is a WireFormatError, raised before anything is allocated for
  /// it). The placement may differ in size from the configured degree: a
  /// checkpoint taken before a set_degree took effect holds the old size.
  Checkpoint parse_checkpoint(ByteReader& reader) const;

  /// Installs a checkpoint parsed by this manager (or by one built with the
  /// same candidates and configuration). Cannot throw, so a caller that
  /// parses several checkpoints first can commit them all or none.
  void commit_checkpoint(Checkpoint checkpoint) noexcept;

 private:
  /// The record paths' lock and the epoch access counter it guards. Held by
  /// unique_ptr so the manager stays movable: a Mutex is a capability
  /// identity and cannot move.
  struct IngestState {
    Mutex mutex;
    std::uint64_t accesses GEORED_GUARDED_BY(mutex) = 0;
  };

  double estimate_average_delay(const place::Placement& placement,
                                const cluster::ClusterBuffer& summaries) const;
  void maybe_adjust_degree(std::uint64_t epoch_accesses);

  /// Immutable and possibly shared with the other groups of a fleet.
  std::shared_ptr<const place::CandidateTable> candidates_;
  ManagerConfig config_;
  std::uint64_t seed_;
  std::uint64_t epoch_index_ = 0;
  std::size_t degree_;
  bool budget_granted_ = false;
  double budget_weight_ = 1.0;
  place::Placement placement_;
  /// Not guarded: the map's structure is mutated only by the epoch and
  /// checkpoint paths (exclusive by contract); a summarizer's contents are
  /// mutated by the record paths only under the ingest mutex.
  std::map<topo::NodeId, cluster::MicroClusterSummarizer> summarizers_;
  std::unique_ptr<IngestState> ingest_ = std::make_unique<IngestState>();
  std::unique_ptr<SummaryCollector> collector_;
  /// The latest epoch's macro-cluster centroids: the next proposal's
  /// k-means warm start, so stable populations produce stable proposals
  /// instead of churning with seeding randomness. Saved by every checkpoint.
  PointSet warm_centroids_;
};

}  // namespace geored::core
