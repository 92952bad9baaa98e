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
// called concurrently from any number of threads. Staging is sharded by
// replica (shard = replica id mod ManagerConfig::ingest_shards), each shard
// behind its own mutex, so records to different replicas rarely contend; a
// record only serializes against records to replicas in the same shard and
// against a flush (which holds every shard). No accesses are lost or
// corrupted (the interleaving order across threads is the scheduler's, so
// bit-reproducibility holds only for externally ordered streams); flushes
// merge shards in node-id order, so observable summaries are byte-identical
// at any thread count and any shard count. The *epoch and checkpoint* paths
// — run_epoch / save / restore / summary_of / delay_by_degree_curve —
// require exclusive access to the manager: they read and replace the
// summarizers the record paths feed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/summarizer.h"
#include "common/point_set.h"
#include "common/serialize.h"
#include "common/sync.h"
#include "core/epoch_pipeline.h"
#include "core/epoch_trace.h"
#include "core/migration.h"
#include "placement/online_clustering.h"
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
inline constexpr std::uint32_t kCheckpointMagic = 0x47524D43;  // "GRMC"
inline constexpr std::uint32_t kCheckpointVersion = 2;

struct ManagerConfig {
  /// Target degree of replication (the paper's k).
  std::size_t replication_degree = 3;

  /// Per-replica summarizer parameters (the paper's m etc.).
  cluster::SummarizerConfig summarizer;

  /// Macro-clustering parameters (Algorithm 1).
  place::OnlineClusteringConfig strategy;

  /// Migration cost/benefit gate.
  MigrationPolicy migration;

  /// Feed each epoch's macro-cluster centroids into the next epoch as a
  /// k-means warm start, so stable populations produce stable proposals
  /// instead of churning with seeding randomness.
  bool warm_start_macro_clusters = true;

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

  /// Accesses staged per replica before the summarizer ingests them as one
  /// contiguous batch. It also bounds staging memory: a replica never
  /// stages a full grain, because a record that reaches it is ingested at
  /// once, and a batched record that reaches it is ingested in place from
  /// the caller's rows. Staging is invisible to callers — every read path
  /// (run_epoch, summary_of, save, the degree curve) flushes first, so
  /// observable summaries are independent of the grain. 1 = unbatched.
  std::size_t ingest_batch_grain = 256;

  /// Number of staging shards the record paths spread over (replica id mod
  /// shards). A fixed count — deliberately independent of the thread count —
  /// so the staging layout never depends on GEORED_THREADS; flushes merge
  /// shards in node-id order, making summaries byte-identical at any value
  /// here too. More shards = less record-path contention; 1 restores a
  /// single global staging lock.
  std::size_t ingest_shards = 8;
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
  std::size_t summary_bytes = 0;       ///< wire size of shipped summaries
  std::uint64_t epoch_accesses = 0;    ///< accesses summarized this epoch
  std::size_t degree = 0;              ///< k in force after the epoch
  std::size_t stale_sources = 0;       ///< sources served from a collector cache
  std::size_t lost_sources = 0;        ///< sources that contributed nothing
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
  /// collection; see core/epoch_pipeline.h). Throws std::invalid_argument
  /// when `collector` is null.
  ReplicationManager(std::vector<place::CandidateInfo> candidates, ManagerConfig config,
                     std::uint64_t seed, std::unique_ptr<SummaryCollector> collector);

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
  /// std::invalid_argument before staging or counting anything otherwise.
  topo::NodeId serve(const Point& client_coords, double data_weight = 1.0);

  /// Pure routing: the replica nearest `client_coords` in coordinate space,
  /// skipping any replica in `down` (e.g. data centers currently failed).
  /// Returns nullopt when every replica is down or every squared distance
  /// overflows to infinity. Records nothing — callers that serve the access
  /// follow up with record_access. serve() is route({}) + record_access.
  std::optional<topo::NodeId> route(const Point& client_coords,
                                    const std::set<topo::NodeId>& down = {}) const;

  /// Records an access served by `replica` (which must currently hold a
  /// replica) for a client at `client_coords`. Use this form when the caller
  /// did its own replica selection (e.g. the event-driven simulator).
  /// Accesses are staged and ingested in batches of
  /// ManagerConfig::ingest_batch_grain; results are identical to immediate
  /// ingestion (see flush_ingest).
  void record_access(topo::NodeId replica, const Point& client_coords, double data_weight = 1.0);

  /// Records a whole chunk of accesses served by `replica`: row i of
  /// `client_coords` with data_weights[i] (or 1.0 per row when
  /// `data_weights` is empty). Equivalent to record_access per row in
  /// order; the batch form skips the per-access staging overhead. A bad
  /// row rejects the whole chunk before anything is staged or counted.
  /// A chunk that keeps the replica's staged rows below
  /// ManagerConfig::ingest_batch_grain is staged; a chunk that reaches the
  /// grain is ingested together with the staged rows, straight from
  /// `client_coords` and `data_weights` (no copy), so the call's extra
  /// memory never exceeds one grain whatever the chunk size.
  void record_access_batch(topo::NodeId replica, const PointSet& client_coords,
                           std::span<const double> data_weights = {});

  /// Ingests every staged access into its replica's summarizer (in recorded
  /// order per replica; replicas in parallel on the deterministic thread
  /// pool). Called automatically by every state-reading entry point, so it
  /// only needs to be called directly when benchmarking ingestion itself.
  void flush_ingest() const;

  /// Micro-clusters currently held for `replica` (observability / tests).
  const std::vector<cluster::MicroCluster>& summary_of(topo::NodeId replica) const;

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

  /// Accesses recorded since the last epoch (sum of per-shard counters,
  /// read shard by shard in index order).
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

  /// Restores state saved by save(). The manager must have been constructed
  /// with the same candidates and configuration. Everything is validated
  /// before anything is committed: blobs with a wrong magic or an unknown
  /// format version, an empty placement, a placement that repeats a node or
  /// references an unknown candidate, micro-clusters or warm centroids of
  /// another dimension than the candidates', and counts larger than the
  /// bytes left could hold, throw std::invalid_argument and leave the
  /// manager unchanged (a truncated or oversized count is a WireFormatError,
  /// raised before anything is allocated for it). The placement may differ
  /// in size from the configured degree: a checkpoint taken before a
  /// set_degree took effect holds the old size.
  void restore(ByteReader& reader);

 private:
  /// Staged accesses awaiting ingestion into one replica's summarizer:
  /// always fewer rows than ingest_batch_grain, so its buffers are
  /// O(grain), never O(batch). The drained form keeps its buffers
  /// (PointSet::clear preserves dimension and capacity), so steady-state
  /// staging is allocation-free. An entry lives only as long as its replica
  /// is in the placement in force: run_epoch (after adoption) and restore
  /// drop the entries of other nodes, which the flush has already emptied.
  struct PendingBatch {
    PointSet coords;
    std::vector<double> weights;
  };

  /// One staging shard: a slice of the per-replica pending batches plus its
  /// share of the epoch access counter, behind its own mutex. A replica
  /// always maps to the same shard (node id mod shard count), so a
  /// replica's staged stream — and any grain-triggered ingestion into its
  /// summarizer — is serialized by exactly one mutex. Held by unique_ptr:
  /// a Mutex is a capability identity and cannot move when the vector is
  /// built.
  struct IngestShard {
    mutable Mutex mutex;
    std::map<topo::NodeId, PendingBatch> pending GEORED_GUARDED_BY(mutex);
    std::uint64_t accesses GEORED_GUARDED_BY(mutex) = 0;
  };

  double estimate_average_delay(const place::Placement& placement,
                                const std::vector<cluster::MicroCluster>& summaries) const;
  const place::CandidateInfo& candidate_info(topo::NodeId node) const;
  void maybe_adjust_degree(std::uint64_t epoch_accesses);
  /// Erases the staging of nodes that no longer hold a replica. The caller
  /// holds the shard's mutex, runs exclusively and after a flush.
  void drop_retired_staging(std::map<topo::NodeId, PendingBatch>& pending) const;
  IngestShard& shard_of(topo::NodeId replica) const {
    return *ingest_shards_[replica % ingest_shards_.size()];
  }

  std::vector<place::CandidateInfo> candidates_;
  std::size_t coord_dim_ = 0;  ///< the candidates' (and so the clients') dimension
  ManagerConfig config_;
  std::uint64_t seed_;
  std::uint64_t epoch_index_ = 0;
  std::size_t degree_;
  bool budget_granted_ = false;
  double budget_weight_ = 1.0;
  place::Placement placement_;
  /// mutable with the shards: staging is a cache layout, not observable
  /// state — const readers flush it so summaries never depend on the grain.
  /// Not guarded: the map's structure is mutated only by the epoch and
  /// checkpoint paths (exclusive by contract); a summarizer's contents are
  /// only mutated under its replica's shard mutex (grain ingestion) or with
  /// every shard held (flush).
  mutable std::map<topo::NodeId, cluster::MicroClusterSummarizer> summarizers_;
  /// Fixed-count staging shards (see ManagerConfig::ingest_shards). A flush
  /// acquires every shard in index order and holds them across its parallel
  /// ingest — pool chunks never take shard mutexes — so records observe
  /// either pre- or post-flush staging, never a torn one.
  mutable std::vector<std::unique_ptr<IngestShard>> ingest_shards_;
  std::unique_ptr<SummaryCollector> collector_;
  /// The latest epoch's macro-cluster centroids: the next proposal's warm
  /// start when ManagerConfig::warm_start_macro_clusters is set, and saved
  /// by every checkpoint either way.
  std::vector<Point> warm_centroids_;
};

}  // namespace geored::core
