// The placement epoch: one fixed loop with one pluggable stage.
//
// Algorithm 1 is one fixed loop — collect summaries, macro-cluster them,
// map centroids to data centers, gate the migration — and the library used
// to reproduce it three separate times (ReplicationManager::run_epoch, the
// decentralized all-to-all variant, and the hierarchical aggregation tree).
// What deployments vary is how the micro-cluster summaries reach the
// decision point, so that is the one seam:
//
//   SummaryCollector   direct in-process, two-level aggregation tree,
//                      all-to-all decentralized agreement, or real sockets
//                      ("rpc", net/rpc_collector.h)
//
// Collection runs in two phases (cluster/summary_frame.h). Phase 1
// (collect) ships every source's centroid frame: the counts and sums that
// propose and gate read. Phase 2 (collect_moments) runs only when
// the gate adopts, and only for the clusters that change replica. Before
// it, plan_handoff sends each collected cluster to the adopted replica
// nearest its centroid; a cluster whose destination is the replica that
// reported it stays, and its second moments never leave that replica. Phase
// 2 ships the moments of the departing clusters alone, and a source with
// none departing takes no part.
//
// Sources are read in place (a SummarySource views its replica's
// summarizer), and collection builds the epoch's clusters once, into one
// flat buffer (cluster::ClusterBuffer) that propose, gate and adopt read.
// Each row remembers the node that reported it, and the plan travels with
// the rows.
//
// ReplicationManager::run_epoch runs the fixed steps around them: collect,
// propose (online clustering with the warm-start centroid cache), gate
// (decide_migration, §III-C), and then either plan_handoff, collect_moments
// and adopt (redistribute_to_nearest below) or age the kept summaries. A
// collector that already agreed on a proposal in-protocol (decentralized)
// returns it, and the propose step is skipped.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/summarizer.h"
#include "core/aggregation.h"
#include "net/clock.h"
#include "net/rpc_config.h"
#include "placement/candidate_table.h"
#include "placement/types.h"

namespace geored::core {

/// Epoch-scoped facts every collector may need: which data centers are
/// usable this epoch, the degree in force, and the epoch's decision seed.
struct CollectionContext {
  const std::vector<place::CandidateInfo>& candidates;
  std::size_t k = 3;
  std::uint64_t epoch_seed = 0;
};

/// What a collection round produced.
struct CollectedSummaries {
  /// Every collected micro-cluster, flattened in source order, each row with
  /// the node that reported it ("hierarchical": none, an aggregator merged
  /// it). After phase 1 only count and sum are guaranteed; after
  /// phase 2 every departing cluster of the hand-off plan carries its second
  /// moments, and a staying one is read from its replica at adoption.
  cluster::ClusterBuffer summaries;
  /// Wire bytes of both phases (the O(km) cost of Table II): the centroid
  /// frames, then the departure masks and departing moment frames.
  std::size_t summary_bytes = 0;
  /// Set when the collection protocol itself already agreed on a proposal
  /// (the decentralized collector); run_epoch then skips its propose step.
  std::optional<place::Placement> agreed_proposal;
  /// Sources whose summary could not be collected this round and was served
  /// from the collector's last-epoch cache instead ("rpc" degradation).
  std::vector<topo::NodeId> stale_sources;
  /// Sources that contributed nothing: collection failed and no cached
  /// summary existed. The epoch still completes on what did arrive.
  std::vector<topo::NodeId> lost_sources;
  /// Sources whose clusters phase 2 removed from `summaries`, so the adopted
  /// placement does not inherit them: their second moments could not be
  /// collected ("rpc": the phase-2 fetch ran out of retries, which loses the
  /// source's departing clusters, or phase 1 served the source a stale
  /// fallback, which loses all of them).
  std::vector<topo::NodeId> handoff_lost_sources;
};

/// The epoch's one pluggable stage: ships per-replica summaries to the
/// placement decision point.
class SummaryCollector {
 public:
  virtual ~SummaryCollector() = default;

  /// Registry name of this collector ("direct", "hierarchical", ...).
  virtual std::string name() const = 0;

  /// Phase 1: collects `sources` (one entry per reporting replica, in
  /// source order) into one flattened summary set, shipping each source's
  /// centroid frame. Must be deterministic in the sources and
  /// `context.epoch_seed`.
  virtual CollectedSummaries collect(const std::vector<SummarySource>& sources,
                                     const CollectionContext& context) = 0;

  /// Phase 2, run only when the epoch adopts a placement: completes
  /// `collected`, what collect() just returned for the same `sources` and
  /// `context` with the hand-off planned on it (plan_handoff), for the
  /// hand-off. Afterwards every departing cluster left in
  /// collected.summaries carries its second moments, the clusters whose
  /// moments could not be collected are removed with their destinations
  /// (their sources appended to handoff_lost_sources), and summary_bytes has
  /// grown by what phase 2 sent. Must be deterministic like collect().
  virtual void collect_moments(const std::vector<SummarySource>& sources,
                               const CollectionContext& context,
                               CollectedSummaries& collected) = 0;
};

/// In-process collection: summaries are concatenated locally, and the wire
/// size is the sum of the frames (cluster/summary_frame.h) the sources and
/// the coordinator would send each other, computed without writing them:
/// the sources' centroid frames in phase 1; in phase 2, for each source with
/// a departing cluster, its departure mask (coordinator -> source) and its
/// departing moment frame. Phase 1 buffers centroid rows only, and phase 2
/// fills in the departing rows' moments from the sources.
class DirectCollector final : public SummaryCollector {
 public:
  std::string name() const override { return "direct"; }
  CollectedSummaries collect(const std::vector<SummarySource>& sources,
                             const CollectionContext& context) override;
  void collect_moments(const std::vector<SummarySource>& sources,
                       const CollectionContext& context,
                       CollectedSummaries& collected) override;
};

/// Two-level aggregation tree over the simulated network (core/aggregation):
/// sources -> nearest regional aggregator -> root. Sources send their
/// aggregator full frames, because aggregators merge clusters; aggregators
/// send the root centroid frames in phase 1 and moment frames in phase 2.
/// A merged cluster has no single origin, so every one departs in the
/// hand-off: phase 2 ignores the plan and ships every moment frame. The
/// reported wire size is the root's inbound bytes — the bandwidth the tree
/// exists to bound.
class HierarchicalCollector final : public SummaryCollector {
 public:
  /// The collector plans a fresh tree per epoch (sources move) and runs it
  /// over `simulator`/`network`, with the root at `root`.
  HierarchicalCollector(sim::Simulator& simulator, sim::Network& network, topo::NodeId root);

  std::string name() const override { return "hierarchical"; }
  CollectedSummaries collect(const std::vector<SummarySource>& sources,
                             const CollectionContext& context) override;
  void collect_moments(const std::vector<SummarySource>& sources,
                       const CollectionContext& context,
                       CollectedSummaries& collected) override;

 private:
  sim::Simulator& simulator_;
  sim::Network& network_;
  topo::NodeId root_;
  /// The latest collect()'s aggregator -> root frames, which phase 2
  /// completes.
  std::vector<SentSummary> forwarded_;
};

/// All-to-all decentralized agreement (core/decentralized): every replica
/// receives every centroid frame, computes the placement locally by the
/// paper's online clustering with the shared epoch seed, and the agreed
/// proposal is returned — run_epoch's propose step is skipped. Every replica
/// derives the hand-off plan from the agreed proposal, so phase 2 sends no
/// mask: each source sends each destination one departing moment frame with
/// the clusters bound for it.
class DecentralizedCollector final : public SummaryCollector {
 public:
  DecentralizedCollector(sim::Simulator& simulator, sim::Network& network);

  std::string name() const override { return "decentralized"; }
  CollectedSummaries collect(const std::vector<SummarySource>& sources,
                             const CollectionContext& context) override;
  void collect_moments(const std::vector<SummarySource>& sources,
                       const CollectionContext& context,
                       CollectedSummaries& collected) override;

 private:
  sim::Simulator& simulator_;
  sim::Network& network_;
};

/// The hand-off plan of an adopting epoch: sets each collected cluster's
/// destination to the replica of `next` nearest its centroid. The placement
/// coordinates are staged once as a PointSet, and each centroid resolves by
/// one nearest_of scan (strict `<`, first winner), in parallel over the
/// pool above 2,048 clusters; per-row results are independent, so the plan
/// is the same at any thread count.
void plan_handoff(const place::Placement& next, const place::CandidateTable& candidates,
                  cluster::ClusterBuffer& summaries);

/// The adopt step of run_epoch: `summarizers` becomes one summarizer per
/// replica of `next`, holding the collected micro-clusters, each handed to
/// the destination its plan (plan_handoff) names, so usage knowledge
/// survives the move. A departing cluster brings its second moments in
/// `summaries`; a staying one's are read in place from its own replica's
/// summarizer (the one `summaries` was collected from) before that
/// summarizer is cleared, and copied into `summaries`. The map is refilled
/// in place: the summarizer of a node that keeps its replica is cleared and
/// reused, those of dropped nodes are erased, and new nodes get fresh ones
/// built with `summarizer_config` (which the kept ones must share). Merges
/// run in summary order, so the result equals fresh summarizers fed the
/// same merges in the same order — byte-identical to the frozen scalar
/// reference redistribute_to_nearest_scalar (reference/scalar.h) fed every
/// cluster's moments, pinned by EpochPipeline.AdopterMatchesScalar and
/// EpochPipeline.HandOffPlanMatchesScalar.
void redistribute_to_nearest(
    const place::Placement& next, cluster::ClusterBuffer& summaries,
    const cluster::SummarizerConfig& summarizer_config,
    std::map<topo::NodeId, cluster::MicroClusterSummarizer>& summarizers);

/// Dependencies a collector implementation may need. "direct" needs none;
/// the protocol collectors run over the simulated network.
struct CollectorConfig {
  sim::Simulator* simulator = nullptr;
  sim::Network* network = nullptr;
  /// Root of the two-level tree ("hierarchical").
  topo::NodeId aggregation_root = 0;
  /// Fault schedule and retry budget ("rpc"); the defaults give a clean
  /// wire, byte-identical to "direct".
  net::RpcCollectorConfig rpc;
  /// Transport clock ("rpc"); null means the real SystemClock. Tests inject
  /// a net::VirtualClock so retry backoff costs no wall time.
  std::shared_ptr<net::Clock> rpc_clock;
};

/// String-keyed collector registry: "direct", "hierarchical",
/// "decentralized", "rpc". Throws std::invalid_argument for unknown names
/// and when a protocol collector is requested without simulator/network
/// ("rpc" runs over real localhost sockets and needs neither).
std::unique_ptr<SummaryCollector> make_collector(const std::string& name,
                                                 const CollectorConfig& config = {});

/// Names make_collector accepts, in registry order.
std::vector<std::string> collector_names();

}  // namespace geored::core
