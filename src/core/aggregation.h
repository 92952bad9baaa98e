// Hierarchical summary collection.
//
// Algorithm 1 ships every replica's micro-clusters straight to one central
// server. That is fine for one object with k = 3 replicas, but a store
// managing hundreds of object groups collects hundreds of summaries per
// epoch, and the paper itself notes that access information "needs to be
// processed efficiently even across data centers". This module builds a
// two-level aggregation tree: summary sources send to their nearest
// regional aggregator, each aggregator merges what it received into a
// *bounded* micro-cluster set (the same CluStream merge the summarizers
// use), and only the bounded merges travel to the root. Root inbound
// bandwidth becomes O(aggregators * m̂) instead of O(sources * m).
//
// Sources send full frames, because an aggregator's merge reads the second
// moments. Aggregators forward centroid frames (phase 1), and the moment
// frames that complete them only when the epoch adopts (phase 2,
// run_moment_upload); see cluster/summary_frame.h. A merged cluster has no
// single origin, so in an adopting epoch's hand-off every one departs: the
// moment frames ship whole, whatever the plan.
//
// Every hop reads and keeps clusters as flat rows (cluster/cluster_view.h):
// an aggregator merges a source's rows in place from its view, and the root
// appends each aggregator's final merge, read in place, to its own
// ClusterBuffer.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/cluster_view.h"
#include "cluster/summarizer.h"
#include "placement/types.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace geored::core {

/// Micro-cluster budget of each aggregator's merged summary (m̂).
inline constexpr std::size_t kAggregatorClusterBudget = 16;

/// Which data centers aggregate, and who reports to whom.
struct AggregationPlan {
  std::vector<topo::NodeId> aggregators;
  /// source node -> aggregator node (aggregators map to themselves).
  std::map<topo::NodeId, topo::NodeId> parent;
};

/// One summary source: a node holding micro-clusters to report, read in
/// place (a replica's summarizer, or clusters the caller keeps alive while
/// the collection runs).
struct SummarySource {
  topo::NodeId node = 0;
  cluster::ClusterView clusters;
};

/// A centroid frame a node sent the root: its sender, and the size of the
/// moment frame that completes it in phase 2.
struct SentSummary {
  topo::NodeId node = 0;
  std::size_t moment_bytes = 0;
};

/// Chooses ceil(sqrt(#sources)) aggregators, the bandwidth-balancing count
/// for a two-level tree (at most one per candidate), among the candidates
/// (weighted k-means over the sources' coordinates, exactly the machinery
/// of Algorithm 1) and assigns every source to its nearest aggregator.
/// Deterministic in `seed`.
AggregationPlan plan_aggregation(const std::vector<place::CandidateInfo>& candidates,
                                 const std::vector<SummarySource>& sources,
                                 std::uint64_t seed);

struct AggregationResult {
  /// The root's merged view of every source's population: the forwarded
  /// clusters in the order they arrived, with their second moments.
  cluster::ClusterBuffer merged;
  /// Every centroid frame the root received, in the order they were sent:
  /// what phase 2 completes.
  std::vector<SentSummary> forwarded;
  std::uint64_t bytes_into_root = 0;   ///< summary bytes the root received
  std::uint64_t bytes_total = 0;       ///< summary bytes on all links
  double completion_ms = 0.0;          ///< virtual time until the root had everything
};

/// Runs phase 1 of the collection over the simulated network: full frames
/// from sources to aggregators, each merged into at most
/// kAggregatorClusterBudget clusters, and centroid frames from aggregators
/// to the root, every message charged as summary traffic. The simulator is
/// run to completion.
AggregationResult run_aggregation(sim::Simulator& simulator, sim::Network& network,
                                  const AggregationPlan& plan,
                                  const std::vector<SummarySource>& sources,
                                  topo::NodeId root);

/// Reference flat collection (every source's centroid frame straight to the
/// root), for the bandwidth comparison.
AggregationResult run_flat_collection(sim::Simulator& simulator, sim::Network& network,
                                      const std::vector<SummarySource>& sources,
                                      topo::NodeId root);

/// Phase 2, when the epoch adopts: every sender in `forwarded` ships the
/// root the moment frame that completes its centroid frame, charged as
/// summary traffic. Runs the simulator to completion and returns the bytes
/// the root received.
std::uint64_t run_moment_upload(sim::Simulator& simulator, sim::Network& network,
                                const std::vector<SentSummary>& forwarded,
                                topo::NodeId root);

}  // namespace geored::core
