// Decentralized placement epochs — no central server.
//
// Algorithm 1 collects summaries "at a node"; that node is a single point
// of failure and a bandwidth hotspot. Because the whole decision is a
// deterministic function of (candidate set, summaries, epoch seed), the
// replicas can instead exchange their summaries all-to-all and *each*
// compute the placement locally: with identical inputs — summaries ordered
// by source id — and an identical seed, every replica arrives at the same
// proposal without any coordination round. Cost: k*(k-1) centroid frames
// instead of k, still O(k^2 * m) bytes total — negligible for the paper's
// k <= 7. An adopting epoch then sends each departing cluster's second
// moments once, to its destination.
//
// The sources are read in place (SummarySource views), and the input every
// replica assembles is built once, as one flat buffer (cluster::
// ClusterBuffer): the frames carry no copies of the clusters.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster_view.h"
#include "core/aggregation.h"
#include "placement/strategy.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace geored::core {

struct DecentralizedEpochResult {
  /// The agreed proposal (meaningful when `agreement` holds).
  place::Placement proposal;
  /// What each participating replica computed, in source-id order.
  std::vector<place::Placement> per_replica;
  bool agreement = false;
  std::uint64_t summary_bytes = 0;  ///< total centroid-frame traffic exchanged
  double completion_ms = 0.0;       ///< when the last replica decided
  /// The input every replica decided on: the sources' clusters in source-id
  /// order (the sources of one node in the order given), each row with the
  /// node that reported it, its index in that source's clusters, and its
  /// second moments when the source carries them.
  cluster::ClusterBuffer summaries;
};

/// Runs one decentralized epoch over the simulated network. `sources` are
/// the current replica holders and their micro-clusters, read in place; the
/// sources of one node make one replica, whose centroid frame holds all of
/// their clusters. Every replica sends its frame to every other one, and
/// decides once the k-1 others have arrived. A decision takes no simulated
/// time, so the replicas decide after the exchange has run, each on the same
/// flat input, and the epoch completes when the last frame arrives.
/// `strategy` is the shared per-replica decision rule (identical inputs + a
/// deterministic strategy is what makes agreement work, so the strategy
/// must honor the PlacementStrategy determinism contract). Deterministic in
/// `epoch_seed`.
DecentralizedEpochResult run_decentralized_epoch(
    sim::Simulator& simulator, sim::Network& network,
    const std::vector<place::CandidateInfo>& candidates,
    const std::vector<SummarySource>& sources, std::size_t k, std::uint64_t epoch_seed,
    const place::PlacementStrategy& strategy);

/// Phase 2 of a decentralized epoch that adopts. Every replica derives the
/// hand-off plan of `planned` (core::plan_handoff) from the agreed proposal,
/// so no departure mask travels: each source sends each destination one
/// departing moment frame holding the clusters bound for it, and a cluster
/// that stays on its replica is not sent. Runs the simulator to completion
/// and returns the summary bytes exchanged.
std::uint64_t exchange_departing_frames(sim::Simulator& simulator, sim::Network& network,
                                        const cluster::ClusterBuffer& planned);

}  // namespace geored::core
