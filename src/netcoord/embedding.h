// Drivers that run a decentralized coordinate protocol (Vivaldi / RNP) over a
// ground-truth topology until convergence, and an evaluator that quantifies
// how well a coordinate assignment predicts the true RTT matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "netcoord/gnp.h"
#include "netcoord/rnp.h"
#include "netcoord/vivaldi.h"
#include "topology/topology.h"

namespace geored::coord {

struct GossipConfig {
  /// Communication rounds; in each round every node samples one random peer.
  /// 256 rounds bring RNP below 10 ms median absolute error on the default
  /// 226-node topology (the accuracy the paper reports for RNP).
  std::size_t rounds = 256;
  /// Fraction of a node's samples directed at a fixed random neighbor set
  /// (Vivaldi works best with mostly-stable neighbors plus some far pokes).
  std::size_t neighbor_set_size = 16;
  double far_probe_probability = 0.25;
};

/// Runs Vivaldi for all nodes of the topology; deterministic in `seed`.
/// Shares run_rnp's gossip driver, but Vivaldi nodes never refit, so every
/// round runs on the calling thread; bit-identical at any GEORED_THREADS.
std::vector<NetworkCoordinate> run_vivaldi(const topo::Topology& topology,
                                           const VivaldiConfig& config,
                                           const GossipConfig& gossip, std::uint64_t seed);

/// Runs the RNP retrospective protocol for all nodes; deterministic in `seed`.
/// The rounds in which nodes refit run on the global thread pool (sized by
/// GEORED_THREADS), scheduled so that the coordinates are bit-identical at
/// any thread count and SIMD level (netcoord/gossip_detail.h). Called from
/// inside parallel work it runs inline; it must not be entered from two
/// raw threads at once, which the pool rejects as concurrent run_chunks.
std::vector<NetworkCoordinate> run_rnp(const topo::Topology& topology, const RnpConfig& config,
                                       const GossipConfig& gossip, std::uint64_t seed);

/// Oracle embedding: coordinates that reproduce RTTs exactly are impossible
/// in general, so the oracle instead marks "use the true matrix"; provided
/// for ablations via PlacementContext rather than as coordinates.

/// Prediction quality of an embedding against the ground truth.
struct EmbeddingQuality {
  Summary absolute_error_ms;  ///< |predicted - actual| over all pairs
  Summary relative_error;     ///< |predicted - actual| / actual
  std::string to_string() const;
};

EmbeddingQuality evaluate_embedding(const topo::Topology& topology,
                                    const std::vector<NetworkCoordinate>& coords);

}  // namespace geored::coord
