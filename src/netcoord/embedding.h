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
};

/// The coordinate systems a node's coordinates can come from.
enum class CoordSystem { kRnp, kVivaldi, kGnp };

/// "rnp", "vivaldi" or "gnp".
std::string coord_system_name(CoordSystem system);

/// The system coord_system_name calls `name`; std::invalid_argument for any
/// other name.
CoordSystem coord_system_from_name(const std::string& name);

/// Runs Vivaldi for all nodes of the topology; deterministic in `seed`.
/// Shares run_rnp's gossip driver, but a Vivaldi observation costs less
/// than handing a coordinate between cores, so every round runs on the
/// calling thread; bit-identical at any GEORED_THREADS.
std::vector<NetworkCoordinate> run_vivaldi(const topo::Topology& topology,
                                           const VivaldiConfig& config,
                                           const GossipConfig& gossip, std::uint64_t seed);

/// Runs the RNP retrospective protocol for all nodes; deterministic in `seed`.
/// The whole embedding is one dataflow region on the global thread pool
/// (sized by GEORED_THREADS): one lane per pool thread, each observing its
/// nodes as soon as their peers have published the coordinates the
/// sequential schedule shows them, so the coordinates are bit-identical at
/// any thread count and SIMD level (netcoord/gossip_detail.h). Called from
/// inside parallel work it runs inline as one lane; it must not be entered
/// from two raw threads at once, which the pool rejects as concurrent
/// run_chunks.
std::vector<NetworkCoordinate> run_rnp(const topo::Topology& topology, const RnpConfig& config,
                                       const GossipConfig& gossip, std::uint64_t seed);

/// Embeds every node of the topology with `system` at its default
/// configuration: run_rnp or run_vivaldi over `gossip` from `seed`, or
/// run_gnp, which is centralized and reads neither.
std::vector<NetworkCoordinate> embed(const topo::Topology& topology, CoordSystem system,
                                     const GossipConfig& gossip, std::uint64_t seed);

/// Prediction quality of an embedding against the ground truth.
struct EmbeddingQuality {
  Summary absolute_error_ms;  ///< |predicted - actual| over all pairs
  Summary relative_error;     ///< |predicted - actual| / actual
  std::string to_string() const;
};

EmbeddingQuality evaluate_embedding(const topo::Topology& topology,
                                    const std::vector<NetworkCoordinate>& coords);

}  // namespace geored::coord
