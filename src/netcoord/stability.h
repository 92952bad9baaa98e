// Coordinate stability measurement.
//
// The paper's stated reason for RNP over Vivaldi is twofold: prediction
// accuracy AND "coordinate stability ... even if it runs on unstable
// platforms". Unstable coordinates churn downstream consumers (summaries,
// placements) even when prediction error is fine, so stability deserves its
// own metric: the per-node coordinate displacement per gossip round after a
// warmup period.
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "netcoord/embedding.h"
#include "topology/topology.h"

namespace geored::coord {

struct StabilityReport {
  /// Per-node coordinate displacement per round (ms of coordinate space),
  /// measured after the warmup rounds.
  Summary displacement_per_round_ms;
  /// Median absolute prediction error of the final coordinates (context:
  /// stability means little if accuracy was sacrificed).
  double final_abs_error_p50_ms = 0.0;
};

struct StabilityConfig {
  GossipConfig gossip;              ///< total rounds (warmup + measured)
  std::size_t warmup_rounds = 64;   ///< displacement ignored before this
};

/// Runs gossip protocol `system` (RNP or Vivaldi, at its default
/// configuration) over the topology and measures displacement per round;
/// std::invalid_argument for GNP, which does not gossip. Deterministic in
/// `seed`; both protocols see identical gossip schedules for a given seed,
/// so reports are directly comparable. Uses the global thread pool like
/// run_rnp, with the same bit-identity and threading contract.
StabilityReport measure_stability(const topo::Topology& topology, CoordSystem system,
                                  const StabilityConfig& config, std::uint64_t seed);

}  // namespace geored::coord
