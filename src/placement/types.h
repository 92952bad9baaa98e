// Shared types of the placement layer.
//
// A PlacementStrategy sees a PlacementInput describing what the system knows
// at decision time. Different strategies consume different fields — that
// asymmetry is the point of the paper's comparison:
//   random            : candidates only
//   online clustering : micro-cluster summaries, as flat rows
//                       (cluster/cluster_view.h), + candidate coordinates
//   offline k-means   : every client's coordinates + candidate coordinates
//   greedy / hotzone  : every client's coordinates (related-work baselines)
//   optimal           : the ground-truth RTT matrix (impractical oracle)
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/cluster_view.h"
#include "common/point.h"
#include "topology/topology.h"

namespace geored::place {

/// What a replica placement is: the chosen candidate data centers.
using Placement = std::vector<topo::NodeId>;

/// Per-client knowledge available to offline (non-summarizing) strategies.
struct ClientRecord {
  topo::NodeId client = 0;
  Point coords;                    ///< estimated network coordinates
  std::uint64_t access_count = 0;  ///< accesses in the analyzed period
};

/// A candidate data center.
struct CandidateInfo {
  topo::NodeId node = 0;
  Point coords;  ///< estimated network coordinates
  /// Maximum client access weight this site may serve (load-aware extension;
  /// infinity = unconstrained, the paper's setting).
  double capacity = std::numeric_limits<double>::infinity();
};

struct PlacementInput {
  std::vector<CandidateInfo> candidates;
  std::size_t k = 3;  ///< target degree of replication

  /// Full per-client records (offline strategies).
  std::vector<ClientRecord> clients;

  /// Micro-cluster summaries collected from replica servers (online
  /// strategy), as the flat rows a collector builds: the strategy reads
  /// each row's count and centroid in place.
  cluster::ClusterBuffer summaries;

  /// Ground truth; only the `optimal` oracle may read it.
  const topo::Topology* topology = nullptr;

  /// Number of replicas a client must reach (quorum extension; 1 = paper).
  std::size_t quorum = 1;

  /// Seed for any randomized choice inside a strategy.
  std::uint64_t seed = 0;
};

}  // namespace geored::place
