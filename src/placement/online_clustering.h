// The paper's contribution (Algorithm 1): macro-clustering of per-replica
// micro-cluster summaries.
//
// Input: the k*m micro-clusters shipped by the current replica servers.
// Each micro-cluster is treated as a pseudo-point at its centroid, weighted
// by its access count; weighted k-means merges them into k macro-clusters,
// and each macro centroid is mapped to the nearest distinct candidate data
// center. Bandwidth and compute are independent of the number of clients
// (Table II). ReplicationManager::run_epoch runs this as its fixed propose
// step, over its collected summaries in one flat buffer
// (cluster/cluster_view.h), feeding each epoch's macro centroids back as the
// next epoch's warm start.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster_view.h"
#include "cluster/kmeans.h"
#include "common/point_set.h"
#include "placement/strategy.h"

namespace geored::place {

/// How much worse than the cold k-means++ objective a warm start's may be
/// and still win: stable populations then produce *stable* placements
/// instead of churning with the seeding randomness, while real population
/// shifts still win.
inline constexpr double kWarmStartTolerance = 0.02;

/// place_detailed's result: the placement plus the macro-cluster centroids
/// behind it (callers feed them back as the next epoch's warm start).
struct OnlineClusteringDetails {
  Placement placement;
  PointSet macro_centroids;
};

class OnlineClusteringPlacement final : public PlacementStrategy {
 public:
  std::string name() const override { return "online clustering"; }
  /// Reads input.summaries in place; a cold start.
  Placement place(const PlacementInput& input) const override;

  /// As place(), over the given summaries and candidates read by reference,
  /// also returning the winning macro-cluster centroids: the placement
  /// epoch's form. `warm_start` holds the previous epoch's macro centroids
  /// (empty = cold start, the paper's behavior); when it holds k rows of the
  /// summaries' dimension, Lloyd also runs from them and wins whenever its
  /// objective is within kWarmStartTolerance of the cold result.
  /// Bit-identical to place() on an input holding the same candidates, k,
  /// summaries and seed when `warm_start` is empty.
  static OnlineClusteringDetails place_detailed(const std::vector<CandidateInfo>& candidates,
                                                std::size_t k,
                                                const cluster::ClusterBuffer& summaries,
                                                const PointSet& warm_start,
                                                std::uint64_t seed);
};

namespace detail {

/// The k-means solver pair behind one macro-clustering: the seeded cold
/// solve and the warm start from given centroids.
struct KMeansSolvers {
  cluster::KMeansResult (*cold)(const cluster::WeightedPoints&, const cluster::KMeansConfig&,
                                Rng&);
  cluster::KMeansResult (*warm)(const cluster::WeightedPoints&, PointSet,
                                const cluster::KMeansConfig&);
};

/// place_detailed over an explicit solver pair. place_detailed passes
/// {weighted_kmeans, weighted_kmeans_from}; bench/micro_perf's epoch
/// baseline passes the frozen scalar pair (reference/scalar.h), which is
/// bit-identical by contract, so the pair changes wall time only.
OnlineClusteringDetails place_online_with(const std::vector<CandidateInfo>& candidates,
                                          std::size_t k,
                                          const cluster::ClusterBuffer& summaries,
                                          const PointSet& warm_start, std::uint64_t seed,
                                          KMeansSolvers solvers);

}  // namespace detail

}  // namespace geored::place
