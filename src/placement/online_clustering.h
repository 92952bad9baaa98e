// The paper's contribution (Algorithm 1): macro-clustering of per-replica
// micro-cluster summaries.
//
// Input: the k*m micro-clusters shipped by the current replica servers.
// Each micro-cluster is treated as a pseudo-point at its centroid, weighted
// by its access count (optionally by data volume); weighted k-means merges
// them into k macro-clusters, and each macro centroid is mapped to the
// nearest distinct candidate data center. Bandwidth and compute are
// independent of the number of clients (Table II). ReplicationManager::
// run_epoch runs this as its fixed propose step, feeding each epoch's macro
// centroids back as the next epoch's warm start.
#pragma once

#include "cluster/kmeans.h"
#include "placement/strategy.h"

namespace geored::place {

struct OnlineClusteringConfig {
  cluster::KMeansConfig kmeans;
  /// Weigh pseudo-points by data volume instead of access count. The paper
  /// maintains both; access count is its default objective (delay per
  /// access), data volume suits transfer-time objectives.
  bool weigh_by_data_volume = false;
  /// Respect candidate capacities when mapping macro-clusters to data
  /// centers (load-aware extension; off reproduces the paper).
  bool load_aware = false;

  /// Warm-start centroids, typically the previous epoch's macro-cluster
  /// centroids (empty = cold start, the paper's behavior). When provided,
  /// Lloyd also runs from them and wins whenever its objective is within
  /// `warm_start_tolerance` of the cold k-means++ result — stable
  /// populations then produce *stable* placements instead of churning with
  /// the seeding randomness, while real population shifts still win.
  std::vector<Point> warm_start_centroids;
  double warm_start_tolerance = 0.02;
};

/// place() plus the macro-cluster centroids behind the decision (callers
/// feed them back as the next epoch's warm start).
struct OnlineClusteringDetails {
  Placement placement;
  std::vector<Point> macro_centroids;
};

class OnlineClusteringPlacement final : public PlacementStrategy {
 public:
  explicit OnlineClusteringPlacement(OnlineClusteringConfig config = {}) : config_(config) {}

  std::string name() const override { return "online clustering"; }
  Placement place(const PlacementInput& input) const override;

  /// As place(), also returning the winning macro-cluster centroids.
  OnlineClusteringDetails place_detailed(const PlacementInput& input) const;

 private:
  OnlineClusteringConfig config_;
};

namespace detail {

/// The k-means solver pair behind one macro-clustering: the seeded cold
/// solve and the warm start from given centroids.
struct KMeansSolvers {
  cluster::KMeansResult (*cold)(const std::vector<cluster::WeightedPoint>&,
                                const cluster::KMeansConfig&, Rng&);
  cluster::KMeansResult (*warm)(const std::vector<cluster::WeightedPoint>&,
                                std::vector<Point>, const cluster::KMeansConfig&);
};

/// place_detailed over an explicit solver pair. place_detailed passes
/// {weighted_kmeans, weighted_kmeans_from}; bench/micro_perf's epoch
/// baseline passes the frozen scalar pair (reference/scalar.h), which is
/// bit-identical by contract, so the pair changes wall time only.
OnlineClusteringDetails place_online_with(const OnlineClusteringConfig& online,
                                          const PlacementInput& input, KMeansSolvers solvers);

}  // namespace detail

}  // namespace geored::place
