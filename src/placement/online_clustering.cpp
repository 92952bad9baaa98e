#include "placement/online_clustering.h"

#include "common/ensure.h"
#include "common/random.h"
#include "placement/assign.h"
#include "placement/random_placement.h"

namespace geored::place {

namespace {

/// The production solvers.
constexpr detail::KMeansSolvers kSolvers{&cluster::weighted_kmeans_flat,
                                         &cluster::weighted_kmeans_flat_from};

}  // namespace

Placement OnlineClusteringPlacement::place(const PlacementInput& input) const {
  return detail::place_online_with(config_, input.candidates, input.k, input.summaries,
                                   input.seed, kSolvers)
      .placement;
}

// place_online_with validates the candidates, and the solvers k.
OnlineClusteringDetails OnlineClusteringPlacement::place_detailed(  // lint: no-ensure
    const std::vector<CandidateInfo>& candidates, std::size_t k,
    const cluster::ClusterBuffer& summaries, std::uint64_t seed) const {
  return detail::place_online_with(config_, candidates, k, summaries, seed, kSolvers);
}

OnlineClusteringDetails detail::place_online_with(const OnlineClusteringConfig& online,
                                                  const std::vector<CandidateInfo>& candidates,
                                                  std::size_t k,
                                                  const cluster::ClusterBuffer& summaries,
                                                  std::uint64_t seed, KMeansSolvers solvers) {
  GEORED_ENSURE(!candidates.empty(), "no candidate data centers");

  // Micro-clusters become weighted pseudo-points at their centroids
  // (Algorithm 1, line 2), read from the buffer's rows.
  cluster::WeightedPoints pseudo_points;
  pseudo_points.positions = PointSet(summaries.dim());
  pseudo_points.positions.reserve(summaries.size());
  pseudo_points.weights.reserve(summaries.size());
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const double weight = online.weigh_by_data_volume
                              ? summaries.weight(i)
                              : static_cast<double>(summaries.count(i));
    if (weight <= 0.0) continue;
    pseudo_points.positions.push_back_row(summaries.centroid(i), summaries.dim());
    pseudo_points.weights.push_back(weight);
  }
  if (pseudo_points.weights.empty()) {
    // First epoch: no usage summaries exist yet.
    return {random_placement(candidates, k, seed), {}};
  }

  cluster::KMeansConfig config = online.kmeans;
  config.k = std::min(k, candidates.size());
  Rng rng(seed);
  auto result = solvers.cold(pseudo_points, config, rng);

  // Warm start: if the previous epoch's centroids explain today's data
  // nearly as well (within the tolerance), prefer them — placements stay
  // put unless the population actually moved.
  if (online.warm_start_centroids.size() == config.k &&
      online.warm_start_centroids.front().dim() == pseudo_points.positions.dim()) {
    auto warm = solvers.warm(pseudo_points, online.warm_start_centroids, config);
    if (warm.objective <= result.objective * (1.0 + online.warm_start_tolerance)) {
      result = std::move(warm);
    }
  }

  std::vector<double> mass(result.centroids.size(), 0.0);
  for (std::size_t i = 0; i < pseudo_points.weights.size(); ++i) {
    mass[result.assignment[i]] += pseudo_points.weights[i];
  }
  OnlineClusteringDetails details;
  details.placement = assign_centroids_to_candidates(result.centroids, mass, candidates,
                                                     config.k, seed,
                                                     online.load_aware ? &mass : nullptr);
  details.macro_centroids = std::move(result.centroids);
  return details;
}

}  // namespace geored::place
