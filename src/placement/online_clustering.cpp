#include "placement/online_clustering.h"

#include "common/ensure.h"
#include "common/random.h"
#include "placement/assign.h"
#include "placement/random_placement.h"

namespace geored::place {

Placement OnlineClusteringPlacement::place(const PlacementInput& input) const {
  return place_detailed(input).placement;
}

OnlineClusteringDetails OnlineClusteringPlacement::place_detailed(
    const PlacementInput& input) const {
  return detail::place_online_with(
      config_, input, {&cluster::weighted_kmeans, &cluster::weighted_kmeans_from});
}

OnlineClusteringDetails detail::place_online_with(const OnlineClusteringConfig& online,
                                                  const PlacementInput& input,
                                                  KMeansSolvers solvers) {
  GEORED_ENSURE(!input.candidates.empty(), "no candidate data centers");

  // Micro-clusters become weighted pseudo-points (Algorithm 1, line 2).
  std::vector<cluster::WeightedPoint> pseudo_points;
  pseudo_points.reserve(input.summaries.size());
  for (const auto& micro : input.summaries) {
    if (micro.count() == 0) continue;
    const double weight = online.weigh_by_data_volume
                              ? micro.weight()
                              : static_cast<double>(micro.count());
    if (weight <= 0.0) continue;
    pseudo_points.push_back({micro.centroid(), weight});
  }
  if (pseudo_points.empty()) {
    // First epoch: no usage summaries exist yet.
    return {RandomPlacement().place(input), {}};
  }

  cluster::KMeansConfig config = online.kmeans;
  config.k = std::min(input.k, input.candidates.size());
  Rng rng(input.seed);
  auto result = solvers.cold(pseudo_points, config, rng);

  // Warm start: if the previous epoch's centroids explain today's data
  // nearly as well (within the tolerance), prefer them — placements stay
  // put unless the population actually moved.
  if (online.warm_start_centroids.size() == config.k &&
      online.warm_start_centroids.front().dim() ==
          pseudo_points.front().position.dim()) {
    auto warm = solvers.warm(pseudo_points, online.warm_start_centroids, config);
    if (warm.objective <= result.objective * (1.0 + online.warm_start_tolerance)) {
      result = std::move(warm);
    }
  }

  std::vector<double> mass(result.centroids.size(), 0.0);
  for (std::size_t i = 0; i < pseudo_points.size(); ++i) {
    mass[result.assignment[i]] += pseudo_points[i].weight;
  }
  OnlineClusteringDetails details;
  details.placement = assign_centroids_to_candidates(result.centroids, mass,
                                                     input.candidates, config.k, input.seed,
                                                     online.load_aware ? &mass : nullptr);
  details.macro_centroids = std::move(result.centroids);
  return details;
}

}  // namespace geored::place
