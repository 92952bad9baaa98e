#include "placement/online_clustering.h"

#include "common/ensure.h"
#include "common/random.h"
#include "placement/assign.h"
#include "placement/random_placement.h"

namespace geored::place {

namespace {

/// The production solvers.
constexpr detail::KMeansSolvers kSolvers{&cluster::weighted_kmeans,
                                         &cluster::weighted_kmeans_from};

}  // namespace

Placement OnlineClusteringPlacement::place(const PlacementInput& input) const {
  return detail::place_online_with(input.candidates, input.k, input.summaries, PointSet(),
                                   input.seed, kSolvers)
      .placement;
}

// place_online_with validates the candidates, and the solvers k.
OnlineClusteringDetails OnlineClusteringPlacement::place_detailed(  // lint: no-ensure
    const std::vector<CandidateInfo>& candidates, std::size_t k,
    const cluster::ClusterBuffer& summaries, const PointSet& warm_start, std::uint64_t seed) {
  return detail::place_online_with(candidates, k, summaries, warm_start, seed, kSolvers);
}

OnlineClusteringDetails detail::place_online_with(const std::vector<CandidateInfo>& candidates,
                                                  std::size_t k,
                                                  const cluster::ClusterBuffer& summaries,
                                                  const PointSet& warm_start,
                                                  std::uint64_t seed, KMeansSolvers solvers) {
  GEORED_ENSURE(!candidates.empty(), "no candidate data centers");

  // Micro-clusters become pseudo-points at their centroids weighted by
  // their access counts (Algorithm 1, line 2), read from the buffer's rows.
  cluster::WeightedPoints pseudo_points;
  pseudo_points.positions = PointSet(summaries.dim());
  pseudo_points.positions.reserve(summaries.size());
  pseudo_points.weights.reserve(summaries.size());
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const auto weight = static_cast<double>(summaries.count(i));
    if (weight <= 0.0) continue;
    pseudo_points.positions.push_back_row(summaries.centroid(i), summaries.dim());
    pseudo_points.weights.push_back(weight);
  }
  if (pseudo_points.weights.empty()) {
    // First epoch: no usage summaries exist yet.
    return {random_placement(candidates, k, seed), {}};
  }

  cluster::KMeansConfig config;
  config.k = std::min(k, candidates.size());
  Rng rng(seed);
  auto result = solvers.cold(pseudo_points, config, rng);

  // Warm start: if the previous epoch's centroids explain today's data
  // nearly as well (within the tolerance), prefer them — placements stay
  // put unless the population actually moved.
  if (warm_start.size() == config.k && warm_start.dim() == pseudo_points.positions.dim()) {
    auto warm = solvers.warm(pseudo_points, warm_start, config);
    if (warm.objective <= result.objective * (1.0 + kWarmStartTolerance)) {
      result = std::move(warm);
    }
  }

  // Each macro-cluster's access mass is both its priority and its demand
  // on a candidate's capacity.
  std::vector<double> mass(result.centroids.size(), 0.0);
  for (std::size_t i = 0; i < pseudo_points.weights.size(); ++i) {
    mass[result.assignment[i]] += pseudo_points.weights[i];
  }
  OnlineClusteringDetails details;
  details.placement =
      assign_centroids_to_candidates(result.centroids, mass, candidates, config.k, seed);
  details.macro_centroids = std::move(result.centroids);
  return details;
}

}  // namespace geored::place
