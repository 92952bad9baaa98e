#include "placement/offline_kmeans.h"

#include "cluster/kmeans.h"
#include "common/ensure.h"
#include "common/random.h"
#include "placement/assign.h"
#include "placement/random_placement.h"

namespace geored::place {

Placement OfflineKMeansPlacement::place(const PlacementInput& input) const {
  GEORED_ENSURE(!input.candidates.empty(), "no candidate data centers");
  if (input.clients.empty()) {
    // No usage information at all: degrade to the information-free baseline.
    return random_placement(input.candidates, input.k, input.seed);
  }

  cluster::WeightedPoints points;
  points.positions.reserve(input.clients.size());
  points.weights.reserve(input.clients.size());
  for (const auto& client : input.clients) {
    points.positions.push_back(client.coords);
    points.weights.push_back(static_cast<double>(client.access_count));
  }

  cluster::KMeansConfig config;
  config.k = std::min(input.k, input.candidates.size());
  Rng rng(input.seed);
  const auto result = cluster::weighted_kmeans(points, config, rng);

  // Cluster mass = total accesses assigned to each centroid.
  std::vector<double> mass(result.centroids.size(), 0.0);
  for (std::size_t i = 0; i < points.weights.size(); ++i) {
    mass[result.assignment[i]] += points.weights[i];
  }
  return assign_centroids_to_candidates(result.centroids, mass, input.candidates, config.k,
                                        input.seed);
}

}  // namespace geored::place
