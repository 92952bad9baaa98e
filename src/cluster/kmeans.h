// Lloyd's k-means with k-means++ seeding over weighted points.
//
// This is Algorithm 1's macro-clustering step: micro-clusters are treated as
// pseudo-points located at their centroids and weighted by their access
// counts (Aggarwal et al.'s macro-cluster construction).
#pragma once

#include <cstddef>
#include <vector>

#include "common/point_set.h"
#include "common/random.h"

namespace geored::cluster {

/// Weighted points in flat form: row i of `positions` weighs weights[i].
/// The solvers' only input; the placement epoch builds it straight from its
/// summaries, without a Point per pseudo-point.
struct WeightedPoints {
  PointSet positions;
  std::vector<double> weights;
};

struct KMeansConfig {
  std::size_t k = 3;
  std::size_t max_iterations = 100;
  /// Independent k-means++ restarts; the best objective wins.
  std::size_t restarts = 4;
  /// Convergence threshold on the relative objective improvement.
  double tolerance = 1e-6;
};

struct KMeansResult {
  /// k centroid rows (fewer iff fewer inputs): the set Lloyd iterated on.
  PointSet centroids;
  std::vector<std::size_t> assignment; ///< input index -> centroid index
  double objective = 0.0;              ///< weighted sum of squared distances
  std::size_t iterations = 0;          ///< Lloyd iterations of the winning restart
};

/// Weighted k-means. Requires at least one point with positive weight; if
/// there are fewer distinct points than k, the result has fewer centroids.
/// Deterministic in `rng`'s state. Lloyd iterations use Hamerly-style
/// distance bounds to skip full centroid scans for points that provably
/// kept their assignment; the acceleration is exact — centroids,
/// assignments, objective, and iteration counts are bit-identical to the
/// frozen scalar reference weighted_kmeans_scalar (reference/scalar.h).
KMeansResult weighted_kmeans(const WeightedPoints& points, const KMeansConfig& config,
                             Rng& rng);

/// Lloyd iterations from explicit starting centroids — no seeding, no
/// restarts, fully deterministic. Used to warm-start macro-clustering from
/// the previous epoch's centroids so stable populations yield stable
/// placements instead of churning with the seeding randomness.
KMeansResult weighted_kmeans_from(const WeightedPoints& points, PointSet initial_centroids,
                                  const KMeansConfig& config);

}  // namespace geored::cluster
