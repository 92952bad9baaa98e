// Internal k-means building blocks shared by the production solver in
// kmeans.cpp and the frozen scalar reference (reference/kmeans_scalar.cpp).
//
// Input validation, flattening, k-means++ seeding and the restart loop live
// here once, behind a LloydFn that selects the iteration kernel, so the two
// solvers cannot drift apart in anything but the Lloyd passes they are
// compared on. Not part of the public API: include cluster/kmeans.h.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/kmeans.h"
#include "common/point_set.h"
#include "common/random.h"

namespace geored::cluster::detail {

/// Below this many points the Lloyd passes stay sequential (pool dispatch
/// would dominate). Per-point results are written independently, so the
/// parallel passes are bitwise identical to the sequential ones at any
/// thread count — the threshold is purely a performance gate.
inline constexpr std::size_t kMinParallelPoints = 2048;

/// Contiguous (structure-of-arrays) view of the weighted input, built once
/// per solve so the hot loops never chase per-Point heap allocations.
struct FlatPoints {
  PointSet positions;
  std::vector<double> weights;
};

FlatPoints flatten(const std::vector<WeightedPoint>& points);

/// Debug check: every centroid is finite with the expected dimensionality.
bool centroids_finite(const PointSet& centroids, std::size_t dim);

/// Per-point squared distance to the nearest centroid (parallel, per-point
/// writes) followed by a sequential weighted sum in point order — the exact
/// accumulation order of the scalar kmeans_objective.
double objective_of(const FlatPoints& points, const PointSet& centroids, double* best_dist_sq,
                    std::size_t* assignment = nullptr);

/// k-means++ seeding over weighted points: the first centroid is drawn with
/// probability proportional to weight, subsequent ones proportional to
/// weight * D^2 (distance to the nearest already-chosen centroid).
PointSet kmeanspp_seed(const FlatPoints& points, std::size_t k, Rng& rng);

/// Lloyd variant selector shared by the accelerated and scalar entry points
/// so validation and restart logic cannot drift between them.
using LloydFn = KMeansResult (*)(const FlatPoints&, PointSet, const KMeansConfig&);

/// Validates, flattens, then runs `config.restarts` k-means++-seeded solves
/// and keeps the best objective (weighted_kmeans with its Lloyd kernel).
KMeansResult weighted_kmeans_impl(const std::vector<WeightedPoint>& points,
                                  const KMeansConfig& config, Rng& rng, LloydFn solve);

/// Validates, flattens, then runs one solve from `initial_centroids`
/// (weighted_kmeans_from with its Lloyd kernel).
KMeansResult weighted_kmeans_from_impl(const std::vector<WeightedPoint>& points,
                                       std::vector<Point> initial_centroids,
                                       const KMeansConfig& config, LloydFn solve);

}  // namespace geored::cluster::detail
