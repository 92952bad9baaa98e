// Frozen scalar k-means reference: plain full-scan Lloyd iterations on the
// shared validation, seeding and restart drivers of cluster/kmeans_detail.h,
// so only the Lloyd passes differ from the production solver.
#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "cluster/kmeans_detail.h"
#include "common/ensure.h"
#include "common/point_set.h"
#include "common/thread_pool.h"
#include "reference/scalar.h"

namespace geored::cluster {

namespace {

using detail::centroids_finite;
using detail::kMinParallelPoints;
using detail::objective_of;

/// Plain Lloyd's algorithm from given centroids: full nearest-centroid scan
/// for every point in every iteration. The scalar reference for the
/// bound-accelerated lloyd() in cluster/kmeans.cpp.
KMeansResult lloyd_scalar(const WeightedPoints& points, PointSet centroids,
                          const KMeansConfig& config) {
  const std::size_t n = points.positions.size();
  const std::size_t dim = points.positions.dim();
  const std::size_t k = centroids.size();
  double total_weight = 0.0;
  for (const double w : points.weights) total_weight += w;
  std::vector<std::size_t> assignment(n, 0);  // lint: alloc-ok (frozen scalar reference)
  // Accumulators reused across iterations instead of reallocating each one.
  std::vector<double> sums(k * dim);              // lint: alloc-ok (frozen scalar reference)
  std::vector<double> cluster_weight(k);          // lint: alloc-ok (frozen scalar reference)
  std::vector<double> best_dist_sq(n);            // lint: alloc-ok (frozen scalar reference)
  double prev_objective = std::numeric_limits<double>::infinity();
  std::size_t iterations = 0;
  // The convergence objective at the end of each iteration already assigns
  // every point to its nearest (post-update) centroid, which is exactly the
  // assignment the next iteration needs — so the explicit assignment scan
  // only runs once, before the first update.
  bool assignment_current = false;
  for (; iterations < config.max_iterations; ++iterations) {
    // Assignment step: independent per-point nearest-centroid scans.
    if (!assignment_current) {
      parallel_for(
          n,
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              assignment[i] = centroids.nearest_of(points.positions.row(i));
            }
          },
          kMinParallelPoints);
    }
    // Update step: sequential accumulation in point order (deterministic).
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(cluster_weight.begin(), cluster_weight.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = assignment[i];
      const double w = points.weights[i];
      const double* p = points.positions.row(i);
      double* sum = sums.data() + c * dim;
      for (std::size_t d = 0; d < dim; ++d) sum[d] += p[d] * w;
      cluster_weight[c] += w;
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (cluster_weight[c] > 0.0) {
        double* row = centroids.mutable_row(c);
        const double* sum = sums.data() + c * dim;
        for (std::size_t d = 0; d < dim; ++d) row[d] = sum[d] / cluster_weight[c];
      }
      // Empty clusters keep their previous centroid; with good seeding this
      // is rare and self-corrects on the next assignment.
    }
    // Weight conservation: per-cluster accumulation must redistribute the
    // input mass exactly (up to summation order), and the centroid update
    // must never produce a non-finite coordinate.
    GEORED_DCHECK(
        [&] {
          double redistributed = 0.0;
          for (const double w : cluster_weight) redistributed += w;
          return std::abs(redistributed - total_weight) <=
                 1e-9 * std::max(1.0, total_weight);
        }(),
        "k-means iteration lost or invented point weight");
    GEORED_DCHECK(centroids_finite(centroids, dim),
                  "k-means produced a non-finite centroid");
    const double objective = objective_of(points, centroids, best_dist_sq.data(), assignment.data());
    assignment_current = true;  // now reflects the post-update centroids
    // The isfinite guard keeps the first iteration from "converging" against
    // the infinite sentinel (inf - obj <= tol * inf holds in IEEE arithmetic).
    if (std::isfinite(prev_objective) &&
        prev_objective - objective <= config.tolerance * std::max(1.0, prev_objective)) {
      prev_objective = objective;
      ++iterations;
      break;
    }
    prev_objective = objective;
  }
  KMeansResult result;
  if (!assignment_current) {  // max_iterations == 0: no pass has run yet
    prev_objective = objective_of(points, centroids, best_dist_sq.data(), assignment.data());
  }
  result.objective = prev_objective;
  result.assignment = std::move(assignment);
  result.iterations = iterations;
  result.centroids = std::move(centroids);
  return result;
}

}  // namespace

KMeansResult weighted_kmeans_scalar(const WeightedPoints& points, const KMeansConfig& config,
                                    Rng& rng) {
  return detail::weighted_kmeans_impl(points, config, rng, &lloyd_scalar);
}

KMeansResult weighted_kmeans_from_scalar(const WeightedPoints& points,
                                         PointSet initial_centroids,
                                         const KMeansConfig& config) {
  return detail::weighted_kmeans_from_impl(points, std::move(initial_centroids), config,
                                           &lloyd_scalar);
}

}  // namespace geored::cluster
