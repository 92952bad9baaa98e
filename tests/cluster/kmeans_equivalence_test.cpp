// KMeansEquivalence: the Hamerly-accelerated Lloyd solvers must be
// bit-identical to the retained scalar references — same centroid bits,
// same assignments, same objective, same iteration count, and the same Rng
// consumption (checked by comparing the generators' next draws). Runs under
// release, asan-ubsan, and the tsan preset (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "common/point.h"
#include "common/random.h"
#include "reference/scalar.h"

namespace geored::cluster {
namespace {

void expect_identical(const KMeansResult& fast, const KMeansResult& scalar,
                      const char* label) {
  ASSERT_EQ(fast.centroids.size(), scalar.centroids.size()) << label;
  for (std::size_t c = 0; c < fast.centroids.size(); ++c) {
    ASSERT_EQ(fast.centroids[c].dim(), scalar.centroids[c].dim()) << label;
    for (std::size_t d = 0; d < fast.centroids[c].dim(); ++d) {
      // EXPECT_EQ, not NEAR: the acceleration only skips provably-unchanged
      // assignments, so every arithmetic result must be the same bits.
      EXPECT_EQ(fast.centroids[c][d], scalar.centroids[c][d])
          << label << " centroid " << c << " dim " << d;
    }
  }
  EXPECT_EQ(fast.assignment, scalar.assignment) << label;
  EXPECT_EQ(fast.objective, scalar.objective) << label;
  EXPECT_EQ(fast.iterations, scalar.iterations) << label;
}

std::vector<WeightedPoint> random_points(Rng& rng, std::size_t n, std::size_t dim,
                                         double zero_weight_fraction) {
  std::vector<WeightedPoint> points;
  const std::size_t n_centers = 1 + rng.below(6);
  std::vector<Point> centers;
  for (std::size_t c = 0; c < n_centers; ++c) {
    Point p(dim);
    for (std::size_t d = 0; d < dim; ++d) p[d] = rng.uniform(-500.0, 500.0);
    centers.push_back(p);
  }
  for (std::size_t i = 0; i < n; ++i) {
    Point p = centers[rng.below(n_centers)];
    for (std::size_t d = 0; d < dim; ++d) p[d] += rng.normal(0.0, 20.0);
    const double w = rng.bernoulli(zero_weight_fraction) ? 0.0 : rng.uniform(0.1, 10.0);
    points.push_back({p, w});
  }
  // Guarantee the positive-weight precondition regardless of the draw.
  points[0].weight = 1.0;
  return points;
}

class KMeansEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KMeansEquivalence, SeededSolverMatchesScalar) {
  Rng setup(GetParam());
  const std::size_t dim = 1 + setup.below(5);
  const auto points = random_points(setup, 20 + setup.below(120), dim, 0.1);
  KMeansConfig config;
  config.k = 1 + setup.below(8);
  config.restarts = 1 + setup.below(4);
  config.max_iterations = 50;

  // Both solvers get generators in the same state; identical consumption is
  // part of the contract (a skipped draw would desync downstream code), so
  // the post-run streams must agree too.
  Rng rng_fast(GetParam() ^ 0xabcd);
  Rng rng_scalar(GetParam() ^ 0xabcd);
  const auto fast = weighted_kmeans(points, config, rng_fast);
  const auto scalar = weighted_kmeans_scalar(points, config, rng_scalar);
  expect_identical(fast, scalar, "weighted_kmeans");
  EXPECT_EQ(rng_fast(), rng_scalar()) << "solvers must consume the Rng identically";
}

TEST_P(KMeansEquivalence, WarmStartSolverMatchesScalar) {
  Rng setup(GetParam() ^ 0x77);
  const std::size_t dim = 1 + setup.below(4);
  const auto points = random_points(setup, 15 + setup.below(80), dim, 0.15);
  KMeansConfig config;
  config.k = 1 + setup.below(6);
  config.max_iterations = 40;
  // Warm starts come from arbitrary previous-epoch centroids, including ones
  // far from any point (their macro-cluster may have emptied).
  std::vector<Point> initial;
  for (std::size_t c = 0; c < config.k; ++c) {
    Point p(dim);
    for (std::size_t d = 0; d < dim; ++d) p[d] = setup.uniform(-800.0, 800.0);
    initial.push_back(p);
  }
  const auto fast = weighted_kmeans_from(points, initial, config);
  const auto scalar = weighted_kmeans_from_scalar(points, initial, config);
  expect_identical(fast, scalar, "weighted_kmeans_from");
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMeansEquivalence, ::testing::Range<std::uint64_t>(1, 17));

TEST(KMeansEquivalence, SingleClusterMatchesScalar) {
  Rng setup(3);
  const auto points = random_points(setup, 40, 3, 0.0);
  KMeansConfig config;
  config.k = 1;
  Rng a(9), b(9);
  expect_identical(weighted_kmeans(points, config, a),
                   weighted_kmeans_scalar(points, config, b), "k=1");
}

TEST(KMeansEquivalence, MoreCentersThanDistinctPointsMatchesScalar) {
  // Three distinct positions (one duplicated many times), k = 5: both
  // solvers must degrade to the same reduced centroid set.
  std::vector<WeightedPoint> points;
  for (int i = 0; i < 6; ++i) points.push_back({Point{1.0, 1.0}, 2.0});
  points.push_back({Point{50.0, -3.0}, 1.0});
  points.push_back({Point{-20.0, 7.0}, 4.0});
  KMeansConfig config;
  config.k = 5;
  Rng a(11), b(11);
  const auto fast = weighted_kmeans(points, config, a);
  const auto scalar = weighted_kmeans_scalar(points, config, b);
  expect_identical(fast, scalar, "k>distinct");
  EXPECT_LE(fast.centroids.size(), 3u);
}

TEST(KMeansEquivalence, SinglePointMatchesScalar) {
  const std::vector<WeightedPoint> points = {{Point{4.0, -2.0, 9.0}, 3.5}};
  KMeansConfig config;
  config.k = 3;
  Rng a(13), b(13);
  const auto fast = weighted_kmeans(points, config, a);
  const auto scalar = weighted_kmeans_scalar(points, config, b);
  expect_identical(fast, scalar, "single point");
  ASSERT_EQ(fast.centroids.size(), 1u);
  EXPECT_EQ(fast.objective, 0.0);
}

TEST(KMeansEquivalence, CoincidentWarmStartCentroidsMatchScalar) {
  // Every warm-start centroid at the same position: the Elkan
  // half-separations are all (guarded) zero and must never justify a skip
  // on their own, and the strict-< first-winner rule must keep every point
  // on centroid 0 until the update separates them.
  Rng setup(31);
  const auto points = random_points(setup, 60, 3, 0.0);
  std::vector<Point> initial(4, Point{1.0, 2.0, 3.0});
  KMeansConfig config;
  config.k = 4;
  expect_identical(weighted_kmeans_from(points, initial, config),
                   weighted_kmeans_from_scalar(points, initial, config),
                   "coincident centroids");
}

TEST(KMeansEquivalence, DuplicateWarmStartCentroidPairsMatchScalar) {
  // Two exact duplicates among distinct centroids: one of each pair owns an
  // empty cluster forever (ties resolve to the lower index) and must keep
  // its position bit-for-bit across iterations in both solvers.
  Rng setup(33);
  const auto points = random_points(setup, 80, 2, 0.1);
  std::vector<Point> initial = {Point{10.0, 10.0}, Point{10.0, 10.0}, Point{-40.0, 5.0},
                                Point{-40.0, 5.0}, Point{200.0, -200.0}};
  KMeansConfig config;
  config.k = 5;
  expect_identical(weighted_kmeans_from(points, initial, config),
                   weighted_kmeans_from_scalar(points, initial, config),
                   "duplicate centroid pairs");
}

TEST(KMeansEquivalence, EquidistantTiePointsMatchScalar) {
  // Points exactly on the perpendicular bisector of two centroids: the
  // distances compute to identical bits, so the strict-< scan keeps the
  // lower-index centroid. The bounded pass must reproduce that tie-break
  // (its skip test only fires on *strict* closeness).
  std::vector<WeightedPoint> points;
  for (int y = -8; y <= 8; ++y) points.push_back({Point{0.0, static_cast<double>(y)}, 1.0});
  // Off-axis mass keeps both clusters alive so the centroids stay symmetric.
  points.push_back({Point{-6.0, 0.0}, 3.0});
  points.push_back({Point{6.0, 0.0}, 3.0});
  std::vector<Point> initial = {Point{-1.0, 0.0}, Point{1.0, 0.0}};
  KMeansConfig config;
  config.k = 2;
  const auto fast = weighted_kmeans_from(points, initial, config);
  const auto scalar = weighted_kmeans_from_scalar(points, initial, config);
  expect_identical(fast, scalar, "equidistant ties");
  for (std::size_t i = 0; i + 2 < points.size(); ++i) {
    EXPECT_EQ(fast.assignment[i], 0u) << "bisector point " << i
                                      << " must tie-break to the lower index";
  }
}

TEST(KMeansEquivalence, FarWarmStartLeavesEmptyClusterMatchingScalar) {
  // A warm-start centroid far from every point never wins an assignment:
  // its cluster weight stays zero and both solvers must keep its original
  // coordinates bit-for-bit in the result.
  Rng setup(35);
  const auto points = random_points(setup, 50, 2, 0.0);
  std::vector<Point> initial = {Point{0.0, 0.0}, Point{1e6, 1e6}};
  KMeansConfig config;
  config.k = 2;
  const auto fast = weighted_kmeans_from(points, initial, config);
  const auto scalar = weighted_kmeans_from_scalar(points, initial, config);
  expect_identical(fast, scalar, "empty cluster");
  ASSERT_EQ(fast.centroids.size(), 2u);
  EXPECT_EQ(fast.centroids[1][0], 1e6);
  EXPECT_EQ(fast.centroids[1][1], 1e6);
}

TEST(KMeansEquivalence, LargeClusteredPopulationMatchesScalar) {
  // Above kMinParallelPoints and kMinBatchQueries with a clustered
  // population: exercises the batched SIMD assignment kernels, the
  // Elkan/Hamerly skip paths, and (when GEORED_THREADS > 1) the
  // deterministic counting-sort update accumulation — all of which must
  // leave every output bit-identical to the sequential scalar reference.
  Rng setup(37);
  std::vector<WeightedPoint> points;
  std::vector<Point> sites;
  for (int s = 0; s < 12; ++s) {
    sites.push_back(Point{setup.uniform(-300.0, 300.0), setup.uniform(-300.0, 300.0),
                          setup.uniform(-300.0, 300.0)});
  }
  for (std::size_t i = 0; i < 6000; ++i) {
    Point p = sites[setup.below(sites.size())];
    for (std::size_t d = 0; d < 3; ++d) p[d] += setup.normal(0.0, 8.0);
    points.push_back({p, 1.0 + static_cast<double>(setup.below(50))});
  }
  KMeansConfig config;
  config.k = 8;
  config.max_iterations = 50;
  config.tolerance = 1e-9;
  Rng a(41), b(41);
  const auto fast = weighted_kmeans(points, config, a);
  const auto scalar = weighted_kmeans_scalar(points, config, b);
  expect_identical(fast, scalar, "large clustered");
  EXPECT_EQ(a(), b()) << "solvers must consume the Rng identically";

  // Warm-start entry over the same population (the macro-clustering epoch
  // path): perturbed site centers, the near-converged regime where the
  // bounds actually skip scans.
  std::vector<Point> initial;
  for (std::size_t c = 0; c < config.k; ++c) {
    Point p = sites[c];
    for (std::size_t d = 0; d < 3; ++d) p[d] += setup.normal(0.0, 2.0);
    initial.push_back(p);
  }
  expect_identical(weighted_kmeans_from(points, initial, config),
                   weighted_kmeans_from_scalar(points, initial, config),
                   "large clustered warm start");
}

TEST(KMeansEquivalence, ZeroWeightPointsAmongPositiveMatchScalar) {
  // Zero-weight pseudo-points (fully decayed micro-clusters) still get
  // assignments but must not move centroids; both solvers agree bitwise.
  std::vector<WeightedPoint> points;
  Rng setup(21);
  for (std::size_t i = 0; i < 30; ++i) {
    points.push_back({Point{setup.uniform(-100.0, 100.0), setup.uniform(-100.0, 100.0)},
                      i % 3 == 0 ? 0.0 : 1.0});
  }
  KMeansConfig config;
  config.k = 4;
  Rng a(22), b(22);
  expect_identical(weighted_kmeans(points, config, a),
                   weighted_kmeans_scalar(points, config, b), "zero weights");
}

}  // namespace
}  // namespace geored::cluster
