#include "cluster/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/point.h"
#include "common/random.h"

namespace geored::cluster {
namespace {

/// `points` as the solvers' flat input, each of weight 1 unless `weights`
/// gives one per point.
WeightedPoints flat(const std::vector<Point>& points, std::vector<double> weights = {}) {
  WeightedPoints weighted;
  weighted.positions = PointSet::from_points(points);
  if (weights.empty()) weights.assign(points.size(), 1.0);
  weighted.weights = std::move(weights);
  return weighted;
}

/// The centroid rows as Points, for comparisons.
std::vector<Point> points_of(const PointSet& rows) {
  std::vector<Point> points;
  for (std::size_t i = 0; i < rows.size(); ++i) points.push_back(rows.point(i));
  return points;
}

TEST(KMeans, RejectsInvalidInput) {
  Rng rng(1);
  KMeansConfig config;
  EXPECT_THROW(weighted_kmeans(flat({}), config, rng), std::invalid_argument);
  config.k = 0;
  EXPECT_THROW(weighted_kmeans(flat({Point{1.0}}), config, rng), std::invalid_argument);
  config.k = 1;
  EXPECT_THROW(weighted_kmeans(flat({Point{1.0}}, {-1.0}), config, rng),
               std::invalid_argument);
  EXPECT_THROW(weighted_kmeans(flat({Point{1.0}}, {0.0}), config, rng),
               std::invalid_argument);
}

TEST(KMeans, SinglePointSingleCluster) {
  Rng rng(2);
  KMeansConfig config;
  config.k = 1;
  const auto result = weighted_kmeans(flat({Point{5.0, 5.0}}), config, rng);
  ASSERT_EQ(result.centroids.size(), 1u);
  EXPECT_EQ(result.centroids.point(0), (Point{5.0, 5.0}));
  EXPECT_DOUBLE_EQ(result.objective, 0.0);
}

TEST(KMeans, RecoversWellSeparatedClusters) {
  Rng rng(3);
  Rng data_rng(99);
  std::vector<Point> points;
  const std::vector<Point> centres{{0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}};
  for (const auto& c : centres) {
    for (int i = 0; i < 50; ++i) {
      points.push_back(Point{c[0] + data_rng.normal(0, 2.0), c[1] + data_rng.normal(0, 2.0)});
    }
  }
  KMeansConfig config;
  config.k = 3;
  const auto result = weighted_kmeans(flat(points), config, rng);
  ASSERT_EQ(result.centroids.size(), 3u);
  for (const auto& centre : centres) {
    double best = 1e18;
    for (const auto& centroid : points_of(result.centroids)) {
      best = std::min(best, centre.distance_to(centroid));
    }
    EXPECT_LT(best, 3.0);
  }
}

TEST(KMeans, AssignmentIsNearestCentroid) {
  Rng rng(5);
  std::vector<Point> points{{0.0}, {1.0}, {10.0}, {11.0}};
  KMeansConfig config;
  config.k = 2;
  const auto result = weighted_kmeans(flat(points), config, rng);
  ASSERT_EQ(result.assignment.size(), points.size());
  const std::vector<Point> centroids = points_of(result.centroids);
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::size_t nearest = 0;
    for (std::size_t c = 1; c < centroids.size(); ++c) {
      if (points[i].distance_to(centroids[c]) < points[i].distance_to(centroids[nearest])) {
        nearest = c;
      }
    }
    EXPECT_EQ(result.assignment[i], nearest);
  }
  // Same-cluster points grouped together.
  EXPECT_EQ(result.assignment[0], result.assignment[1]);
  EXPECT_EQ(result.assignment[2], result.assignment[3]);
  EXPECT_NE(result.assignment[0], result.assignment[2]);
}

TEST(KMeans, WeightPullsCentroid) {
  // One heavy point and one light point with k=1: centroid sits nearer the
  // heavy point, at exactly the weighted mean.
  Rng rng(7);
  KMeansConfig config;
  config.k = 1;
  const auto result =
      weighted_kmeans(flat({Point{0.0}, Point{10.0}}, {9.0, 1.0}), config, rng);
  ASSERT_EQ(result.centroids.size(), 1u);
  EXPECT_NEAR(result.centroids.row(0)[0], 1.0, 1e-9);
}

TEST(KMeans, ZeroWeightPointsDoNotAttractCentroids) {
  Rng rng(9);
  KMeansConfig config;
  config.k = 1;
  const auto result = weighted_kmeans(
      flat({Point{0.0}, Point{2.0}, Point{1000.0}}, {1.0, 1.0, 0.0}), config, rng);
  EXPECT_NEAR(result.centroids.row(0)[0], 1.0, 1e-9);
}

TEST(KMeans, ObjectiveMatchesDefinition) {
  // A solve of no Lloyd iterations reports its starting centroids' objective.
  const WeightedPoints points = flat({Point{0.0}, Point{4.0}}, {2.0, 1.0});
  KMeansConfig config;
  config.k = 1;
  config.max_iterations = 0;
  // 2*(1)^2 + 1*(3)^2 = 11.
  EXPECT_DOUBLE_EQ(
      weighted_kmeans_from(points, PointSet::from_points({Point{1.0}}), config).objective,
      11.0);
  EXPECT_THROW(weighted_kmeans_from(points, PointSet(1), config), std::invalid_argument);
}

TEST(KMeans, DeterministicGivenSameRngState) {
  std::vector<Point> points;
  Rng data_rng(11);
  for (int i = 0; i < 100; ++i) {
    points.push_back(Point{data_rng.uniform(0, 100), data_rng.uniform(0, 100)});
  }
  KMeansConfig config;
  config.k = 4;
  Rng rng_a(13), rng_b(13);
  const auto a = weighted_kmeans(flat(points), config, rng_a);
  const auto b = weighted_kmeans(flat(points), config, rng_b);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(points_of(a.centroids), points_of(b.centroids));
}

TEST(KMeans, FewerDistinctPointsThanK) {
  Rng rng(17);
  KMeansConfig config;
  config.k = 5;
  const std::vector<Point> points{{1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}};
  const auto result = weighted_kmeans(flat(points), config, rng);
  // k-means++ cannot seed more centroids than distinct points.
  EXPECT_LE(result.centroids.size(), 2u);
  EXPECT_GE(result.centroids.size(), 1u);
  EXPECT_NEAR(result.objective, 0.0, 1e-12);
}

TEST(KMeans, MoreRestartsNeverWorse) {
  // The best-of-restarts objective is monotone in the number of restarts
  // when the extra restarts replay the same stream prefix; verify the
  // weaker, always-true property: best-of-8 <= best-of-1 for a fixed seed
  // evaluated independently many times.
  std::vector<Point> positions;
  Rng data_rng(19);
  for (int i = 0; i < 60; ++i) {
    positions.push_back(Point{data_rng.uniform(0, 50), data_rng.uniform(0, 50)});
  }
  const WeightedPoints points = flat(positions);
  KMeansConfig one;
  one.k = 5;
  one.restarts = 1;
  KMeansConfig eight = one;
  eight.restarts = 8;
  double sum_one = 0.0, sum_eight = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng_a(seed), rng_b(seed);
    sum_one += weighted_kmeans(points, one, rng_a).objective;
    sum_eight += weighted_kmeans(points, eight, rng_b).objective;
  }
  EXPECT_LE(sum_eight, sum_one + 1e-9);
}

TEST(KMeansWarmStart, ConvergesFromGivenCentroids) {
  // Two clusters; warm start near them converges exactly.
  std::vector<Point> points;
  Rng data_rng(23);
  for (int i = 0; i < 40; ++i) {
    points.push_back(Point{data_rng.normal(0.0, 1.0)});
    points.push_back(Point{data_rng.normal(100.0, 1.0)});
  }
  KMeansConfig config;
  config.k = 2;
  const auto result = weighted_kmeans_from(
      flat(points), PointSet::from_points({Point{10.0}, Point{90.0}}), config);
  ASSERT_EQ(result.centroids.size(), 2u);
  std::vector<double> xs{result.centroids.row(0)[0], result.centroids.row(1)[0]};
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[0], 0.0, 1.0);
  EXPECT_NEAR(xs[1], 100.0, 1.0);
}

TEST(KMeansWarmStart, IsDeterministic) {
  std::vector<Point> positions;
  Rng data_rng(29);
  for (int i = 0; i < 50; ++i) {
    positions.push_back(Point{data_rng.uniform(0, 100), data_rng.uniform(0, 100)});
  }
  const WeightedPoints points = flat(positions);
  KMeansConfig config;
  config.k = 3;
  const PointSet start =
      PointSet::from_points({Point{10.0, 10.0}, Point{50.0, 50.0}, Point{90.0, 90.0}});
  const auto a = weighted_kmeans_from(points, start, config);
  const auto b = weighted_kmeans_from(points, start, config);
  EXPECT_EQ(points_of(a.centroids), points_of(b.centroids));
  EXPECT_EQ(a.objective, b.objective);
}

TEST(KMeansWarmStart, StableDataKeepsCentroidsPut) {
  // Warm-starting from the data's own optimum leaves centroids unchanged.
  const WeightedPoints points = flat({Point{0.0}, Point{2.0}, Point{100.0}, Point{102.0}});
  KMeansConfig config;
  config.k = 2;
  const auto result =
      weighted_kmeans_from(points, PointSet::from_points({Point{1.0}, Point{101.0}}), config);
  std::vector<double> xs{result.centroids.row(0)[0], result.centroids.row(1)[0]};
  std::sort(xs.begin(), xs.end());
  EXPECT_DOUBLE_EQ(xs[0], 1.0);
  EXPECT_DOUBLE_EQ(xs[1], 101.0);
}

TEST(KMeansWarmStart, ValidatesArguments) {
  const WeightedPoints points = flat({Point{1.0}});
  KMeansConfig config;
  EXPECT_THROW(weighted_kmeans_from(flat({}), PointSet::from_points({Point{0.0}}), config),
               std::invalid_argument);
  EXPECT_THROW(weighted_kmeans_from(points, PointSet(1), config), std::invalid_argument);
  EXPECT_THROW(weighted_kmeans_from(points, PointSet::from_points({Point{0.0, 0.0}}), config),
               std::invalid_argument);
}

/// Lloyd iterations never increase the objective: verify by checking the
/// final objective is no worse than the seeding-only objective.
class KMeansImprovement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KMeansImprovement, LloydNeverWorseThanSeeding) {
  WeightedPoints points;
  Rng data_rng(GetParam());
  for (int i = 0; i < 120; ++i) {
    points.positions.push_back(Point{data_rng.uniform(0, 200), data_rng.uniform(0, 200)});
    points.weights.push_back(data_rng.uniform(0.1, 5.0));
  }
  KMeansConfig seeded_only;
  seeded_only.k = 4;
  seeded_only.max_iterations = 0;
  seeded_only.restarts = 1;
  KMeansConfig full = seeded_only;
  full.max_iterations = 100;

  Rng rng_a(GetParam() * 7 + 1), rng_b(GetParam() * 7 + 1);
  const auto seeded = weighted_kmeans(points, seeded_only, rng_a);
  const auto converged = weighted_kmeans(points, full, rng_b);
  EXPECT_LE(converged.objective, seeded.objective + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMeansImprovement, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace geored::cluster
