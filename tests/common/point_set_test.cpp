#include "common/point_set.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/random.h"

namespace geored {
namespace {

std::vector<Point> random_points(Rng& rng, std::size_t n, std::size_t dim) {
  std::vector<Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Point p(dim);
    for (std::size_t d = 0; d < dim; ++d) p[d] = rng.uniform(-500.0, 500.0);
    // Occasionally duplicate an earlier point so tie-breaking is exercised.
    if (i > 0 && rng.bernoulli(0.1)) p = points[rng.below(i)];
    points.push_back(p);
  }
  return points;
}

/// Scalar reference: linear nearest scan with strict `<` (first winner).
std::size_t nearest_reference(const std::vector<Point>& points, const Point& query,
                              double* best_sq) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = points[i].distance_squared_to(query);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  if (best_sq != nullptr) *best_sq = best_d;
  return best;
}

/// Scalar reference: closest pair by lexicographic a < b scan, strict `<`.
std::pair<std::size_t, std::size_t> pairwise_reference(const std::vector<Point>& points,
                                                       double* best_sq) {
  std::size_t best_a = 0, best_b = 1;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < points.size(); ++a) {
    for (std::size_t b = a + 1; b < points.size(); ++b) {
      const double d = points[a].distance_squared_to(points[b]);
      if (d < best_d) {
        best_d = d;
        best_a = a;
        best_b = b;
      }
    }
  }
  if (best_sq != nullptr) *best_sq = best_d;
  return {best_a, best_b};
}

TEST(PointSet, BasicRoundTrip) {
  PointSet set;
  EXPECT_TRUE(set.empty());
  set.push_back(Point{1.0, 2.0});
  set.push_back(Point{3.0, 4.0});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.dim(), 2u);
  EXPECT_EQ(set.point(0), (Point{1.0, 2.0}));
  EXPECT_EQ(set.point(1), (Point{3.0, 4.0}));
  set.assign_row(0, Point{5.0, 6.0});
  EXPECT_EQ(set.point(0), (Point{5.0, 6.0}));
  set.erase_row(0);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.point(0), (Point{3.0, 4.0}));
}

TEST(PointSet, ReserveBeforeDimensionAdoptionPreallocates) {
  // reserve() before the first push_back (dimension still unknown) must be
  // honored once the dimension is adopted: no reallocation — and therefore a
  // stable row pointer — while pushing up to the reserved row count.
  constexpr std::size_t kRows = 64;
  PointSet set;
  set.reserve(kRows);
  set.push_back(Point{1.0, 2.0, 3.0});
  const double* first_row = set.row(0);
  for (std::size_t i = 1; i < kRows; ++i) {
    set.push_back(Point{static_cast<double>(i), 0.0, 0.0});
    EXPECT_EQ(set.row(0), first_row) << "reallocated at row " << i;
  }
  EXPECT_EQ(set.size(), kRows);
}

TEST(PointSet, FromPointsMatchesPushBack) {
  Rng rng(7);
  const auto points = random_points(rng, 17, 3);
  const PointSet set = PointSet::from_points(points);
  ASSERT_EQ(set.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) EXPECT_EQ(set.point(i), points[i]);
}

TEST(PointSet, ZeroDimensionPointsAreCounted) {
  // Point() sentinels are legal inputs elsewhere in the codebase; a set of
  // them must still track its row count.
  PointSet set;
  set.push_back(Point());
  set.push_back(Point());
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.dim(), 0u);
  double d = -1.0;
  EXPECT_EQ(set.nearest_of(Point(), &d), 0u);
  EXPECT_EQ(d, 0.0);
  set.erase_row(0);
  EXPECT_EQ(set.size(), 1u);
}

TEST(PointSet, MismatchedDimensionRejected) {
  PointSet set;
  set.push_back(Point{1.0, 2.0});
  EXPECT_THROW(set.push_back(Point{1.0}), std::invalid_argument);
  EXPECT_THROW(set.assign_row(0, Point{1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(PointSet, EmptyKernelsRejected) {
  const PointSet set;
  EXPECT_THROW(set.nearest_of(Point{1.0}), std::invalid_argument);
  PointSet one;
  one.push_back(Point{1.0});
  EXPECT_THROW(one.pairwise_min_distance(), std::invalid_argument);
}

TEST(PointSet, DistanceSquaredMatchesPoint) {
  Rng rng(11);
  for (std::size_t dim : {1u, 2u, 5u, 8u}) {
    const auto points = random_points(rng, 40, dim);
    const PointSet set = PointSet::from_points(points);
    const auto queries = random_points(rng, 10, dim);
    for (const auto& q : queries) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(set.distance_squared(i, q.values().data()),
                  points[i].distance_squared_to(q));
      }
    }
  }
}

TEST(PointSet, NearestOfMatchesScalarScan) {
  Rng rng(23);
  for (int round = 0; round < 30; ++round) {
    const std::size_t dim = 1 + rng.below(6);
    const std::size_t n = 1 + rng.below(80);
    const auto points = random_points(rng, n, dim);
    const PointSet set = PointSet::from_points(points);
    const auto queries = random_points(rng, 5, dim);
    for (const auto& q : queries) {
      double ref_sq = 0.0, got_sq = 0.0;
      const std::size_t ref = nearest_reference(points, q, &ref_sq);
      const std::size_t got = set.nearest_of(q, &got_sq);
      EXPECT_EQ(got, ref);
      EXPECT_EQ(got_sq, ref_sq);  // bitwise, not approximate
    }
  }
}

TEST(PointSet, DistanceRowMatchesScalarDistances) {
  Rng rng(31);
  for (int round = 0; round < 20; ++round) {
    const std::size_t dim = 1 + rng.below(6);
    const std::size_t n = 1 + rng.below(60);
    const auto points = random_points(rng, n, dim);
    const PointSet set = PointSet::from_points(points);
    const auto queries = random_points(rng, 3, dim);
    std::vector<double> out(n);
    for (const auto& q : queries) {
      set.distance_row(q, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], points[i].distance_to(q));  // bitwise
      }
    }
  }
}

TEST(PointSet, PairwiseMinDistanceMatchesScalarScan) {
  Rng rng(43);
  for (int round = 0; round < 30; ++round) {
    const std::size_t dim = 1 + rng.below(6);
    const std::size_t n = 2 + rng.below(50);
    const auto points = random_points(rng, n, dim);
    const PointSet set = PointSet::from_points(points);
    double ref_sq = 0.0, got_sq = 0.0;
    const auto ref = pairwise_reference(points, &ref_sq);
    const auto got = set.pairwise_min_distance(&got_sq);
    EXPECT_EQ(got, ref);
    EXPECT_EQ(got_sq, ref_sq);
  }
}

TEST(PointSet, KernelsStableAfterEraseAndAssign) {
  Rng rng(59);
  auto points = random_points(rng, 25, 4);
  PointSet set = PointSet::from_points(points);
  // Interleave mutations with kernel checks so the cache-maintenance calls
  // used by the summarizer stay equivalent to rebuilding from scratch.
  for (int step = 0; step < 15 && points.size() >= 3; ++step) {
    if (rng.bernoulli(0.5)) {
      const std::size_t i = rng.below(points.size());
      points.erase(points.begin() + static_cast<std::ptrdiff_t>(i));
      set.erase_row(i);
    } else {
      const std::size_t i = rng.below(points.size());
      Point p(4);
      for (std::size_t d = 0; d < 4; ++d) p[d] = rng.uniform(-100.0, 100.0);
      points[i] = p;
      set.assign_row(i, p);
    }
    ASSERT_EQ(set.size(), points.size());
    const auto q = random_points(rng, 1, 4)[0];
    EXPECT_EQ(set.nearest_of(q), nearest_reference(points, q, nullptr));
    EXPECT_EQ(set.pairwise_min_distance(), pairwise_reference(points, nullptr));
  }
}

}  // namespace
}  // namespace geored
