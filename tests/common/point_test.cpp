#include "common/point.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace geored {
namespace {

TEST(Point, DefaultIsEmpty) {
  Point p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.dim(), 0u);
}

TEST(Point, ZeroConstructor) {
  Point p(3);
  EXPECT_EQ(p.dim(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(p[i], 0.0);
}

TEST(Point, ArithmeticOperations) {
  const Point a{1.0, 2.0, 3.0};
  const Point b{4.0, 5.0, 6.0};
  const Point sum = a + b;
  EXPECT_EQ(sum, (Point{5.0, 7.0, 9.0}));
  EXPECT_EQ(b - a, (Point{3.0, 3.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0, 6.0}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(b / 2.0, (Point{2.0, 2.5, 3.0}));
}

TEST(Point, DimensionMismatchThrows) {
  Point a{1.0, 2.0};
  const Point b{1.0, 2.0, 3.0};
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW((void)a.distance_to(b), std::invalid_argument);
}

TEST(Point, DivisionByZeroThrows) {
  Point a{1.0};
  EXPECT_THROW(a /= 0.0, std::invalid_argument);
}

TEST(Point, NormAndDistance) {
  const Point p{3.0, 4.0};
  EXPECT_DOUBLE_EQ(p.norm(), 5.0);
  EXPECT_DOUBLE_EQ(p.norm_squared(), 25.0);
  const Point q{0.0, 0.0};
  EXPECT_DOUBLE_EQ(p.distance_to(q), 5.0);
  EXPECT_DOUBLE_EQ(p.distance_squared_to(q), 25.0);
}

TEST(Point, UnitVectorPointsAway) {
  const Point a{2.0, 0.0};
  const Point b{0.0, 0.0};
  const Point u = a.unit_vector_from(b);
  EXPECT_NEAR(u[0], 1.0, 1e-12);
  EXPECT_NEAR(u[1], 0.0, 1e-12);
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
}

TEST(Point, UnitVectorCoincidentPointsIsDeterministicUnit) {
  const Point a{1.0, 1.0, 1.0};
  const Point u1 = a.unit_vector_from(a, 5);
  const Point u2 = a.unit_vector_from(a, 5);
  EXPECT_EQ(u1, u2);
  EXPECT_NEAR(u1.norm(), 1.0, 1e-9);
  // Different tiebreak ids give different directions.
  const Point u3 = a.unit_vector_from(a, 6);
  EXPECT_NE(u1, u3);
}

TEST(Point, ComponentSquares) {
  const Point p{-2.0, 3.0};
  EXPECT_EQ(p.component_squares(), (Point{4.0, 9.0}));
}

TEST(Point, IsFinite) {
  EXPECT_TRUE((Point{1.0, 2.0}).is_finite());
  Point p{1.0, 2.0};
  p[1] = std::nan("");
  EXPECT_FALSE(p.is_finite());
  p[1] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(p.is_finite());
}

TEST(Point, StreamOutput) {
  std::ostringstream os;
  os << Point{1.5, -2.0};
  EXPECT_EQ(os.str(), "(1.5, -2)");
}

}  // namespace
}  // namespace geored
