// A small dense vector in R^d used for network coordinates and clustering.
//
// Dimensions are decided at runtime (network coordinate spaces are typically
// 2-8 dimensional). Point is a value type with the usual vector-space
// operations; all binary operations require matching dimensionality.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

namespace geored {

class Point {
 public:
  /// The zero-dimensional point; useful as a "not yet assigned" sentinel.
  Point() = default;

  /// Zero vector in R^dim.
  explicit Point(std::size_t dim);

  /// Point with explicit component values.
  Point(std::initializer_list<double> values);

  /// Point adopting an existing component vector.
  explicit Point(std::vector<double> values);

  std::size_t dim() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double operator[](std::size_t i) const { return values_[i]; }
  double& operator[](std::size_t i) { return values_[i]; }

  const std::vector<double>& values() const { return values_; }

  Point& operator+=(const Point& other);
  Point& operator-=(const Point& other);
  Point& operator*=(double scalar);
  Point& operator/=(double scalar);

  friend Point operator+(Point lhs, const Point& rhs) { return lhs += rhs; }
  friend Point operator-(Point lhs, const Point& rhs) { return lhs -= rhs; }
  friend Point operator*(Point lhs, double scalar) { return lhs *= scalar; }
  friend Point operator*(double scalar, Point rhs) { return rhs *= scalar; }
  friend Point operator/(Point lhs, double scalar) { return lhs /= scalar; }

  bool operator==(const Point& other) const = default;

  /// Euclidean norm.
  double norm() const;

  /// Squared Euclidean norm (avoids the sqrt when only comparisons matter).
  double norm_squared() const;

  /// Euclidean distance to another point of the same dimension.
  double distance_to(const Point& other) const;

  /// Squared Euclidean distance to another point of the same dimension.
  double distance_squared_to(const Point& other) const;

  /// Unit vector pointing from `other` towards this point. If the two points
  /// coincide, returns a deterministic pseudo-random unit vector derived from
  /// `tiebreak` so that callers (e.g. Vivaldi) can separate coincident nodes.
  Point unit_vector_from(const Point& other, unsigned tiebreak = 0) const;

  /// Component-wise squares (used for micro-cluster second moments).
  Point component_squares() const;

  /// True if every component is finite.
  bool is_finite() const;

 private:
  std::vector<double> values_;
};

std::ostream& operator<<(std::ostream& os, const Point& p);

}  // namespace geored
