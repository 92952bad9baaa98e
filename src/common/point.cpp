#include "common/point.h"

#include <cmath>
#include <ostream>

#include "common/ensure.h"
#include "common/random.h"

namespace geored {

Point::Point(std::size_t dim) : values_(dim, 0.0) {}

Point::Point(std::initializer_list<double> values) : values_(values) {}

Point::Point(std::vector<double> values) : values_(std::move(values)) {}

Point& Point::operator+=(const Point& other) {
  GEORED_ENSURE(dim() == other.dim(), "dimension mismatch in Point addition");
  for (std::size_t i = 0; i < values_.size(); ++i) values_[i] += other.values_[i];
  return *this;
}

Point& Point::operator-=(const Point& other) {
  GEORED_ENSURE(dim() == other.dim(), "dimension mismatch in Point subtraction");
  for (std::size_t i = 0; i < values_.size(); ++i) values_[i] -= other.values_[i];
  return *this;
}

Point& Point::operator*=(double scalar) {
  for (double& v : values_) v *= scalar;
  return *this;
}

Point& Point::operator/=(double scalar) {
  GEORED_ENSURE(scalar != 0.0, "division of Point by zero");
  for (double& v : values_) v /= scalar;
  return *this;
}

double Point::norm() const { return std::sqrt(norm_squared()); }

double Point::norm_squared() const {
  double total = 0.0;
  for (double v : values_) total += v * v;
  return total;
}

double Point::distance_to(const Point& other) const {
  return std::sqrt(distance_squared_to(other));
}

double Point::distance_squared_to(const Point& other) const {
  GEORED_ENSURE(dim() == other.dim(), "dimension mismatch in Point distance");
  double total = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const double d = values_[i] - other.values_[i];
    total += d * d;
  }
  return total;
}

Point Point::unit_vector_from(const Point& other, unsigned tiebreak) const {
  GEORED_ENSURE(dim() == other.dim(), "dimension mismatch in unit_vector_from");
  Point direction = *this - other;
  const double len = direction.norm();
  if (len > 1e-12) return direction /= len;
  // Coincident points: fabricate a deterministic random direction so callers
  // like Vivaldi can push overlapping nodes apart.
  Rng rng(0x5bd1e995u ^ (static_cast<std::uint64_t>(tiebreak) << 17));
  Point random_dir(dim());
  double norm = 0.0;
  while (norm < 1e-12) {
    for (std::size_t i = 0; i < random_dir.dim(); ++i) random_dir[i] = rng.normal();
    norm = random_dir.norm();
  }
  return random_dir /= norm;
}

Point Point::component_squares() const {
  Point result(dim());
  for (std::size_t i = 0; i < values_.size(); ++i) result[i] = values_[i] * values_[i];
  return result;
}

bool Point::is_finite() const {
  for (double v : values_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Point& p) {
  os << '(';
  for (std::size_t i = 0; i < p.dim(); ++i) {
    if (i > 0) os << ", ";
    os << p[i];
  }
  return os << ')';
}

}  // namespace geored
