#include "common/point_set.h"

#include <cmath>
#include <limits>

#include "common/ensure.h"

namespace geored {

PointSet::PointSet(std::size_t dim) : dim_(dim) {}

PointSet PointSet::from_points(const std::vector<Point>& points) {
  PointSet set(points.empty() ? 0 : points.front().dim());
  set.reserve(points.size());
  for (const auto& p : points) set.push_back(p);
  return set;
}

void PointSet::push_back(const Point& p) {
  if (n_ == 0 && dim_ == 0) {
    dim_ = p.dim();
    if (pending_reserve_rows_ > 0 && dim_ > 0) {
      data_.reserve(pending_reserve_rows_ * dim_);
    }
    pending_reserve_rows_ = 0;
  }
  GEORED_ENSURE(p.dim() == dim_, "PointSet rows must share one dimension");
  data_.insert(data_.end(), p.values().begin(), p.values().end());
  ++n_;
}

void PointSet::push_back_row(const double* values, std::size_t dim) {
  if (n_ == 0 && dim_ == 0) {
    dim_ = dim;
    if (pending_reserve_rows_ > 0 && dim_ > 0) {
      data_.reserve(pending_reserve_rows_ * dim_);
    }
    pending_reserve_rows_ = 0;
  }
  GEORED_ENSURE(dim == dim_, "PointSet rows must share one dimension");
  data_.insert(data_.end(), values, values + dim);
  ++n_;
}

void PointSet::truncate(std::size_t n) {
  GEORED_ENSURE(n <= size(), "PointSet truncate may only shrink");
  data_.resize(n * dim_);
  n_ = n;
}

void PointSet::assign_row(std::size_t i, const Point& p) {
  GEORED_ENSURE(i < size(), "PointSet row index out of range");
  GEORED_ENSURE(p.dim() == dim_, "PointSet rows must share one dimension");
  double* r = mutable_row(i);
  for (std::size_t d = 0; d < dim_; ++d) r[d] = p[d];
}

void PointSet::erase_row(std::size_t i) {
  GEORED_ENSURE(i < size(), "PointSet row index out of range");
  const auto begin = data_.begin() + static_cast<std::ptrdiff_t>(i * dim_);
  data_.erase(begin, begin + static_cast<std::ptrdiff_t>(dim_));
  --n_;
}

Point PointSet::point(std::size_t i) const {
  GEORED_ENSURE(i < size(), "PointSet row index out of range");
  const double* r = row(i);
  return Point(std::vector<double>(r, r + dim_));  // lint: alloc-ok (copy-out accessor)
}

void PointSet::distance_row(const double* query, double* out) const {
  const std::size_t n = size();
  if (n >= simd::kMinSimdRows && dim_ > 0) {
    const simd::Level level = simd::active_level();
    if (level != simd::Level::kScalar) {
      simd::distance_row(data_.data(), n, dim_, query, out, level);
      return;
    }
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = std::sqrt(distance_squared(i, query));
}

void PointSet::distance_row(const Point& query, double* out) const {
  GEORED_ENSURE(query.dim() == dim_, "query dimension mismatch in distance_row");
  distance_row(query.values().data(), out);
}

std::pair<std::size_t, std::size_t> PointSet::pairwise_min_distance(double* dist_sq) const {
  GEORED_ENSURE(size() >= 2, "pairwise_min_distance requires at least two rows");
  std::size_t best_a = 0, best_b = 1;
  double best_dist = std::numeric_limits<double>::infinity();
  const std::size_t n = size();
  const simd::Level level =
      (n >= simd::kMinSimdRows && dim_ > 0) ? simd::active_level() : simd::Level::kScalar;
  if (level != simd::Level::kScalar) {
    // Row a's inner loop scans the contiguous suffix a+1..n-1, which is
    // exactly a nearest_row over that block: the kernel's first-winner
    // local index plus the strict `<` combine across ascending a
    // reproduces the scalar double loop's lexicographic first winner.
    for (std::size_t a = 0; a + 1 < n; ++a) {
      double dist = 0.0;
      const std::size_t local =
          simd::nearest_row(row(a + 1), n - a - 1, dim_, row(a), &dist, level);
      if (dist < best_dist) {
        best_dist = dist;
        best_a = a;
        best_b = a + 1 + local;
      }
    }
    if (dist_sq != nullptr) *dist_sq = best_dist;
    return {best_a, best_b};
  }
  for (std::size_t a = 0; a + 1 < n; ++a) {
    const double* row_a = row(a);
    for (std::size_t b = a + 1; b < n; ++b) {
      const double dist = distance_squared(b, row_a);
      if (dist < best_dist) {
        best_dist = dist;
        best_a = a;
        best_b = b;
      }
    }
  }
  if (dist_sq != nullptr) *dist_sq = best_dist;
  return {best_a, best_b};
}

}  // namespace geored
