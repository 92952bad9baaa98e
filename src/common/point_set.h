// Structure-of-arrays point storage for the hot distance kernels.
//
// Point (one heap-allocated std::vector<double> per point) is the right
// value type at API boundaries, but walking a std::vector<Point> in a hot
// loop chases one pointer per point and defeats both the prefetcher and the
// auto-vectorizer. PointSet stores n points of a fixed dimension in one
// contiguous n×dim row-major buffer and provides the batched kernels the
// clustering and placement hot paths are written against:
//
//   nearest_of             index of the row closest to a query point
//   distance_row           Euclidean distance from a query to every row
//   pairwise_min_distance  the closest pair of rows
//
// All kernels iterate rows in index order and dimensions in ascending order
// with the exact floating-point operation sequence of the scalar Point
// reference paths (Point::distance_squared_to and linear scans with a
// strict `<`), so results are bit-identical to the Point-based code they
// replace — see tests/common/point_set_test.cpp and docs/performance.md.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "common/point.h"
#include "common/point_set_simd.h"

namespace geored {

class PointSet {
 public:
  /// An empty set; the dimension is adopted from the first row pushed.
  PointSet() = default;

  /// An empty set of points in R^dim.
  explicit PointSet(std::size_t dim);

  /// Builds a set from existing points (all of one dimension).
  static PointSet from_points(const std::vector<Point>& points);

  std::size_t size() const { return n_; }
  std::size_t dim() const { return dim_; }
  bool empty() const { return n_ == 0; }

  /// Pre-allocates storage for `n` rows. On a set whose dimension is not
  /// yet known (default construction, nothing pushed) the request is
  /// remembered and applied when the first push_back adopts a dimension.
  void reserve(std::size_t n) {
    if (dim_ == 0) {
      pending_reserve_rows_ = std::max(pending_reserve_rows_, n);
    } else {
      data_.reserve(n * dim_);
    }
  }
  void clear() {
    data_.clear();
    n_ = 0;
  }
  /// Drops every row and the dimension, keeping the storage: the next row
  /// pushed adopts its dimension, as in a default-constructed set.
  void reset() {
    clear();
    dim_ = 0;
  }

  /// Appends a point. An empty set with unspecified dimension (default
  /// construction) adopts the dimension of the first point.
  void push_back(const Point& p);

  /// Appends a row from `dim` contiguous components — the allocation-free
  /// form the batched ingestion paths use. Same dimension-adoption rules as
  /// push_back(Point).
  void push_back_row(const double* values, std::size_t dim);

  /// Drops every row past the first `n` (n <= size()); capacity is kept so
  /// compaction passes can rewrite in place.
  void truncate(std::size_t n);

  /// Overwrites row `i` with `p` (matching dimension required).
  void assign_row(std::size_t i, const Point& p);

  /// Removes row `i`, shifting later rows down (vector::erase semantics).
  void erase_row(std::size_t i);

  /// Borrowed pointer to row `i`'s `dim()` contiguous components.
  const double* row(std::size_t i) const { return data_.data() + i * dim_; }
  double* mutable_row(std::size_t i) { return data_.data() + i * dim_; }

  /// Copies row `i` back out as a Point.
  Point point(std::size_t i) const;

  /// Squared Euclidean distance between row `i` and the `dim()` components
  /// at `q`; same operation order as Point::distance_squared_to.
  double distance_squared(std::size_t i, const double* q) const {
    const double* r = row(i);
    double total = 0.0;
    for (std::size_t d = 0; d < dim_; ++d) {
      const double diff = r[d] - q[d];
      total += diff * diff;
    }
    return total;
  }

  /// Index of the row nearest to `query` (squared-distance argmin, first
  /// winner on ties — the same scan as the scalar nearest-centroid loops).
  /// Requires a non-empty set. If `best_dist_sq` is non-null it receives
  /// the winning squared distance. Inline: this scan is the shared inner
  /// kernel of every per-access and per-point loop in the codebase.
  std::size_t nearest_of(const double* query, double* best_dist_sq = nullptr) const {
    GEORED_ENSURE(!empty(), "nearest_of on an empty PointSet");
    // Large scans dispatch to the register-blocked SIMD backends; they
    // reproduce this loop bit for bit (see point_set_simd.h). Small scans —
    // the per-access latency paths — stay on the inline loop below.
    if (n_ >= simd::kMinSimdRows && dim_ > 0) {
      const simd::Level level = simd::active_level();
      if (level != simd::Level::kScalar) {
        double dist = 0.0;
        const std::size_t best = simd::nearest_row(data_.data(), n_, dim_, query, &dist, level);
        if (best_dist_sq != nullptr) *best_dist_sq = dist;
        return best;
      }
    }
    std::size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      const double dist = distance_squared(i, query);
      // Branchless select (same strict-`<` first-winner comparison, so the
      // result — including the NaN-keeps-current behavior — is identical):
      // the winning row is effectively random across calls, and a
      // conditional branch here mispredicts its way through the scan while
      // serializing the per-row distance chains behind it.
      const bool better = dist < best_dist;
      best = better ? i : best;
      best_dist = better ? dist : best_dist;
    }
    if (best_dist_sq != nullptr) *best_dist_sq = best_dist;
    return best;
  }
  std::size_t nearest_of(const Point& query, double* best_dist_sq = nullptr) const {
    GEORED_ENSURE(query.dim() == dim_, "query dimension mismatch in nearest_of");
    return nearest_of(query.values().data(), best_dist_sq);
  }

  /// Like nearest_of, additionally reporting the second-best squared
  /// distance (infinity when size() == 1) — the bound the accelerated
  /// k-means maintains. Best-index tracking is the identical strict-`<`
  /// first-winner scan as nearest_of, so the returned index and
  /// `best_dist_sq` match it bit for bit.
  std::size_t nearest2_of(const double* query, double* best_dist_sq,
                          double* second_dist_sq) const {
    GEORED_ENSURE(!empty(), "nearest2_of on an empty PointSet");
    std::size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    double second_dist = std::numeric_limits<double>::infinity();
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      const double dist = distance_squared(i, query);
      // Branchless form of: if dist < best, demote best to second and take
      // the row; else if dist < second, it becomes the runner-up. The
      // comparisons are the same strict `<` as the branchy original (NaN
      // distances change nothing), only the selects are unconditional.
      const bool better = dist < best_dist;
      const bool runner_up = dist < second_dist;
      second_dist = better ? best_dist : (runner_up ? dist : second_dist);
      best_dist = better ? dist : best_dist;
      best = better ? i : best;
    }
    if (best_dist_sq != nullptr) *best_dist_sq = best_dist;
    if (second_dist_sq != nullptr) *second_dist_sq = second_dist;
    return best;
  }

  /// Fills out[i] with the Euclidean distance from `query` to row i
  /// (`out` must hold size() doubles).
  void distance_row(const double* query, double* out) const;
  void distance_row(const Point& query, double* out) const;

  /// The closest pair of rows (a < b), scanning pairs in the same
  /// lexicographic order as the scalar double loop. Requires size() >= 2.
  /// If `dist_sq` is non-null it receives the pair's squared distance.
  std::pair<std::size_t, std::size_t> pairwise_min_distance(double* dist_sq = nullptr) const;

 private:
  std::size_t dim_ = 0;
  std::size_t n_ = 0;         // explicit so zero-dimension points still count
  std::size_t pending_reserve_rows_ = 0;  // reserve() before dim_ is adopted
  std::vector<double> data_;  // size() * dim_ row-major components
};

}  // namespace geored
