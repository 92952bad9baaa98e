#include "cluster/moment_store.h"

#include <algorithm>
#include <cmath>

#include "common/ensure.h"

namespace geored::cluster {

void MomentStore::ensure_transposed(std::size_t rows) {
  if (rows > t_stride_) {
    // The reserved row count is the stride's floor; past it the stride
    // doubles.
    t_stride_ = rows <= reserved_rows_ ? reserved_rows_ : std::max<std::size_t>(8, 2 * rows);
    rebuild_transposed();
    return;
  }
  const std::size_t i = rows - 1;
  const double* centroid = centroids_.row(i);
  const std::size_t d_n = dim();
  for (std::size_t d = 0; d < d_n; ++d) centroids_t_[d * t_stride_ + i] = centroid[d];
}

void MomentStore::rebuild_transposed() {
  const std::size_t d_n = dim();
  centroids_t_.assign(d_n * t_stride_, 0.0);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const double* centroid = centroids_.row(i);
    for (std::size_t d = 0; d < d_n; ++d) centroids_t_[d * t_stride_ + i] = centroid[d];
  }
}

MomentStore::MomentStore(double min_absorb_radius, double radius_factor)
    : min_absorb_radius_(min_absorb_radius), radius_factor_(radius_factor) {
  GEORED_ENSURE(min_absorb_radius >= 0.0, "min_absorb_radius must be non-negative");
  GEORED_ENSURE(radius_factor > 0.0, "radius_factor must be positive");
}

void MomentStore::reserve(std::size_t clusters) {
  reserved_rows_ = std::max(reserved_rows_, clusters);
  counts_.reserve(clusters);
  sums_.reserve(clusters);
  sum2s_.reserve(clusters);
  centroids_.reserve(clusters);
  radii_.reserve(clusters);
}

void MomentStore::clear() {
  counts_.clear();
  // Dimensionless again, so a new stream may change dimension (scalar clear
  // semantics).
  sums_.reset();
  sum2s_.reset();
  centroids_.reset();
  radii_.clear();
  centroids_t_.clear();
  t_stride_ = 0;
}

void MomentStore::append_singleton(const double* coords, std::size_t dim) {
  counts_.push_back(1);
  sums_.push_back_row(coords, dim);
  // sum2 of a singleton: component squares, the reference object
  // constructor's coords.component_squares() per-dimension product.
  {
    double* scratch = sum2_scratch(dim);
    for (std::size_t d = 0; d < dim; ++d) scratch[d] = coords[d] * coords[d];
    sum2s_.push_back_row(scratch, dim);
  }
  // centroid = sum / 1 — the exact division the reference centroid performs.
  {
    double* scratch = sum2_scratch(dim);
    for (std::size_t d = 0; d < dim; ++d) scratch[d] = coords[d] / 1.0;
    centroids_.push_back_row(scratch, dim);
  }
  radii_.push_back(-1.0);
  ensure_transposed(size());
  GEORED_DCHECK(detail::moment_row_consistent(1, sums_.row(size() - 1), sum2s_.row(size() - 1),
                                              dim),
                "moment row inconsistent after append_singleton");
}

void MomentStore::append_moments(const ClusterView& clusters, std::size_t i) {
  const std::uint64_t count = clusters.count(i);
  GEORED_ENSURE(count > 0, "append_moments requires a non-empty cluster");
  const std::span<const double> sum = clusters.sum(i);
  const std::span<const double> sum2 = clusters.sum2(i);
  const std::size_t d_n = sum.size();
  GEORED_ENSURE(sum2.size() == d_n && (empty() || d_n == dim()),
                "appended moments must share the store's dimension");
  counts_.push_back(count);
  sums_.push_back_row(sum.data(), d_n);
  sum2s_.push_back_row(sum2.data(), d_n);
  // The reference centroid's sum / count, component by component.
  double* scratch = sum2_scratch(d_n);
  const auto n = static_cast<double>(count);
  for (std::size_t d = 0; d < d_n; ++d) scratch[d] = sum[d] / n;
  centroids_.push_back_row(scratch, d_n);
  radii_.push_back(-1.0);
  ensure_transposed(size());
}

void MomentStore::merge_rows(std::size_t a, std::size_t b) {
  GEORED_CHECK(a < size() && b < size() && a != b, "merge_rows needs two distinct rows");
  const std::size_t d_n = dim();
  counts_[a] += counts_[b];
  double* sum_a = sums_.mutable_row(a);
  double* sum2_a = sum2s_.mutable_row(a);
  const double* sum_b = sums_.row(b);
  const double* sum2_b = sum2s_.row(b);
  for (std::size_t d = 0; d < d_n; ++d) sum_a[d] += sum_b[d];
  for (std::size_t d = 0; d < d_n; ++d) sum2_a[d] += sum2_b[d];
  refresh_centroid(a);
  radii_[a] = -1.0;
  GEORED_DCHECK(detail::moment_row_consistent(counts_[a], sums_.row(a), sum2s_.row(a), d_n),
                "moment row inconsistent after merge_rows");

  counts_.erase(counts_.begin() + static_cast<std::ptrdiff_t>(b));
  sums_.erase_row(b);
  sum2s_.erase_row(b);
  centroids_.erase_row(b);
  radii_.erase(radii_.begin() + static_cast<std::ptrdiff_t>(b));
  // Erasing row b shifts every later row down one column.
  rebuild_transposed();
}

void MomentStore::scale_all(double factor) {
  GEORED_ENSURE(factor > 0.0 && factor <= 1.0, "scale factor must be in (0,1]");
  const std::size_t d_n = dim();
  std::size_t out = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    // The reference scale: round the count, then scale the moments by the
    // *realized* ratio so centroid and stddev are exactly preserved.
    const auto new_count =
        static_cast<std::uint64_t>(static_cast<double>(counts_[i]) * factor + 0.5);
    if (new_count == 0) continue;  // decayed below one access: dropped
    const double realized =
        static_cast<double>(new_count) / static_cast<double>(counts_[i]);
    counts_[out] = new_count;
    double* sum_out = sums_.mutable_row(out);
    double* sum2_out = sum2s_.mutable_row(out);
    const double* sum_in = sums_.row(i);
    const double* sum2_in = sum2s_.row(i);
    for (std::size_t d = 0; d < d_n; ++d) sum_out[d] = sum_in[d] * realized;
    for (std::size_t d = 0; d < d_n; ++d) sum2_out[d] = sum2_in[d] * realized;
    refresh_centroid(out);
    GEORED_DCHECK(detail::moment_row_consistent(counts_[out], sums_.row(out), sum2s_.row(out),
                                                d_n),
                  "moment row inconsistent after scale_all");
    ++out;
  }
  counts_.resize(out);
  sums_.truncate(out);
  sum2s_.truncate(out);
  centroids_.truncate(out);
  radii_.assign(out, -1.0);
}

}  // namespace geored::cluster
