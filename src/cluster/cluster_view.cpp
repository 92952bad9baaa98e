#include "cluster/cluster_view.h"

#include <algorithm>

#include "common/ensure.h"

namespace geored::cluster {

ClusterView ClusterView::subview(std::size_t first, std::size_t count) const {
  GEORED_ENSURE(first <= size_ && count <= size_ - first, "subview past the end of the view");
  ClusterView view = *this;
  view.size_ = count;
  view.counts_ = counts_ + first;
  view.sums_ = sums_ + first * dim_;
  if (sum2s_ != nullptr) view.sum2s_ = sum2s_ + first * dim_;
  if (count == 0) view.dim_ = 0;
  return view;
}

void ClusterBuffer::clear() {
  counts_.clear();
  sums_.reset();
  sum2s_.reset();
  centroids_.reset();
  rows_.clear();
  reserved_rows_ = 0;
  planned_ = false;
}

void ClusterBuffer::reserve(std::size_t rows) {
  counts_.reserve(rows);
  sums_.reserve(rows);
  centroids_.reserve(rows);
  reserved_rows_ = rows;
}

void ClusterBuffer::append(ClusterView clusters, std::uint32_t origin) {
  append_rows(clusters, origin, true);
}

void ClusterBuffer::append_centroids(ClusterView clusters, std::uint32_t origin) {
  append_rows(clusters, origin, false);
}

void ClusterBuffer::append_rows(ClusterView clusters, std::uint32_t origin, bool moments) {
  GEORED_ENSURE(!planned_, "rows are appended before the hand-off is planned");
  GEORED_ENSURE(clusters.size() <= kNoOrigin, "a source reports fewer than 2^32 clusters");
  if (origin != kNoOrigin && rows_.empty()) {
    rows_.reserve(std::max(reserved_rows_, size() + clusters.size()));
    rows_.resize(size());
  }
  const std::size_t n = clusters.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t count = clusters.count(i);
    if (count == 0) continue;
    const std::span<const double> sum = clusters.sum(i);
    const std::span<const double> sum2 =
        moments ? clusters.sum2(i) : std::span<const double>{};
    const std::size_t dim = sum.size();
    GEORED_ENSURE(empty() || dim == this->dim(), "buffered clusters must share one dimension");
    const std::size_t row = size();
    counts_.push_back(count);
    sums_.push_back_row(sum.data(), dim);
    if (!rows_.empty() || origin != kNoOrigin) {
      rows_.push_back({origin, static_cast<std::uint32_t>(i), kNoOrigin});
    }
    // The centroid: sum / count, component by component.
    const auto divisor = static_cast<double>(count);
    centroids_.push_back_row(sum.data(), dim);
    double* centroid = centroids_.mutable_row(row);
    for (std::size_t d = 0; d < dim; ++d) centroid[d] /= divisor;
    // Second moments: stored, NaN where unknown, once some row carries them.
    const bool carried = sum2.size() == dim;
    if (carried || !sum2s_.empty()) store_moments();
    if (carried) std::copy(sum2.begin(), sum2.end(), sum2s_.mutable_row(row));
  }
}

void ClusterBuffer::store_moments() {
  if (sum2s_.size() == size()) return;
  if (sum2s_.empty()) sum2s_.reserve(std::max(reserved_rows_, size()));
  const std::size_t dim = this->dim();
  while (sum2s_.size() < size()) {
    const std::size_t row = sum2s_.size();
    sum2s_.push_back_row(sums_.row(row), dim);
    std::fill_n(sum2s_.mutable_row(row), dim, std::numeric_limits<double>::quiet_NaN());
  }
}

void ClusterBuffer::set_moments(std::size_t i, std::span<const double> sum2) {
  GEORED_ENSURE(i < size(), "cluster row out of range");
  GEORED_ENSURE(sum2.size() == dim(), "second moments must have the clusters' dimension");
  GEORED_ENSURE(
      std::all_of(sum2.begin(), sum2.end(), [](double v) { return std::isfinite(v); }),
      "second moments must be finite");
  store_moments();
  std::copy(sum2.begin(), sum2.end(), sum2s_.mutable_row(i));
}

void ClusterBuffer::set_destinations(std::span<const std::uint32_t> destinations) {
  GEORED_ENSURE(destinations.size() == size(),
                "the hand-off plan has one destination per row");
  if (rows_.empty()) rows_.resize(size());
  for (std::size_t i = 0; i < size(); ++i) rows_[i].destination = destinations[i];
  planned_ = true;
}

void ClusterBuffer::retain_rows(const std::vector<bool>& keep) {
  GEORED_ENSURE(keep.size() == size(), "retain_rows takes one flag per row");
  const std::size_t dim = this->dim();
  const bool stored = sum2s_.size() == size() && !empty();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (!keep[i]) continue;
    if (kept != i) {
      counts_[kept] = counts_[i];
      std::copy_n(sums_.row(i), dim, sums_.mutable_row(kept));
      std::copy_n(centroids_.row(i), dim, centroids_.mutable_row(kept));
      if (stored) std::copy_n(sum2s_.row(i), dim, sum2s_.mutable_row(kept));
      if (!rows_.empty()) rows_[kept] = rows_[i];
    }
    ++kept;
  }
  counts_.resize(kept);
  sums_.truncate(kept);
  centroids_.truncate(kept);
  if (stored) sum2s_.truncate(kept);
  if (!rows_.empty()) rows_.resize(kept);
}

}  // namespace geored::cluster
