#include "cluster/cluster_view.h"

#include "common/ensure.h"

namespace geored::cluster {

ClusterView ClusterView::subview(std::size_t first, std::size_t count) const {
  GEORED_ENSURE(first <= size_ && count <= size_ - first, "subview past the end of the view");
  ClusterView view = *this;
  view.size_ = count;
  if (objects_ != nullptr) {
    view.objects_ = objects_ + first;
    view.dim_ = count == 0 ? 0 : objects_[first].sum().dim();
    return view;
  }
  view.counts_ = counts_ + first;
  view.weights_ = weights_ + first;
  view.sums_ = sums_ + first * dim_;
  if (sum2s_ != nullptr) view.sum2s_ = sum2s_ + first * dim_;
  if (count == 0) view.dim_ = 0;
  return view;
}

MicroCluster ClusterView::operator[](std::size_t i) const {
  GEORED_ENSURE(i < size_, "cluster row out of range");
  if (objects_ != nullptr) return objects_[i];
  MicroCluster cluster;
  cluster.count_ = counts_[i];
  cluster.weight_ = weights_[i];
  const std::span<const double> s = sum(i);
  const std::span<const double> s2 = sum2(i);
  cluster.sum_ = Point(std::vector<double>(s.begin(), s.end()));
  cluster.sum2_ = Point(std::vector<double>(s2.begin(), s2.end()));
  return cluster;
}

ClusterView::operator std::vector<MicroCluster>() const {
  std::vector<MicroCluster> clusters;  // lint: alloc-ok (copy-out accessor)
  clusters.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) clusters.push_back((*this)[i]);
  return clusters;
}

void ClusterBuffer::clear() {
  counts_.clear();
  weights_.clear();
  sums_.reset();
  sum2s_.reset();
  centroids_.reset();
  has_moments_ = true;
}

void ClusterBuffer::reserve(std::size_t rows) {
  counts_.reserve(rows);
  weights_.reserve(rows);
  sums_.reserve(rows);
  sum2s_.reserve(rows);
  centroids_.reserve(rows);
}

void ClusterBuffer::append(ClusterView clusters) {
  const std::size_t n = clusters.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t count = clusters.count(i);
    if (count == 0) continue;
    const std::span<const double> sum = clusters.sum(i);
    const std::span<const double> sum2 = clusters.sum2(i);
    const std::size_t dim = sum.size();
    GEORED_ENSURE(empty() || dim == this->dim(), "buffered clusters must share one dimension");
    counts_.push_back(count);
    weights_.push_back(clusters.weight(i));
    sums_.push_back_row(sum.data(), dim);
    if (has_moments_ && sum2.size() == dim) {
      sum2s_.push_back_row(sum2.data(), dim);
    } else if (has_moments_) {
      has_moments_ = false;
      sum2s_.reset();
    }
    // MicroCluster::centroid's sum / count, component by component.
    const auto divisor = static_cast<double>(count);
    centroids_.push_back_row(sum.data(), dim);
    double* centroid = centroids_.mutable_row(centroids_.size() - 1);
    for (std::size_t d = 0; d < dim; ++d) centroid[d] /= divisor;
  }
}

}  // namespace geored::cluster
