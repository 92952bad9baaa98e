#include "reference/microcluster.h"

#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "common/ensure.h"

namespace geored::cluster {

namespace {

/// Sufficient-statistics sanity for debug builds: the stored moments must
/// describe a realizable point multiset. Weight and both moment vectors must
/// be finite, weight non-negative, and per dimension Cauchy-Schwarz demands
/// n * sum2[d] >= sum[d]^2 (up to floating-point slack).
bool moments_consistent(std::uint64_t count, double weight, const Point& sum,
                        const Point& sum2) {
  if (!std::isfinite(weight) || weight < 0.0) return false;
  if (sum.dim() != sum2.dim()) return false;
  if (!sum.is_finite() || !sum2.is_finite()) return false;
  const auto n = static_cast<double>(count);
  for (std::size_t d = 0; d < sum.dim(); ++d) {
    const double lhs = n * sum2[d];
    const double rhs = sum[d] * sum[d];
    if (lhs < rhs - 1e-6 * std::max(1.0, rhs)) return false;
  }
  return true;
}

}  // namespace

MicroCluster::MicroCluster(const Point& coords, double weight)
    : count_(1), weight_(weight), sum_(coords), sum2_(coords.component_squares()) {
  GEORED_ENSURE(std::isfinite(weight) && weight >= 0.0,
                "access weight must be finite and non-negative");
}

void MicroCluster::absorb(const Point& coords, double weight) {
  GEORED_ENSURE(std::isfinite(weight) && weight >= 0.0,
                "access weight must be finite and non-negative");
  if (count_ == 0) {
    *this = MicroCluster(coords, weight);
    return;
  }
  GEORED_ENSURE(coords.dim() == sum_.dim(), "dimension mismatch in absorb");
  ++count_;
  weight_ += weight;
  sum_ += coords;
  sum2_ += coords.component_squares();
  GEORED_DCHECK(moments_consistent(count_, weight_, sum_, sum2_),
                "micro-cluster moments inconsistent after absorb");
}

void MicroCluster::merge(const MicroCluster& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  GEORED_ENSURE(sum_.dim() == other.sum_.dim(), "dimension mismatch in merge");
  count_ += other.count_;
  weight_ += other.weight_;
  sum_ += other.sum_;
  sum2_ += other.sum2_;
  GEORED_DCHECK(moments_consistent(count_, weight_, sum_, sum2_),
                "micro-cluster moments inconsistent after merge");
}

void MicroCluster::scale(double factor) {
  GEORED_ENSURE(factor > 0.0 && factor <= 1.0, "scale factor must be in (0,1]");
  if (count_ == 0) return;
  const auto new_count =
      static_cast<std::uint64_t>(static_cast<double>(count_) * factor + 0.5);
  if (new_count == 0) {
    *this = MicroCluster();
    return;
  }
  // Scale the moments by the *realized* count ratio (not the raw factor) so
  // that centroid and stddev are exactly preserved despite count rounding.
  const double realized = static_cast<double>(new_count) / static_cast<double>(count_);
  count_ = new_count;
  weight_ *= realized;
  sum_ *= realized;
  sum2_ *= realized;
  GEORED_DCHECK(moments_consistent(count_, weight_, sum_, sum2_),
                "micro-cluster moments inconsistent after scale");
}

Point MicroCluster::centroid() const {
  GEORED_ENSURE(count_ > 0, "centroid of an empty micro-cluster");
  return sum_ / static_cast<double>(count_);
}

double MicroCluster::rms_stddev() const {
  GEORED_ENSURE(count_ > 0, "stddev of an empty micro-cluster");
  const auto n = static_cast<double>(count_);
  double total_variance = 0.0;
  for (std::size_t d = 0; d < sum_.dim(); ++d) {
    const double mean = sum_[d] / n;
    // Population variance from the stored moments; clamp tiny negative
    // values produced by floating-point cancellation.
    const double variance = std::max(0.0, sum2_[d] / n - mean * mean);
    total_variance += variance;
  }
  return std::sqrt(total_variance);
}

MicroCluster::operator ClusterView() const noexcept {
  const std::size_t dim = sum_.dim();
  return {1, dim, &count_, sum_.values().data(),
          sum2_.dim() == dim && dim > 0 ? sum2_.values().data() : nullptr};
}

MicroCluster to_micro_cluster(const ClusterView& clusters, std::size_t i) {
  GEORED_ENSURE(i < clusters.size(), "cluster row out of range");
  MicroCluster cluster;
  cluster.count_ = clusters.count(i);
  cluster.weight_ = static_cast<double>(cluster.count_);
  const std::span<const double> sum = clusters.sum(i);
  const std::span<const double> sum2 = clusters.sum2(i);
  cluster.sum_ = Point(std::vector<double>(sum.begin(), sum.end()));
  cluster.sum2_ = Point(std::vector<double>(sum2.begin(), sum2.end()));
  return cluster;
}

std::vector<MicroCluster> to_micro_clusters(const ClusterView& clusters) {
  std::vector<MicroCluster> copies;
  copies.reserve(clusters.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    copies.push_back(to_micro_cluster(clusters, i));
  }
  return copies;
}

ClusterBuffer to_cluster_buffer(const std::vector<MicroCluster>& clusters) {
  ClusterBuffer buffer;
  buffer.reserve(clusters.size());
  for (const MicroCluster& cluster : clusters) buffer.append(cluster);
  return buffer;
}

}  // namespace geored::cluster
