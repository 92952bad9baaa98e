#include "reference/summarizer_scalar.h"

#include <cmath>
#include <limits>

#include "common/ensure.h"

namespace geored::cluster {

ScalarMicroClusterSummarizer::ScalarMicroClusterSummarizer(const SummarizerConfig& config)
    : config_(config) {
  GEORED_ENSURE(config.max_clusters >= 1, "summarizer needs at least one micro-cluster");
  GEORED_ENSURE(config.min_absorb_radius >= 0.0, "min_absorb_radius must be non-negative");
  GEORED_ENSURE(config.radius_factor > 0.0, "radius_factor must be positive");
  GEORED_ENSURE(config.epoch_decay > 0.0 && config.epoch_decay <= 1.0,
                "epoch_decay must be in (0,1]");
  clusters_.reserve(config.max_clusters + 1);
}

void ScalarMicroClusterSummarizer::add(const Point& coords, double weight) {
  GEORED_ENSURE(std::isfinite(weight) && weight >= 0.0,
                "access weight must be finite and non-negative");
  ++total_count_;
  if (clusters_.empty()) {
    clusters_.emplace_back(coords, weight);
    centroids_.push_back(clusters_.back().centroid());
    return;
  }

  double dist_sq = 0.0;
  const std::size_t nearest = nearest_cluster(coords, &dist_sq);
  MicroCluster& candidate = clusters_[nearest];
  const double distance = std::sqrt(dist_sq);
  // The paper's rule: absorb when the client is within the cluster's
  // standard deviation; the configurable floor keeps singleton clusters
  // (stddev 0) from rejecting everything.
  const double radius =
      std::max(config_.min_absorb_radius, config_.radius_factor * candidate.rms_stddev());
  if (distance <= radius) {
    candidate.absorb(coords, weight);
    centroids_.assign_row(nearest, candidate.centroid());
    return;
  }

  clusters_.emplace_back(coords, weight);
  centroids_.push_back(clusters_.back().centroid());
  if (clusters_.size() > config_.max_clusters) {
    merge_closest_pair();
  }
  GEORED_DCHECK(clusters_.size() <= config_.max_clusters,
                "summarizer exceeded its micro-cluster budget after add");
}

void ScalarMicroClusterSummarizer::merge_cluster(const MicroCluster& cluster) {
  if (cluster.count() == 0) return;
  total_count_ += cluster.count();
  clusters_.push_back(cluster);
  centroids_.push_back(cluster.centroid());
  if (clusters_.size() > config_.max_clusters) {
    merge_closest_pair();
  }
  GEORED_DCHECK(clusters_.size() <= config_.max_clusters,
                "summarizer exceeded its micro-cluster budget after merge_cluster");
}

std::size_t ScalarMicroClusterSummarizer::nearest_cluster(const Point& coords,
                                                          double* dist_sq) const {
  GEORED_CHECK(!clusters_.empty(), "nearest_cluster on empty summarizer");
  GEORED_DCHECK(centroids_.size() == clusters_.size(),
                "summarizer centroid cache out of sync");
  return centroids_.nearest_of(coords, dist_sq);
}

void ScalarMicroClusterSummarizer::merge_closest_pair() {
  GEORED_CHECK(clusters_.size() >= 2, "merge requires at least two clusters");
  const auto [best_a, best_b] = centroids_.pairwise_min_distance();
  clusters_[best_a].merge(clusters_[best_b]);
  centroids_.assign_row(best_a, clusters_[best_a].centroid());
  clusters_.erase(clusters_.begin() + static_cast<std::ptrdiff_t>(best_b));
  centroids_.erase_row(best_b);
}

void ScalarMicroClusterSummarizer::decay() {
  std::vector<MicroCluster> survivors;
  survivors.reserve(clusters_.size());
  for (auto& cluster : clusters_) {
    cluster.scale(config_.epoch_decay);
    if (cluster.count() > 0) survivors.push_back(cluster);
  }
  clusters_ = std::move(survivors);
  rebuild_centroids();
}

void ScalarMicroClusterSummarizer::clear() {
  clusters_.clear();
  centroids_ = PointSet();  // fresh set so a new stream may change dimension
  total_count_ = 0;
}

void ScalarMicroClusterSummarizer::rebuild_centroids() {
  centroids_ = PointSet();
  for (const auto& cluster : clusters_) centroids_.push_back(cluster.centroid());
}

void ScalarMicroClusterSummarizer::serialize(ByteWriter& writer) const {
  write_clusters(writer, clusters_);
}

}  // namespace geored::cluster
