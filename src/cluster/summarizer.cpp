#include "cluster/summarizer.h"

#include "common/ensure.h"

namespace geored::cluster {

MicroClusterSummarizer::MicroClusterSummarizer(const SummarizerConfig& config)
    : config_(config), store_(config.min_absorb_radius, config.radius_factor) {
  GEORED_ENSURE(config.max_clusters >= 1, "summarizer needs at least one micro-cluster");
  GEORED_ENSURE(config.min_absorb_radius >= 0.0, "min_absorb_radius must be non-negative");
  GEORED_ENSURE(config.radius_factor > 0.0, "radius_factor must be positive");
  GEORED_ENSURE(config.epoch_decay > 0.0 && config.epoch_decay <= 1.0,
                "epoch_decay must be in (0,1]");
  store_.reserve(config.max_clusters + 1);
}

void MicroClusterSummarizer::add(const Point& coords) {
  add_row(coords.values().data(), coords.dim());
}

void MicroClusterSummarizer::add_batch(const PointSet& coords) {
  const std::size_t n = coords.size();
  if (n == 0) return;
  const std::size_t dim = coords.dim();
  GEORED_ENSURE(store_.empty() || dim == store_.dim(), "dimension mismatch in add");
  total_count_ += n;
  std::size_t i = 0;
  if (store_.empty()) {
    store_.append_singleton(coords.row(0), dim);
    i = 1;
  }
  // Batch-only advantage over the per-access API: upcoming rows are known,
  // so their cache lines can be requested while the current row is being
  // ingested. Distance 8 covers the ingest latency of one row at typical
  // dimensions; prefetch is a hint and never changes results.
  constexpr std::size_t kPrefetchAhead = 8;
  for (; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      __builtin_prefetch(coords.row(i + kPrefetchAhead));
    }
    if (!store_.try_absorb(coords.row(i))) spawn_row(coords.row(i), dim);
  }
}

void MicroClusterSummarizer::add_row(const double* coords, std::size_t dim) {
  GEORED_ENSURE(store_.empty() || dim == store_.dim(), "dimension mismatch in add");
  ++total_count_;
  if (store_.empty()) {
    store_.append_singleton(coords, dim);
    return;
  }
  if (!store_.try_absorb(coords)) spawn_row(coords, dim);
}

void MicroClusterSummarizer::spawn_row(const double* coords, std::size_t dim) {
  store_.append_singleton(coords, dim);
  if (store_.size() > config_.max_clusters) {
    const auto [best_a, best_b] = store_.closest_pair();
    store_.merge_rows(best_a, best_b);
  }
  GEORED_DCHECK(store_.size() <= config_.max_clusters,
                "summarizer exceeded its micro-cluster budget after add");
}

void MicroClusterSummarizer::merge_cluster(const ClusterView& clusters, std::size_t i) {
  const std::uint64_t count = clusters.count(i);
  if (count == 0) return;
  store_.append_moments(clusters, i);
  total_count_ += count;
  if (store_.size() > config_.max_clusters) {
    const auto [best_a, best_b] = store_.closest_pair();
    store_.merge_rows(best_a, best_b);
  }
  GEORED_DCHECK(store_.size() <= config_.max_clusters,
                "summarizer exceeded its micro-cluster budget after merge_cluster");
}

void MicroClusterSummarizer::merge_cluster(const ClusterView& clusters) {
  for (std::size_t i = 0; i < clusters.size(); ++i) merge_cluster(clusters, i);
}

void MicroClusterSummarizer::decay() { store_.scale_all(config_.epoch_decay); }

void MicroClusterSummarizer::clear() {
  store_.clear();
  total_count_ = 0;
}

}  // namespace geored::cluster
