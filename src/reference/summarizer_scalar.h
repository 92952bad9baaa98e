// Scalar reference summarizer: the pre-SoA MicroClusterSummarizer kept
// verbatim (one MicroCluster object per cluster, nearest-then-sqrt absorb
// test with the radius recomputed from moments on every access).
//
// MicroClusterSummarizer in cluster/summarizer.h replaced this
// implementation with flat structure-of-arrays moment storage and a cached
// absorb radius; the equivalence suites
// (tests/cluster/ingest_equivalence_test.cpp) and bench/micro_perf feed both
// the same streams and require bit-identical summaries, so the reference
// must stay untouched by future optimization — the same discipline as the
// other frozen references in reference/scalar.h. Part of the test-only
// geored_reference library: no production library links it.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/microcluster.h"
#include "cluster/summarizer.h"
#include "common/point.h"
#include "common/point_set.h"
#include "common/serialize.h"

namespace geored::cluster {

class ScalarMicroClusterSummarizer {
 public:
  explicit ScalarMicroClusterSummarizer(const SummarizerConfig& config = {});

  /// Records one access by a client at `coords` transferring `weight` units
  /// of data (e.g. bytes, normalized).
  void add(const Point& coords, double weight = 1.0);

  /// Inserts a whole micro-cluster (e.g. one inherited from a replica that
  /// is being retired). The cluster is kept intact; if the budget m is
  /// exceeded the two closest clusters are merged, as in add().
  void merge_cluster(const MicroCluster& cluster);

  const std::vector<MicroCluster>& clusters() const { return clusters_; }

  /// Total accesses summarized since construction or the last clear().
  std::uint64_t total_count() const { return total_count_; }

  /// Exponentially decays all cluster counts/weights (see
  /// SummarizerConfig::epoch_decay); clusters decayed below one access are
  /// dropped. Called at placement-epoch boundaries so old populations fade.
  void decay();

  void clear();

  /// Serializes all clusters (the per-replica message of Algorithm 1).
  void serialize(ByteWriter& writer) const;

 private:
  std::size_t nearest_cluster(const Point& coords, double* dist_sq = nullptr) const;
  void merge_closest_pair();
  void rebuild_centroids();

  SummarizerConfig config_;
  std::vector<MicroCluster> clusters_;
  /// Contiguous cache of clusters_[i].centroid(), kept in sync by every
  /// mutation so the per-access nearest/merge scans run on one flat buffer
  /// instead of recomputing sum/count Points per cluster per access.
  PointSet centroids_;
  std::uint64_t total_count_ = 0;
};

}  // namespace geored::cluster
