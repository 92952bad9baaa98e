// Micro-clusters as objects: the paper's constant-size summary of a user
// population, one object per cluster.
//
// Per Section III-B, each micro-cluster stores exactly four quantities:
//   count  - number of accesses absorbed,
//   weight - total data volume exchanged with those users,
//   sum    - per-dimension sum of absorbed coordinates,
//   sum2   - per-dimension sum of squared coordinates.
// The centroid is sum/count and the standard deviation is derived from
// E[X^2] - E[X]^2, so clusters can be merged by adding their moments — the
// CluStream (Aggarwal et al., VLDB'03) cluster-feature representation.
//
// The production libraries keep three of these numbers as flat rows
// (cluster/cluster_view.h, cluster/moment_store.h), whose every update
// repeats this class's floating-point operations on them: no decision reads
// the weight, so the rows leave it out. The object form is the
// test-only geored_reference library's: the frozen scalar summarizer
// (reference/summarizer_scalar.h) and redistribution (reference/scalar.h)
// are written on it, and tests build clusters by hand with it. A cluster
// reads as a one-row ClusterView in place, and the copy-in and copy-out
// helpers at the end move count, sum and sum2 between the two forms bit for
// bit; a copied-out cluster's weight is its count.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster_view.h"
#include "common/point.h"

namespace geored::cluster {

class MicroCluster {
 public:
  MicroCluster() = default;

  /// Creates a singleton cluster from one access at `coords` with data
  /// volume `weight`.
  MicroCluster(const Point& coords, double weight);

  /// Absorbs one access into the cluster.
  void absorb(const Point& coords, double weight);

  /// Merges another cluster's moments into this one.
  void merge(const MicroCluster& other);

  /// Scales all moments by `factor` in (0, 1]: centroid and stddev are
  /// preserved while the cluster's influence (count, weight) decays. The
  /// count is rounded down; a cluster decayed to count 0 should be dropped.
  void scale(double factor);

  std::uint64_t count() const { return count_; }
  double weight() const { return weight_; }
  const Point& sum() const { return sum_; }
  const Point& sum2() const { return sum2_; }

  /// Centroid sum/count. Requires count() > 0.
  Point centroid() const;

  /// Root-mean-square per-dimension population standard deviation: the
  /// radius used by the paper's absorb-or-spawn test. Zero for singletons.
  double rms_stddev() const;

  /// This cluster as a one-row view of its count, sum and sum2, read in
  /// place: valid while the cluster lives unchanged. Implicit, so a cluster
  /// goes wherever a ClusterView does (a summary frame writer,
  /// MicroClusterSummarizer::merge_cluster). Second moments of dimension 0
  /// read as none.
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator ClusterView() const noexcept;

  // The wire encoding is the summary frame (cluster/summary_frame.h).

 private:
  /// Copies a row out as it is, second moments or none.
  friend MicroCluster to_micro_cluster(const ClusterView& clusters, std::size_t i);

  std::uint64_t count_ = 0;
  double weight_ = 0.0;
  Point sum_;
  Point sum2_;
};

/// Copy-out: row i of `clusters` as a MicroCluster, every moment bit for bit
/// (second moments of dimension 0 when the row carries none), with a weight
/// equal to its count.
MicroCluster to_micro_cluster(const ClusterView& clusters, std::size_t i);

/// Copy-out of every row, in order.
std::vector<MicroCluster> to_micro_clusters(const ClusterView& clusters);

/// Copy-in: `clusters` as flat rows, in order. ClusterBuffer::append skips a
/// cluster of count 0, and keeps each cluster's second moments when it
/// carries them.
ClusterBuffer to_cluster_buffer(const std::vector<MicroCluster>& clusters);

}  // namespace geored::cluster
