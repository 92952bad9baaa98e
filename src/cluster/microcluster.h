// Micro-clusters: the paper's constant-size summary of a user population.
//
// Per Section III-B, each micro-cluster stores exactly four quantities:
//   count  - number of accesses absorbed,
//   weight - total data volume exchanged with those users,
//   sum    - per-dimension sum of absorbed coordinates,
//   sum2   - per-dimension sum of squared coordinates.
// The centroid is sum/count and the standard deviation is derived from
// E[X^2] - E[X]^2, so clusters can be merged by adding their moments — the
// CluStream (Aggarwal et al., VLDB'03) cluster-feature representation.
#pragma once

#include <cstdint>

#include "common/point.h"

namespace geored::cluster {

namespace detail {
struct FrameAccess;
}  // namespace detail
class ClusterView;

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

  // The wire encoding is the summary frame (cluster/summary_frame.h).

 private:
  /// The frame decoders rebuild clusters from moments they validated one by
  /// one. Whether the moments together describe a set of points is left to
  /// the caller that keeps them (ReplicationManager::restore checks it).
  friend struct detail::FrameAccess;
  /// Copies rows out as they are, second moments or none.
  friend class ClusterView;

  std::uint64_t count_ = 0;
  double weight_ = 0.0;
  Point sum_;
  Point sum2_;
};

}  // namespace geored::cluster
