// Online per-replica summarization of client coordinates (paper §III-B).
//
// Each replica server owns one MicroClusterSummarizer. On every client
// access the summarizer finds the micro-cluster whose centroid is closest to
// the client's coordinates; if the client falls within that cluster's
// standard deviation it is absorbed, otherwise a new cluster is created and,
// if the budget m is exceeded, the two closest clusters are merged.
// Memory is O(m * dim) regardless of how many accesses are summarized.
//
// Storage is the flat MomentStore (cluster/moment_store.h): moments live in
// contiguous per-field buffers with a cached absorb radius per cluster, so
// the per-access hot path is one fused nearest+radius kernel with no
// allocation. The clusters are read in place through a ClusterView
// (cluster/cluster_view.h); no second copy of the store is kept. Results are
// bit-identical to the frozen scalar reference (reference/summarizer_scalar.h,
// test-only); the IngestEquivalence suite compares their clusters' summary
// frames (cluster/summary_frame.h).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster_view.h"
#include "cluster/moment_store.h"
#include "cluster/summary_frame.h"
#include "common/point.h"
#include "common/point_set.h"

namespace geored::cluster {

struct SummarizerConfig {
  /// Maximum number of micro-clusters retained (the paper's m).
  std::size_t max_clusters = 4;
  /// Radius granted to clusters whose variance is still degenerate (e.g.
  /// singletons, whose stddev is zero): a client closer than this is
  /// absorbed rather than spawning a new cluster. Milliseconds of
  /// coordinate-space distance.
  double min_absorb_radius = 5.0;
  /// Multiplier on the cluster stddev for the absorb test (1.0 = the paper's
  /// "within the standard deviation").
  double radius_factor = 1.0;
  /// Decay applied by decay() to the counts and moments, implementing the
  /// "recent accesses" emphasis between placement epochs.
  double epoch_decay = 0.5;
};

class MicroClusterSummarizer {
 public:
  explicit MicroClusterSummarizer(const SummarizerConfig& config = {});

  /// Records one access by a client at `coords`, which must match the
  /// dimension of the clusters already held; a rejected access changes
  /// nothing, not even total_count().
  void add(const Point& coords);

  /// Records a batch of accesses, one per row of `coords`. Equivalent to
  /// calling add() per row in order — batching only amortizes the call
  /// overhead, it never changes the result. The dimension is validated
  /// before any row is ingested, so a mismatch rejects the whole batch and
  /// leaves the summarizer untouched.
  void add_batch(const PointSet& coords);

  /// Inserts row i of `clusters`, a whole micro-cluster read in place (e.g.
  /// one inherited from a replica that is being retired). The cluster is
  /// kept intact; if the budget m is exceeded the two closest clusters are
  /// merged, as in add(). A row of count 0 is ignored.
  void merge_cluster(const ClusterView& clusters, std::size_t i);
  /// merge_cluster of every row of `clusters`, in order.
  void merge_cluster(const ClusterView& clusters);

  /// The current micro-clusters, read in place from the flat store: no
  /// copy and no allocation. The view is valid until the next mutation.
  ClusterView clusters() const { return store_.view(); }

  /// Total accesses summarized since construction or the last clear().
  std::uint64_t total_count() const { return total_count_; }

  /// Exponentially decays all cluster counts and moments (see
  /// SummarizerConfig::epoch_decay); clusters decayed below one access are
  /// dropped. Called at placement-epoch boundaries so old populations fade.
  void decay();

  /// Drops every cluster and the dimension, keeping the storage.
  void clear();

  /// The underlying flat moment store — exposed so tests can pin the radius
  /// cache invalidation contract.
  const MomentStore& store() const { return store_; }

 private:
  void add_row(const double* coords, std::size_t dim);
  /// The paper's rule for an access that MomentStore::try_absorb rejected:
  /// spawn a singleton cluster, then merge the closest pair over budget.
  /// Shared by add_row and add_batch, which run try_absorb inline first.
  void spawn_row(const double* coords, std::size_t dim);

  SummarizerConfig config_;
  MomentStore store_;
  std::uint64_t total_count_ = 0;
};

}  // namespace geored::cluster
