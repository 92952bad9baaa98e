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
// allocation. Results are bit-identical to the frozen scalar reference
// (reference/summarizer_scalar.h, test-only); the IngestEquivalence suite
// compares serialized bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/microcluster.h"
#include "cluster/moment_store.h"
#include "common/point.h"
#include "common/point_set.h"
#include "common/serialize.h"

namespace geored::cluster {

/// Serializes a bare micro-cluster set in the summarizer wire format (u32
/// count + clusters) — the per-source message of Algorithm 1. Shared by
/// every collection path so the formats cannot drift apart.
void write_clusters(ByteWriter& writer, const std::vector<MicroCluster>& clusters);

/// Wire size of write_clusters(clusters) in bytes.
std::size_t serialized_size(const std::vector<MicroCluster>& clusters);

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
  /// Decay applied by decay() to counts and weights, implementing the
  /// "recent accesses" emphasis between placement epochs.
  double epoch_decay = 0.5;
};

class MicroClusterSummarizer {
 public:
  explicit MicroClusterSummarizer(const SummarizerConfig& config = {});

  /// Records one access by a client at `coords` transferring `weight` units
  /// of data (e.g. bytes, normalized). Weights must be finite and
  /// non-negative, and `coords` must match the dimension of the clusters
  /// already held; a rejected access changes nothing, not even
  /// total_count().
  void add(const Point& coords, double weight = 1.0);

  /// Records a batch of accesses: row i of `coords` with weights[i] (or 1.0
  /// for every row when `weights` is empty). Equivalent to calling add()
  /// per row in order — batching only amortizes the call overhead, it never
  /// changes the result. Weights and the dimension are validated before any
  /// row is ingested, so a non-finite or negative weight or a dimension
  /// mismatch rejects the whole batch and leaves the summarizer untouched.
  void add_batch(const PointSet& coords, std::span<const double> weights = {});

  /// Inserts a whole micro-cluster (e.g. one inherited from a replica that
  /// is being retired). The cluster is kept intact; if the budget m is
  /// exceeded the two closest clusters are merged, as in add().
  void merge_cluster(const MicroCluster& cluster);

  /// Materialized view of the current micro-clusters. Rebuilt lazily from
  /// the flat store after mutations; moments are copied bit for bit.
  const std::vector<MicroCluster>& clusters() const;

  /// Total accesses summarized since construction or the last clear().
  std::uint64_t total_count() const { return total_count_; }

  /// Exponentially decays all cluster counts/weights (see
  /// SummarizerConfig::epoch_decay); clusters decayed below one access are
  /// dropped. Called at placement-epoch boundaries so old populations fade.
  void decay();

  void clear();

  /// Serializes all clusters (the per-replica message of Algorithm 1).
  void serialize(ByteWriter& writer) const;

  /// Decodes a write_clusters frame. Hardened against hostile bytes: a
  /// truncated buffer, a cluster count that cannot fit in the remaining
  /// bytes, or moment values no serialize() could emit all throw
  /// geored::WireFormatError — real-transport collectors (src/net/) rely on
  /// corrupt frames failing typed here rather than propagating garbage.
  static std::vector<MicroCluster> deserialize_clusters(ByteReader& reader);

  /// The underlying flat moment store — exposed so tests can pin the radius
  /// cache invalidation contract.
  const MomentStore& store() const { return store_; }

 private:
  void add_row(const double* coords, std::size_t dim, double weight);
  /// The paper's rule for an access that MomentStore::try_absorb rejected:
  /// spawn a singleton cluster, then merge the closest pair over budget.
  /// Shared by add_row and add_batch, which run try_absorb inline first.
  void spawn_row(const double* coords, std::size_t dim, double weight);

  SummarizerConfig config_;
  MomentStore store_;
  /// Lazily materialized clusters() view; invalidated by every mutation.
  mutable std::vector<MicroCluster> clusters_cache_;
  mutable bool cache_valid_ = false;
  std::uint64_t total_count_ = 0;
};

}  // namespace geored::cluster
