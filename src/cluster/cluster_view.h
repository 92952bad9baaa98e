// Micro-clusters as flat rows: the one form the production libraries use.
//
// A micro-cluster is three numbers: its count and the per-dimension sum
// and sum of squares of the absorbed coordinates. (Paper §III-B adds a
// fourth, the data volume, which no decision reads: Algorithm 1 weighs the
// pseudo-points by count.) Every step of a placement epoch reads them as rows: collection sizes and
// decodes their frames, the proposal clusters their centroids, the gate
// scores two placements on them, and an adopting epoch hands them to the
// new replicas. Two types carry them:
//
//   ClusterView    read-only rows of count, sum and sum2 in place,
//                  over a summarizer's flat moment store or a ClusterBuffer;
//   ClusterBuffer  the one owning form: what a decoder, a collector or an
//                  aggregator builds. It keeps its rows in order, each with
//                  its centroid, the node that reported it, and, once an
//                  adopting epoch plans its hand-off, the replica it is
//                  handed to. Its clear() keeps the storage.
//
// Every moment is read or copied bit for bit, and a ClusterBuffer centroid
// is sum[d] / count, component by component, so every reader of either
// type computes the same bits.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/point_set.h"

namespace geored::cluster {

class ClusterView {
 public:
  ClusterView() = default;

  /// Views `size` flat rows of `dim` values: row i's sum at sums[i * dim]
  /// and its second moments at sum2s[i * dim], or none when sum2s is null
  /// (the rows of centroid frames).
  ClusterView(std::size_t size, std::size_t dim, const std::uint64_t* counts,
              const double* sums, const double* sum2s) noexcept
      : counts_(counts), sums_(sums), sum2s_(sum2s), size_(size), dim_(dim) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The rows' dimension.
  std::size_t dim() const { return dim_; }

  std::uint64_t count(std::size_t i) const { return counts_[i]; }
  std::span<const double> sum(std::size_t i) const { return {sums_ + i * dim_, dim_}; }
  /// Empty when the row carries no second moments.
  std::span<const double> sum2(std::size_t i) const {
    if (sum2s_ == nullptr) return {};
    return {sum2s_ + i * dim_, dim_};
  }

  /// Rows [first, first + count).
  ClusterView subview(std::size_t first, std::size_t count) const;

 private:
  const std::uint64_t* counts_ = nullptr;
  const double* sums_ = nullptr;
  const double* sum2s_ = nullptr;
  std::size_t size_ = 0;
  std::size_t dim_ = 0;
};

/// The origin of a row that no single replica reported: an aggregator merged
/// it (core/aggregation.h).
inline constexpr std::uint32_t kNoOrigin = std::numeric_limits<std::uint32_t>::max();

class ClusterBuffer {
 public:
  ClusterBuffer() = default;
  explicit ClusterBuffer(ClusterView clusters) { append(clusters); }

  /// Drops every row, the dimension and the plan; the storage is kept.
  void clear();
  /// Makes room for `rows` rows in all, so appending them allocates once
  /// per field. Second moments are not reserved: phase 1 carries none.
  void reserve(std::size_t rows);

  /// Appends every row of `clusters` with a positive count, computing each
  /// centroid; a row of count 0 is skipped, as every reader of the epoch
  /// skips such a cluster. Rows must share one dimension, which the
  /// first row appended to an empty buffer sets, and are appended before the
  /// hand-off is planned. A row's second moments are kept when it carries
  /// them. `origin` is the node that reported `clusters`: each row appended
  /// remembers it and the row's index in `clusters`; kNoOrigin marks rows an
  /// aggregator merged.
  void append(ClusterView clusters, std::uint32_t origin = kNoOrigin);
  /// append() of each row's count and sum alone: the rows of a
  /// centroid frame, whose second moments the hand-off fills in.
  void append_centroids(ClusterView clusters, std::uint32_t origin = kNoOrigin);

  std::size_t size() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }
  std::size_t dim() const { return sums_.dim(); }

  std::uint64_t count(std::size_t i) const { return counts_[i]; }
  const double* centroid(std::size_t i) const { return centroids_.row(i); }
  /// The node that reported row i, or kNoOrigin.
  std::uint32_t origin(std::size_t i) const {
    return rows_.empty() ? kNoOrigin : rows_[i].origin;
  }
  /// Row i's index in the clusters its origin reported.
  std::size_t origin_row(std::size_t i) const {
    return rows_.empty() ? 0 : rows_[i].origin_row;
  }

  /// The hand-off plan of an adopting epoch: `destinations[i]` is the node
  /// row i is handed to. Rows removed later take their destination with
  /// them.
  void set_destinations(std::span<const std::uint32_t> destinations);
  bool planned() const { return planned_; }
  std::uint32_t destination(std::size_t i) const { return rows_[i].destination; }
  /// Whether planned row i leaves the replica holding it: its destination
  /// is not its origin. A row an aggregator merged always departs.
  bool departs(std::size_t i) const {
    return rows_[i].origin == kNoOrigin || rows_[i].destination != rows_[i].origin;
  }

  /// Whether row i carries its second moments.
  bool has_moments(std::size_t i) const {
    return sum2s_.size() == size() && !empty() && !std::isnan(sum2s_.row(i)[0]);
  }
  /// Sets row i's second moments: dim() finite values.
  void set_moments(std::size_t i, std::span<const double> sum2);

  /// Keeps the rows i with keep[i] (one flag per row) in order, with their
  /// plan and moments, and drops the others.
  void retain_rows(const std::vector<bool>& keep);

  /// The rows in place. Second moments are visible once any row carries
  /// them; a row still without them then reads quiet NaNs, which no
  /// summarizer produces and no decoder accepts.
  ClusterView view() const {
    return {size(), dim(), counts_.data(), sums_.row(0),
            sum2s_.size() == size() && !empty() ? sum2s_.row(0) : nullptr};
  }

 private:
  /// Where a row came from and where the plan sends it.
  struct Row {
    std::uint32_t origin = kNoOrigin;
    std::uint32_t origin_row = 0;
    std::uint32_t destination = kNoOrigin;
  };

  void append_rows(ClusterView clusters, std::uint32_t origin, bool moments);
  /// Gives every row a slot in sum2s_, NaN until its moments are set.
  void store_moments();

  std::vector<std::uint64_t> counts_;
  PointSet sums_;
  /// Empty, or one row per buffer row (NaN for a row without moments).
  PointSet sum2s_;
  PointSet centroids_;
  /// Empty while no row has an origin and no plan is set, else one per row.
  std::vector<Row> rows_;
  std::size_t reserved_rows_ = 0;
  bool planned_ = false;
};

}  // namespace geored::cluster
