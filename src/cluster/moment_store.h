// Flat structure-of-arrays storage for micro-cluster moments.
//
// The scalar summarizer (reference/summarizer_scalar.h) keeps one
// micro-cluster object per cluster (reference/microcluster.h): every absorb
// allocates two temporary
// Points (the component squares and the refreshed centroid) and every absorb
// test recomputes the rms stddev — two sqrt-free passes over the moments —
// from scratch. At ingest rates of millions of accesses that is the
// dominant cost of the whole pipeline (paper §III-B runs once per access).
//
// MomentStore keeps the moments a decision reads in contiguous per-field
// buffers (counts / sums / sum2s) beside the centroid PointSet, plus a
// cached absorb radius per cluster:
//
//   radius(i) = max(min_absorb_radius, radius_factor * rms_stddev(i))
//
// recomputed lazily and invalidated only when row i mutates (absorb, merge,
// decay). The absorb test is then one fused kernel — nearest centroid scan
// plus a cached-radius compare — with no allocation on the hot path.
//
// Every update mirrors the exact floating-point operation sequence of that
// object's absorb, merge, scale, centroid and rms_stddev on count, sum and
// sum2 (the object's weight has no row here), so a summarizer
// built on this store is bit-identical to the scalar reference; the
// equivalence suites serialize both and compare bytes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster_view.h"
#include "common/ensure.h"
#include "common/point_set.h"
#include "common/point_set_simd.h"

namespace geored::cluster {

namespace detail {

/// Debug mirror of the reference object's moments_consistent check, over
/// raw rows: finite moments with count·sum2 >= sum² per dimension.
inline bool moment_row_consistent(std::uint64_t count, const double* sum, const double* sum2,
                                  std::size_t dim) {
  const auto n = static_cast<double>(count);
  for (std::size_t d = 0; d < dim; ++d) {
    if (!std::isfinite(sum[d]) || !std::isfinite(sum2[d])) return false;
    const double lhs = n * sum2[d];
    const double rhs = sum[d] * sum[d];
    if (lhs < rhs - 1e-6 * std::max(1.0, rhs)) return false;
  }
  return true;
}

}  // namespace detail

class MomentStore {
 public:
  /// `min_absorb_radius` and `radius_factor` parameterize the cached radius
  /// (SummarizerConfig semantics).
  MomentStore(double min_absorb_radius, double radius_factor);

  std::size_t size() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }
  std::size_t dim() const { return sums_.dim(); }

  std::uint64_t count(std::size_t i) const { return counts_[i]; }
  const PointSet& centroids() const { return centroids_; }

  /// Reserves room for `clusters` rows. The transposed centroid panel is
  /// then sized for exactly that many columns when its first row arrives,
  /// and grows past them only if the rows do.
  void reserve(std::size_t clusters);
  /// Full reset, including the adopted dimension; the reserved row count
  /// and the storage are kept, so refilling a cleared store allocates
  /// nothing until it outgrows what it held.
  void clear();

  /// Appends a singleton cluster (count 1) from one access at `coords`.
  void append_singleton(const double* coords, std::size_t dim);

  /// Appends row i of `clusters` (merge_cluster / checkpoint restore).
  /// Requires a positive count and both moments of the store's dimension
  /// (any dimension when the store is empty).
  void append_moments(const ClusterView& clusters, std::size_t i);

  /// The rows in place: no copy, no allocation.
  ClusterView view() const {
    return {size(), dim(), counts_.data(), sums_.row(0), sum2s_.row(0)};
  }

  /// The fused absorb kernel: nearest centroid by squared distance (the
  /// nearest_of scan: strict `<`, first winner), then the paper's
  /// absorb-or-spawn test against the cached radius. On success the access
  /// is absorbed into the winning row (the exact operation order of the
  /// reference object's absorb) and true is returned; on failure the store is untouched.
  /// Requires a non-empty store and `dim()` components at `coords`.
  ///
  /// Forced inline so the summarizer's per-access loops make one call per
  /// access, into the nearest scan: at -O2 GCC leaves this body out of
  /// line, and the call plus reloading the store's fields costs about 3 ns
  /// of an access's ~50 (ingest_stream, docs/performance.md).
  [[gnu::always_inline]] bool try_absorb(const double* coords) {
    GEORED_CHECK(!empty(), "try_absorb on an empty store");
    double dist_sq = 0.0;
    const std::size_t nearest = nearest_centroid(coords, &dist_sq);
    // Floor fast path: the absorb radius is max(min_absorb_radius, scaled
    // stddev) >= min_absorb_radius, so an access provably inside the
    // constant floor absorbs without looking at the moments at all — the
    // rms-stddev recompute (the cached radius rarely survives: a successful
    // absorb invalidates the very row the next same-site access queries) is
    // skipped entirely, and the cache entry would be invalidated by this
    // absorb anyway. The squared comparison is guarded conservatively: only
    // distances outside the combined rounding margin of floor*floor and
    // sqrt take the shortcut, so the decision matches the scalar
    // `sqrt(dist_sq) <= radius` bit for bit.
    const double ff = min_absorb_radius_ * min_absorb_radius_;
    if (dist_sq <= ff * (1.0 - 1e-10) - 1e-12) {
      absorb_into(nearest, coords);
      return true;
    }
    const double r = radius(nearest);
    // Same squared-space idea against the full radius: outside the guard
    // band the squared comparison provably agrees with the exact one (sqrt
    // is monotone and correctly rounded, so one part in 1e10 dominates the
    // combined rounding of r*r and sqrt); inside it the reference
    // comparison runs verbatim. NaN distances fail both pretests and the
    // exact fallback, spawning a new cluster exactly like the reference.
    const double rr = r * r;
    bool within;
    if (dist_sq <= rr * (1.0 - 1e-10) - 1e-12) {
      within = true;
    } else if (dist_sq > rr * (1.0 + 1e-10) + 1e-12) {
      within = false;
    } else {
      within = std::sqrt(dist_sq) <= r;
    }
    if (!within) return false;
    absorb_into(nearest, coords);
    return true;
  }

  /// The closest pair of rows by centroid distance (merge candidates).
  std::pair<std::size_t, std::size_t> closest_pair() const {
    return centroids_.pairwise_min_distance();
  }

  /// Merges row `b`'s moments into row `a` (the reference object's merge order)
  /// and erases row `b`. Requires a != b.
  void merge_rows(std::size_t a, std::size_t b);

  /// The reference object's scale(factor) applied to every row in order, dropping
  /// rows whose count rounds to zero — the decay step. Invalidates every
  /// cached radius.
  void scale_all(double factor);

  /// Absorb radius of row i, recomputed from the moments if the cached
  /// value was invalidated by a mutation.
  double radius(std::size_t i) const {
    GEORED_CHECK(i < size(), "radius row out of range");
    double cached = radii_[i];
    if (cached >= 0.0) return cached;
    // The reference object's rms_stddev on the flat row, then the paper's radius
    // rule. The centroid row already holds sum[d] / n bit for bit — every
    // mutation path ends in refresh_centroid or writes the same division —
    // so the mean is read back instead of re-divided.
    const auto n = static_cast<double>(counts_[i]);
    const double* sum2 = sum2s_.row(i);
    const double* centroid = centroids_.row(i);
    const std::size_t d_n = dim();
    double total_variance = 0.0;
    for (std::size_t d = 0; d < d_n; ++d) {
      const double mean = centroid[d];
      const double variance = std::max(0.0, sum2[d] / n - mean * mean);
      total_variance += variance;
    }
    cached = std::max(min_absorb_radius_, radius_factor_ * std::sqrt(total_variance));
    radii_[i] = cached;
    return cached;
  }

  /// Whether row i's radius is currently cached (tests pin the invalidation
  /// contract with this).
  bool radius_cached(std::size_t i) const { return radii_[i] >= 0.0; }

  /// Index of the centroid nearest to `coords` plus its squared distance —
  /// the scan inside try_absorb, exposed so tests can compare it against
  /// PointSet::nearest_of directly. Runs simd::nearest_column over the
  /// transposed centroid shadow at simd::active_level(), one micro-cluster
  /// per SIMD lane; that kernel is bit-identical to the scalar scan at every
  /// level.
  std::size_t nearest_centroid(const double* coords, double* dist_sq) const {
    const simd::Level level = simd::active_level();
    double best_dist = 0.0;
    const std::size_t best = simd::nearest_column(centroids_t_.data(), t_stride_, size(),
                                                  dim(), coords, &best_dist, level);
    GEORED_DCHECK(
        [&] {
          double ref_dist = 0.0;
          const std::size_t ref = centroids_.nearest_of(coords, &ref_dist);
          return ref == best && ref_dist == best_dist;
        }(),
        "column nearest scan diverged from PointSet::nearest_of");
    if (dist_sq != nullptr) *dist_sq = best_dist;
    return best;
  }

 private:
  /// The reference object's absorb on the flat rows — the shared tail of both
  /// try_absorb accept paths. One pass per component: sum += c, sum2 +=
  /// c*c, then refresh_centroid's centroid = sum / n into both layouts.
  /// Components are independent, so fusing the passes changes no result,
  /// but it matters for speed: the next access's nearest scan reads the new
  /// centroid, so these divisions sit on the per-access dependency chain
  /// and should issue as early as possible.
  void absorb_into(std::size_t i, const double* coords) {
    const std::size_t d_n = dim();
    const auto n = static_cast<double>(++counts_[i]);
    double* sum = sums_.mutable_row(i);
    double* sum2 = sum2s_.mutable_row(i);
    double* centroid = centroids_.mutable_row(i);
    double* tcol = centroids_t_.data() + i;
    for (std::size_t d = 0; d < d_n; ++d) {
      const double c = coords[d];
      const double s = sum[d] + c;
      sum[d] = s;
      sum2[d] += c * c;
      const double value = s / n;
      centroid[d] = value;
      tcol[d * t_stride_] = value;
    }
    radii_[i] = -1.0;
    GEORED_DCHECK(detail::moment_row_consistent(counts_[i], sums_.row(i), sum2s_.row(i), d_n),
                  "moment row inconsistent after absorb");
  }

  /// Rewrites centroid row i as sums[i] / count[i] (the exact division
  /// sequence of the reference object's centroid). Every mutation ends here, which
  /// is what lets radius() read the mean back out of the centroid row.
  void refresh_centroid(std::size_t i) {
    const auto n = static_cast<double>(counts_[i]);
    const double* sum = sums_.row(i);
    double* centroid = centroids_.mutable_row(i);
    double* tcol = centroids_t_.data() + i;
    const std::size_t d_n = dim();
    for (std::size_t d = 0; d < d_n; ++d) {
      const double value = sum[d] / n;
      centroid[d] = value;
      tcol[d * t_stride_] = value;
    }
  }

  /// Grows the transposed shadow (and rebuilds it from the centroid rows)
  /// so column `rows - 1` is addressable, then keeps both layouts in sync.
  void ensure_transposed(std::size_t rows);
  /// Rebuilds the transposed shadow from the centroid rows (row erases
  /// shift every later column).
  void rebuild_transposed();

  /// Reused per-append staging row (component squares, initial centroid) so
  /// spawning a cluster does not allocate once warmed up.
  double* sum2_scratch(std::size_t dim) {
    scratch_.resize(dim);
    return scratch_.data();
  }

  double min_absorb_radius_;
  double radius_factor_;
  std::vector<std::uint64_t> counts_;
  PointSet sums_;
  PointSet sum2s_;
  PointSet centroids_;
  /// Cached radius per row; negative = invalidated (every real radius is
  /// >= min_absorb_radius >= 0).
  mutable std::vector<double> radii_;
  /// Column-major (dimension-major) shadow of centroids_: component d of
  /// row i lives at [d * t_stride_ + i]. This is the layout the lane-per-
  /// cluster simd::nearest_column scan consumes; kept in sync by
  /// refresh_centroid and the append/erase paths. t_stride_ >= size() always.
  std::vector<double> centroids_t_;
  std::size_t t_stride_ = 0;
  /// The largest row count passed to reserve(): the panel stride's floor.
  std::size_t reserved_rows_ = 0;
  std::vector<double> scratch_;
};

}  // namespace geored::cluster
