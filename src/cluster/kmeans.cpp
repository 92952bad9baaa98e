#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "cluster/kmeans_detail.h"
#include "common/arena.h"
#include "common/ensure.h"
#include "common/point_set.h"
#include "common/point_set_simd.h"
#include "common/thread_pool.h"

namespace geored::cluster {

namespace detail {

bool centroids_finite(const PointSet& centroids, std::size_t dim) {  // lint: no-ensure
  if (centroids.dim() != dim) return false;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const double* row = centroids.row(c);
    for (std::size_t d = 0; d < dim; ++d) {
      if (!std::isfinite(row[d])) return false;
    }
  }
  return true;
}

double objective_of(const WeightedPoints& points, const PointSet& centroids,
                    double* best_dist_sq, std::size_t* assignment) {
  const std::size_t n = points.positions.size();
  const auto assign = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t nearest =
          centroids.nearest_of(points.positions.row(i), &best_dist_sq[i]);
      if (assignment != nullptr) assignment[i] = nearest;
    }
  };
  // By reference, so the call allocates nothing (common/thread_pool.h).
  parallel_for(n, std::ref(assign), kMinParallelPoints);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += points.weights[i] * best_dist_sq[i];
  return total;
}

PointSet kmeanspp_seed(const WeightedPoints& points, std::size_t k,  // lint: no-ensure
                       Rng& rng) {
  const std::size_t n = points.positions.size();
  PointSet centroids(points.positions.dim());
  centroids.reserve(k);
  const std::size_t dim = points.positions.dim();
  centroids.push_back_row(points.positions.row(rng.weighted_index(points.weights)), dim);

  // Seeding scratch lives on the thread's epoch arena: taken once per call,
  // reused across the chosen-centroid loop, returned wholesale at scope exit.
  ArenaScope scope;
  double* dist_sq = scope.span<double>(n);
  std::fill(dist_sq, dist_sq + n, std::numeric_limits<double>::infinity());
  double* probs = scope.span<double>(n);
  while (centroids.size() < k) {
    const double* last = centroids.row(centroids.size() - 1);
    const auto nearer = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        dist_sq[i] = std::min(dist_sq[i], points.positions.distance_squared(i, last));
      }
    };
    parallel_for(n, std::ref(nearer), kMinParallelPoints);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      probs[i] = points.weights[i] * dist_sq[i];
      total += probs[i];
    }
    if (total <= 0.0) break;  // all remaining mass sits on chosen centroids
    centroids.push_back_row(points.positions.row(rng.weighted_index(probs, n)), dim);
  }
  return centroids;
}

}  // namespace detail

namespace {

using detail::centroids_finite;
using detail::kMinParallelPoints;
using detail::objective_of;

/// Downward floating-point guard for the Hamerly bounds: a relative shave
/// plus an absolute one, orders of magnitude wider than the rounding error
/// of a distance computation, so a "provably still closest" verdict can
/// never be an artifact of FP noise. Skipped scans must be *conservative* —
/// a too-small bound only costs a redundant rescan, never a wrong answer.
/// The constants are named so the batched skip kernel (hamerly_skip_batch)
/// can replay the identical guard arithmetic lane-wide.
constexpr double kGuardScale = 1.0 - 1e-10;
constexpr double kGuardShift = 1e-12;
double guard_down(double bound) {  // lint: no-ensure (total)
  return bound * kGuardScale - kGuardShift;
}

/// Elkan-style half-separations: s_half[c] conservatively under-estimates
/// half the distance from centroid c to its nearest other centroid. Any
/// point whose distance to its assigned centroid is below that radius is
/// provably closer to it than to every other centroid (triangle
/// inequality), with no per-point bound needed. O(k^2 * dim) per iteration —
/// noise next to the O(n) passes for the macro-clustering panels (k <= a few
/// dozen). k == 1 leaves s_half[0] = +inf (the only centroid always wins);
/// coincident centroids leave a slightly negative guard that never fires.
void half_separation(const PointSet& centroids, double* s_half) {
  const std::size_t k = centroids.size();
  for (std::size_t c = 0; c < k; ++c) {
    double min_sq = std::numeric_limits<double>::infinity();
    for (std::size_t other = 0; other < k; ++other) {
      if (other == c) continue;
      min_sq = std::min(min_sq, centroids.distance_squared(c, centroids.row(other)));
    }
    s_half[c] = guard_down(0.5 * std::sqrt(min_sq));
  }
}

/// One bounded assignment+objective pass (Hamerly bounds tightened with the
/// Elkan half-separations).
///
/// Invariant on entry: lower[i] is a conservative lower bound on the
/// distance (not squared) from point i to every centroid *other than*
/// assignment[i], as of the pre-update centroid positions. delta_max is an
/// upper bound on how far any centroid moved in the update step,
/// delta_second on how far any centroid other than `moved_most` moved — so
/// a point assigned to the farthest-moving centroid only pays the
/// second-largest movement against its bound (Hamerly's refinement).
/// s_half[] holds the post-update half-separations from half_separation().
///
/// Each parallel chunk runs three phases. Phase 1 computes the exact squared
/// distance to every point's assigned centroid with one batched SIMD kernel
/// (assigned_distance_batch — bit-identical to distance_squared). Phase 2
/// applies the skip test against z = max(decayed Hamerly bound, assigned
/// centroid's half-separation): d_own < z (proven in shaved squared space)
/// means the assigned centroid is *strictly* closest — nearest2_of would
/// pick the same index and compute the same squared distance — so the
/// k-centroid rescan is skipped; survivors are collected into an arena index
/// span. Phase 3 rescans only the survivors with the batched nearest2
/// kernel (bit-identical to nearest2_of) and scatters assignment and bounds
/// back. Every per-point result is a pure function of the point, so chunk
/// boundaries (thread count) cannot change any output, and best_dist_sq[i]
/// always holds the exact squared distance to the assigned centroid — the
/// sequential weighted objective sum is bit-identical to the scalar
/// objective_of.
double objective_bounded(const WeightedPoints& points, const PointSet& centroids,
                         double* best_dist_sq, std::size_t* assignment, double* lower,
                         const double* s_half, double delta_max, double delta_second,
                         std::size_t moved_most) {
  const std::size_t n = points.positions.size();
  const std::size_t dim = points.positions.dim();
  const std::size_t k = centroids.size();
  const double* base = points.positions.row(0);
  const double* cen = centroids.row(0);
  const simd::Level level = simd::active_level();
  const auto bounded_pass = [&](std::size_t begin, std::size_t end) {
    const std::size_t chunk = end - begin;
    // Phase 1: exact d_own^2 for the whole chunk, written straight into
    // best_dist_sq (skipped points keep it; survivors get overwritten by
    // the rescan with the identical bits the full scan computes).
    simd::assigned_distance_batch(base + begin * dim, dim, nullptr, chunk, cen,
                                  assignment + begin, best_dist_sq + begin, level);
    // Phase 2: batched skip tests (the squared-space predicate
    // d_own^2 < guard(z^2) with z = max(decayed Hamerly bound, Elkan
    // radius) — see hamerly_skip_batch for the full derivation, which
    // this kernel replays op for op). Skipped lanes get their lower
    // bound refreshed in place; survivor indices (absolute, via
    // base_index = begin) go to the arena.
    ArenaScope scope;
    std::size_t* survivors = scope.span<std::size_t>(chunk);
    const std::size_t pending = simd::hamerly_skip_batch(
        chunk, assignment + begin, best_dist_sq + begin, lower + begin, s_half,
        delta_max, delta_second, moved_most, kGuardScale, kGuardShift, begin, survivors,
        level);
    // Phase 3: batched full rescan of the survivors.
    std::size_t* out_assign = scope.span<std::size_t>(pending);
    double* out_best = scope.span<double>(pending);
    double* out_second = scope.span<double>(pending);
    simd::nearest2_batch(base, dim, survivors, pending, cen, k, out_assign, out_best,
                         out_second, level);
    for (std::size_t j = 0; j < pending; ++j) {
      const std::size_t i = survivors[j];
      assignment[i] = out_assign[j];
      best_dist_sq[i] = out_best[j];
      lower[i] = guard_down(std::sqrt(out_second[j]));
    }
  };
  parallel_for(n, std::ref(bounded_pass), kMinParallelPoints);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += points.weights[i] * best_dist_sq[i];
  return total;
}

/// Fixed block size for the deterministic parallel update step below. Block
/// boundaries depend only on n — never on the thread count — so the
/// cluster-major member order they produce is thread-count invariant.
constexpr std::size_t kAccumulateGrain = 65536;

/// Deterministic parallel accumulation of per-cluster weighted sums: a
/// cluster-major counting sort. The sequential update loop visits points in
/// ascending index order, so each cluster's FP accumulation sequence is
/// "its members, ascending". This reproduces exactly that sequence in
/// parallel: per-block member counts (parallel), exclusive prefix offsets
/// (sequential, O(blocks * k)), a scatter building `order` — cluster
/// segments with ascending point indices inside each (parallel, each block
/// owns its offset row) — then one parallel_for over clusters summing each
/// segment in order. Per-cluster adds happen in the identical order at any
/// thread count, so sums and cluster_weight are bit-identical to the
/// sequential loop.
void accumulate_clusters_parallel(const WeightedPoints& points, const std::size_t* assignment,
                                  std::size_t k, double* sums, double* cluster_weight,
                                  std::size_t* counts, std::size_t* order,
                                  std::size_t* start) {
  const std::size_t n = points.positions.size();
  const std::size_t dim = points.positions.dim();
  const std::size_t blocks = (n + kAccumulateGrain - 1) / kAccumulateGrain;
  parallel_for(
      blocks,
      [&](std::size_t bb, std::size_t be) {
        for (std::size_t b = bb; b < be; ++b) {
          std::size_t* cnt = counts + b * k;
          std::fill(cnt, cnt + k, 0);
          const std::size_t lo = b * kAccumulateGrain;
          const std::size_t hi = std::min(n, lo + kAccumulateGrain);
          for (std::size_t i = lo; i < hi; ++i) ++cnt[assignment[i]];
        }
      },
      1);
  // Exclusive prefix: start[c] is cluster c's segment base in `order`, and
  // each block's counts row becomes its write cursor into that segment.
  std::size_t run = 0;
  for (std::size_t c = 0; c < k; ++c) {
    start[c] = run;
    std::size_t cursor = run;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t block_count = counts[b * k + c];
      counts[b * k + c] = cursor;
      cursor += block_count;
    }
    run = cursor;
  }
  start[k] = run;
  parallel_for(
      blocks,
      [&](std::size_t bb, std::size_t be) {
        for (std::size_t b = bb; b < be; ++b) {
          std::size_t* cursor = counts + b * k;
          const std::size_t lo = b * kAccumulateGrain;
          const std::size_t hi = std::min(n, lo + kAccumulateGrain);
          for (std::size_t i = lo; i < hi; ++i) order[cursor[assignment[i]]++] = i;
        }
      },
      1);
  const double* base = points.positions.row(0);
  const simd::Level level = simd::active_level();
  parallel_for(
      k,
      [&](std::size_t cb, std::size_t ce) {
        for (std::size_t c = cb; c < ce; ++c) {
          double* sum = sums + c * dim;
          std::fill(sum, sum + dim, 0.0);
          cluster_weight[c] = 0.0;
          // Per-cluster-segment shape of the scatter kernel: the segment's
          // members in ascending order, accumulators pinned to cluster c.
          simd::weighted_scatter_add(base, dim, order + start[c], start[c + 1] - start[c],
                                     points.weights.data(), nullptr, sum,
                                     cluster_weight + c, level);
        }
      },
      1);
}

/// Lloyd's algorithm with Hamerly-style bound acceleration; shared by the
/// seeded and warm-start entry points. Exactly reproduces the frozen
/// lloyd_scalar (reference/kmeans_scalar.cpp) — the bounds only decide
/// *whether* a scan can be skipped, never what any retained value is, so
/// centroids, assignment, objective, and iteration count are bit-identical
/// (the KMeansEquivalence suite pins this).
KMeansResult lloyd(const WeightedPoints& points, PointSet centroids,
                   const KMeansConfig& config) {
  const std::size_t n = points.positions.size();
  const std::size_t dim = points.positions.dim();
  const std::size_t k = centroids.size();
  const simd::Level level = simd::active_level();
  double total_weight = 0.0;
  for (const double w : points.weights) total_weight += w;
  std::vector<std::size_t> assignment(n, 0);  // escapes into the result — lint: alloc-ok
  // All remaining scratch is arena-backed: every buffer below is either
  // filled before its first read each iteration or written for all i before
  // the objective pass, so uninitialized spans are safe, and the scope
  // returns the lot when the solve finishes.
  ArenaScope scope;
  double* sums = scope.span<double>(k * dim);
  double* cluster_weight = scope.span<double>(k);
  double* best_dist_sq = scope.span<double>(n);
  // Bound state: per-point lower bound on the distance to the second-closest
  // centroid (Hamerly), per-centroid half-separations (Elkan), and the
  // pre-update centroid positions for the per-iteration movement bound.
  double* lower = scope.span<double>(n);
  double* s_half = scope.span<double>(k);
  double* old_centroids = scope.span<double>(k * dim);
  // Counting-sort scratch for the deterministic parallel update step; only
  // taken when the pool can actually run it in parallel (the sequential
  // update is bit-identical and cheaper on one thread).
  const bool parallel_update =
      n >= kMinParallelPoints && ThreadPool::global().thread_count() > 1;
  const std::size_t blocks = (n + kAccumulateGrain - 1) / kAccumulateGrain;
  std::size_t* counts = parallel_update ? scope.span<std::size_t>(blocks * k) : nullptr;
  std::size_t* order = parallel_update ? scope.span<std::size_t>(n) : nullptr;
  std::size_t* start = parallel_update ? scope.span<std::size_t>(k + 1) : nullptr;
  double prev_objective = std::numeric_limits<double>::infinity();
  std::size_t iterations = 0;
  // As in lloyd_scalar, the end-of-iteration bounded pass already leaves
  // every point assigned to its nearest (post-update) centroid, so the
  // explicit assignment scan only runs once, before the first update.
  bool assignment_current = false;
  for (; iterations < config.max_iterations; ++iterations) {
    // Assignment step: batched full nearest-two scans establish both the
    // assignment and the initial bounds (best_dist_sq is scratch here — the
    // end-of-iteration bounded pass rewrites it for every point).
    if (!assignment_current) {
      const double* base = points.positions.row(0);
      const double* cen = centroids.row(0);
      const auto full_scan = [&](std::size_t begin, std::size_t end) {
        const std::size_t chunk = end - begin;
        ArenaScope chunk_scope;
        double* second_sq = chunk_scope.span<double>(chunk);
        simd::nearest2_batch(base + begin * dim, dim, nullptr, chunk, cen, k,
                             assignment.data() + begin, best_dist_sq + begin, second_sq,
                             level);
        for (std::size_t j = 0; j < chunk; ++j) {
          lower[begin + j] = guard_down(std::sqrt(second_sq[j]));
        }
      };
      parallel_for(n, std::ref(full_scan), kMinParallelPoints);
    }
    // Update step: per-cluster accumulation in ascending member order — the
    // exact FP sequence of the lloyd_scalar loop, sequential or counting-
    // sorted parallel (bit-identical either way) — with the pre-update
    // centroids saved for the bounds.
    std::copy(centroids.row(0), centroids.row(0) + k * dim, old_centroids);
    if (parallel_update) {
      accumulate_clusters_parallel(points, assignment.data(), k, sums, cluster_weight,
                                   counts, order, start);
    } else {
      std::fill(sums, sums + k * dim, 0.0);
      std::fill(cluster_weight, cluster_weight + k, 0.0);
      if (n > 0) {
        simd::weighted_scatter_add(points.positions.row(0), dim, nullptr, n,
                                   points.weights.data(), assignment.data(), sums,
                                   cluster_weight, level);
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (cluster_weight[c] > 0.0) {
        double* row = centroids.mutable_row(c);
        const double* sum = sums + c * dim;
        for (std::size_t d = 0; d < dim; ++d) row[d] = sum[d] / cluster_weight[c];
      }
      // Empty clusters keep their previous centroid; with good seeding this
      // is rare and self-corrects on the next assignment.
    }
    GEORED_DCHECK(
        [&] {
          double redistributed = 0.0;
          for (std::size_t c = 0; c < k; ++c) redistributed += cluster_weight[c];
          return std::abs(redistributed - total_weight) <=
                 1e-9 * std::max(1.0, total_weight);
        }(),
        "k-means iteration lost or invented point weight");
    GEORED_DCHECK(centroids_finite(centroids, dim),
                  "k-means produced a non-finite centroid");
    // Movement bounds: the farthest and second-farthest any centroid
    // travelled this update, plus which centroid travelled farthest.
    double delta_max = 0.0, delta_second = 0.0;
    std::size_t moved_most = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const double* old_row = old_centroids + c * dim;
      const double* new_row = centroids.row(c);
      double moved_sq = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double diff = new_row[d] - old_row[d];
        moved_sq += diff * diff;
      }
      const double moved = std::sqrt(moved_sq);
      if (moved > delta_max) {
        delta_second = delta_max;
        delta_max = moved;
        moved_most = c;
      } else {
        delta_second = std::max(delta_second, moved);
      }
    }
    half_separation(centroids, s_half);
    const double objective =
        objective_bounded(points, centroids, best_dist_sq, assignment.data(), lower, s_half,
                          delta_max, delta_second, moved_most);
    assignment_current = true;  // now reflects the post-update centroids
    // The isfinite guard keeps the first iteration from "converging" against
    // the infinite sentinel (inf - obj <= tol * inf holds in IEEE arithmetic).
    if (std::isfinite(prev_objective) &&
        prev_objective - objective <= config.tolerance * std::max(1.0, prev_objective)) {
      prev_objective = objective;
      ++iterations;
      break;
    }
    prev_objective = objective;
  }
  if (!assignment_current) {  // max_iterations == 0: no pass has run yet
    prev_objective = objective_of(points, centroids, best_dist_sq, assignment.data());
  }
  return {std::move(centroids), std::move(assignment), prev_objective, iterations};
}

}  // namespace

namespace detail {

KMeansResult weighted_kmeans_impl(const WeightedPoints& points, const KMeansConfig& config,
                                  Rng& rng, LloydFn solve) {
  GEORED_ENSURE(!points.positions.empty(), "k-means requires at least one point");
  GEORED_ENSURE(points.weights.size() == points.positions.size(),
                "k-means needs one weight per point");
  GEORED_ENSURE(config.k >= 1, "k-means requires k >= 1");
  double total_weight = 0.0;
  for (const double weight : points.weights) {
    GEORED_ENSURE(std::isfinite(weight) && weight >= 0.0,
                  "point weights must be finite and non-negative");
    total_weight += weight;
  }
  GEORED_ENSURE(total_weight > 0.0, "k-means requires positive total weight");

  KMeansResult best_result;
  best_result.objective = std::numeric_limits<double>::infinity();

  const std::size_t restarts = std::max<std::size_t>(1, config.restarts);
  for (std::size_t restart = 0; restart < restarts; ++restart) {
    KMeansResult result = solve(points, kmeanspp_seed(points, config.k, rng), config);
    if (result.objective < best_result.objective) best_result = std::move(result);
  }
  return best_result;
}

KMeansResult weighted_kmeans_from_impl(const WeightedPoints& points,
                                       PointSet initial_centroids,
                                       const KMeansConfig& config, LloydFn solve) {
  GEORED_ENSURE(!points.positions.empty(), "k-means requires at least one point");
  GEORED_ENSURE(points.weights.size() == points.positions.size(),
                "k-means needs one weight per point");
  GEORED_ENSURE(!initial_centroids.empty(), "warm start requires initial centroids");
  GEORED_ENSURE(initial_centroids.dim() == points.positions.dim(),
                "centroid dimension mismatch");
  for (const double weight : points.weights) {
    GEORED_ENSURE(std::isfinite(weight) && weight >= 0.0,
                  "point weights must be finite and non-negative");
  }
  return solve(points, std::move(initial_centroids), config);
}

}  // namespace detail

KMeansResult weighted_kmeans(const WeightedPoints& points, const KMeansConfig& config,
                             Rng& rng) {
  return detail::weighted_kmeans_impl(points, config, rng, &lloyd);
}

KMeansResult weighted_kmeans_from(const WeightedPoints& points, PointSet initial_centroids,
                                  const KMeansConfig& config) {
  return detail::weighted_kmeans_from_impl(points, std::move(initial_centroids), config,
                                           &lloyd);
}

}  // namespace geored::cluster
