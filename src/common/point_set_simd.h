// Runtime-dispatched SIMD backends for geored's distance kernels. This is
// the only code that decides which instruction set runs: every other module
// calls these kernels with active_level() (tools/geored_lint.py's
// simd-dispatch rule keeps target attributes, intrinsics headers and CPU
// probes out of the rest of the tree).
//
// The row kernels are the large-n code paths behind PointSet::nearest_of,
// PointSet::distance_row, and PointSet::pairwise_min_distance. Each backend
// processes rows in fixed register blocks (16 rows per iteration on
// AVX-512, 8 on AVX2) with one lane per row: every lane accumulates the
// per-dimension `diff = c[d] - q[d]; total += diff * diff` sequence in
// ascending d, so per-row squared distances are bit-identical to
// PointSet::distance_squared. The argmin is kept vertically in registers
// (mask-blend on a strict `<` compare, so a NaN distance never wins — the
// same NaN-keeps-current behavior as the scalar scan) and reduced at the
// end by taking the minimum lane distance and then the minimum row index
// among the lanes achieving it, which is exactly the scalar strict-`<`
// first-winner. Remainder rows continue the scan on the scalar path from
// the reduced state, preserving index order.
//
// Row blocks are loaded with per-dimension gathers rather than a
// transpose-into-tile staging pass: on the benchmark hardware the scalar
// tile transpose costs more than it saves (the panel is streamed once per
// query, so there is no reuse to block for), while the gathered form with
// look-ahead prefetch measures ~2.3x over the scalar scan at 100k rows
// (see docs/performance.md). The small centroid panels are served by their
// own shapes: nearest_column scans a summarizer's dimension-major centroid
// shadow with plain column loads, and the batched kernels run k-means
// assignment one query per lane. rnp_refit_pass, the RNP embedding's
// descent step, reads a window the refit has already copied into columns,
// so it needs no gathers either.
//
// FP contraction: this header's implementations live in point_set_simd.cpp,
// which is compiled with -ffp-contract=off (see src/common/CMakeLists.txt).
// Unlike target("avx2"), target("avx512f") brings FMA instructions with it,
// so the usual "no FMA in the target set" argument does not apply — the
// compile flag is what keeps `mul` and `add` from being contracted into a
// differently-rounded fused op.
#pragma once

#include <cstddef>
#include <utility>

namespace geored::simd {

/// Instruction-set tiers for the PointSet kernels, in strictly increasing
/// capability order. Dispatch never selects a level the CPU lacks.
enum class Level { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

namespace detail {
/// The out-of-line halves of detected_level() and active_level(): the CPU
/// probe and the GEORED_SIMD parse, each run once per process.
Level probe_detected_level();
Level resolve_active_level();
}  // namespace detail

/// Highest level the running CPU supports (cached cpuid probe).
inline Level detected_level() {
  static const Level level = detail::probe_detected_level();
  return level;
}

/// The level every SIMD kernel in geored dispatches to, micro-cluster ingest
/// included: detected_level(), optionally lowered by the GEORED_SIMD
/// environment variable ("scalar", "avx2", "avx512" — values above the
/// detected level are clamped down). Read once; cached for the process
/// lifetime. Any other non-empty value throws std::invalid_argument naming
/// the accepted set, so a misspelled override cannot silently run the
/// detected level. Inline, like detected_level(), because micro-cluster
/// ingest asks once per access: the cached read must not cost a call.
inline Level active_level() {
  static const Level level = detail::resolve_active_level();
  return level;
}

/// Stable lowercase name ("scalar" / "avx2" / "avx512") for reports.
const char* level_name(Level level);

/// Below this many rows a scan stays on PointSet's inline scalar loop: the
/// kernel-call and horizontal-reduction overhead would dominate, and the
/// small-n consumers (k-means centroid panels, the summarizer's merge scan)
/// are latency-critical paths.
inline constexpr std::size_t kMinSimdRows = 32;

/// Strict-`<` first-winner argmin of squared distances from `query` to the
/// n×dim row-major rows at `data`; the winning squared distance is written
/// to *best_dist_sq (never null). Requires n >= 1. Bit-identical to the
/// scalar PointSet::nearest_of scan at every level.
std::size_t nearest_row(const double* data, std::size_t n, std::size_t dim,
                        const double* query, double* best_dist_sq, Level level);

/// nearest_row over a dimension-major panel: component d of row i sits at
/// tcols[d * stride + i] (each row is a column of the panel). This is the
/// micro-cluster ingest scan (cluster/MomentStore keeps its centroids in
/// this layout), so it has no small-n cutoff: the vector body runs one row
/// per lane in 8-row blocks from n = 1, and masked loads keep it from
/// reading rows at or past n. Same contract as nearest_row — per-row
/// squared distances summed in ascending d, strict-`<` first winner, a NaN
/// distance never wins — and bit-identical to the scalar scan at every
/// level. Requires n >= 1 and stride >= n.
std::size_t nearest_column(const double* tcols, std::size_t stride, std::size_t n,
                           std::size_t dim, const double* query, double* best_dist_sq,
                           Level level);

/// Euclidean distance from `query` to every row, written to out[0..n).
/// vsqrtpd is correctly rounded, so results are bit-identical to
/// std::sqrt(distance_squared) at every level.
void distance_row(const double* data, std::size_t n, std::size_t dim, const double* query,
                  double* out, Level level);

/// Widest point dimensionality the batched query-side kernels below keep in
/// registers (one __m512d/__m256d per dimension, loaded once per block and
/// reused across the whole centroid panel). Wider inputs fall back to the
/// scalar path inside the kernels, which stays bit-identical.
inline constexpr std::size_t kMaxBatchDim = 16;
/// Below this many queries a batched call stays scalar: a block's gather
/// setup needs a few lanes' worth of work to pay for itself.
inline constexpr std::size_t kMinBatchQueries = 16;

/// Batched nearest-two scan: the transpose of nearest_row. Where nearest_row
/// runs one query against many rows (lane-per-row), this runs many query
/// points against one small k×dim `centroids` panel, one *query* per lane —
/// the k-means assignment shape, where k sits far below kMinSimdRows and
/// row-blocked kernels have nothing to vectorize over.
///
/// For each j in [0, count), the query is row `indices[j]` of `points`
/// (identity when indices is null, i.e. row j). Writes the strict-`<`
/// first-winner centroid index to out_assign[j] and the best / second-best
/// squared distances to out_best_sq[j] / out_second_sq[j] (infinity when
/// k == 1). Per-lane arithmetic follows the exact per-dimension
/// subtract/multiply/add sequence of PointSet::nearest2_of in ascending
/// centroid order, so every output is bit-identical to the scalar scan at
/// every level. Requires k >= 1.
void nearest2_batch(const double* points, std::size_t dim, const std::size_t* indices,
                    std::size_t count, const double* centroids, std::size_t k,
                    std::size_t* out_assign, double* out_best_sq, double* out_second_sq,
                    Level level);

/// Batched assigned-centroid distances: out_dist_sq[j] is the squared
/// distance from query j (row indices[j] of `points`, identity when null)
/// to centroid row assign[j] — the Hamerly/Elkan skip-test distance,
/// computed for a whole chunk at once. Same operation order as
/// PointSet::distance_squared, so bit-identical at every level.
void assigned_distance_batch(const double* points, std::size_t dim,
                             const std::size_t* indices, std::size_t count,
                             const double* centroids, const std::size_t* assign,
                             double* out_dist_sq, Level level);

/// Batched Hamerly/Elkan skip tests — the Phase-2 predicate loop of the
/// bounded k-means objective pass, one query per lane. With
/// guard(x) = x * guard_scale - guard_shift (the caller's conservative
/// downward FP shave), each j in [0, count) evaluates
///   moved = assign[j] == moved_most ? delta_second : delta_max
///   lb    = guard(lower[j] - moved)      (decayed Hamerly bound)
///   s     = s_half[assign[j]]            (Elkan half-separation)
///   z     = lb >= s ? lb : s
/// A lane with z > 0 and best_dist_sq[j] < guard(z*z) is *skipped*:
/// lower[j] becomes lb when lb >= s, else
/// max(lb, guard(2*s - sqrt(best_dist_sq[j]))). Every other lane appends
/// base_index + j to `survivors` (ascending). Returns the survivor count.
/// The vector form replays the scalar arithmetic op for op (vsqrtpd is
/// correctly rounded, selects are blends on the same compares), so skip
/// decisions, updated bounds, and survivor order are bit-identical at every
/// level.
std::size_t hamerly_skip_batch(std::size_t count, const std::size_t* assign,
                               const double* best_dist_sq, double* lower,
                               const double* s_half, double delta_max, double delta_second,
                               std::size_t moved_most, double guard_scale,
                               double guard_shift, std::size_t base_index,
                               std::size_t* survivors, Level level);

/// Weighted scatter-accumulation, dimension-lane vectorized: for each j in
/// ascending order, with i = indices ? indices[j] : j and
/// c = assign ? assign[i] : 0,
///   sums[c*dim + d] += points[i*dim + d] * weights[i]   for d in [0, dim)
///   cluster_weight[c] += weights[i]
/// Lanes vectorize across d, never across j, so every (c, d) accumulator
/// sees the same additions in the same order as the scalar loop — sums and
/// cluster_weight are bit-identical at every level. This is the k-means
/// update-step accumulation in both shapes: the sequential full-pass form
/// (assign = the assignment array) and the per-cluster-segment form of the
/// deterministic parallel update (assign == nullptr with sums /
/// cluster_weight pointing at a single cluster's slots).
void weighted_scatter_add(const double* points, std::size_t dim, const std::size_t* indices,
                          std::size_t count, const double* weights,
                          const std::size_t* assign, double* sums, double* cluster_weight,
                          Level level);

/// An RNP refit window in the layout rnp_refit_pass reads: n samples,
/// oldest first, copied once per refit so that no pass needs a gather.
/// Sample s is the peer position at columns[d * n + s] (one contiguous
/// column per dimension, read one sample per lane) and, again, at
/// rows[s * dim + d] (one row per sample, read one dimension per lane);
/// its peer height, RTT, RTT squared (rtts[s] * rtts[s]) and weight sit at
/// index s of the other arrays.
struct RefitWindow {
  std::size_t n = 0;
  std::size_t dim = 0;
  const double* columns = nullptr;
  const double* rows = nullptr;
  const double* heights = nullptr;
  const double* rtts = nullptr;
  const double* rtt_squared = nullptr;
  const double* weights = nullptr;
};

/// Widest dimensionality the vector arm of rnp_refit_pass keeps the
/// gradient of in registers (one lane per component); wider windows run the
/// scalar arm, which is bit-identical. The vector arm is AVX2, at both
/// kAvx2 and kAvx512.
inline constexpr std::size_t kMaxRefitDim = 8;

/// One fused evaluation of the RNP refit objective, and optionally its
/// gradient, at (position, height). Per sample s, with
///   spatial = sqrt(sum_d (x_s[d] - position[d])^2)      (ascending d)
///   pred    = spatial + (use_height ? height + heights[s] : 0.0)
///   rel     = (pred - rtt) / rtt
///   coeff   = weights[s] * 2.0 * (pred - rtt) / rtt_squared[s]
/// it returns the sum of weights[s] * rel * rel. When `grad` is non-null it
/// also writes grad[i] = sum of (position[i] - x_s[i]) * (coeff / spatial)
/// over the samples with spatial > 1e-9, and *grad_h = sum of coeff when
/// use_height (else 0.0). Every product and quotient keeps that operand
/// order, and every sum runs oldest sample first in its own scalar
/// accumulator or vector lane (vectors run across samples for the
/// per-sample values and across dimensions for the gradient, never across
/// the terms of one sum), so the results are bit-identical at every level.
/// Requires n >= 1.
double rnp_refit_pass(const RefitWindow& window, const double* position, double height,
                      bool use_height, double* grad, double* grad_h, Level level);

}  // namespace geored::simd
