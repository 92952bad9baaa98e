// SIMD backends for the PointSet kernels — see point_set_simd.h for the
// design notes and docs/performance.md for the bit-identity argument.
//
// This translation unit is compiled with -ffp-contract=off (set in
// src/common/CMakeLists.txt): target("avx512f") makes FMA instructions
// available to the compiler, and a contracted multiply-add rounds once
// instead of twice, which would break the bit-identity contract. The AVX2
// paths do not strictly need the flag (the target set excludes FMA), but it
// keeps the whole file under one rule.
#include "common/point_set_simd.h"

#include "common/ensure.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace geored::simd {

namespace {

/// Scalar tail shared by every backend: continues the strict-`<`
/// first-winner scan from row `begin` with the running (best, best_dist)
/// state produced by the vector reduction. Also the whole kScalar backend
/// (begin = 0, best = 0, best_dist = +inf).
std::size_t nearest_tail(const double* data, std::size_t n, std::size_t dim,
                         const double* query, std::size_t begin, std::size_t best,
                         double best_dist, double* best_dist_sq) {
  for (std::size_t i = begin; i < n; ++i) {
    const double* r = data + i * dim;
    double total = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = r[d] - query[d];
      total += diff * diff;
    }
    const bool better = total < best_dist;
    best = better ? i : best;
    best_dist = better ? total : best_dist;
  }
  *best_dist_sq = best_dist;
  return best;
}

/// Scalar form of nearest2_batch, shared as the kScalar backend, the
/// sub-block tail of the vector backends, and the wide-dim fallback. The
/// inner scan is PointSet::nearest2_of verbatim (branchless strict-`<`
/// selects in ascending centroid order).
void nearest2_batch_tail(const double* points, std::size_t dim, const std::size_t* indices,
                         std::size_t count, const double* centroids, std::size_t k,
                         std::size_t* out_assign, double* out_best_sq, double* out_second_sq,
                         std::size_t begin) {
  for (std::size_t j = begin; j < count; ++j) {
    const double* q = points + (indices != nullptr ? indices[j] : j) * dim;
    std::size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    double second_dist = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      const double* r = centroids + c * dim;
      double dist = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double diff = r[d] - q[d];
        dist += diff * diff;
      }
      const bool better = dist < best_dist;
      const bool runner_up = dist < second_dist;
      second_dist = better ? best_dist : (runner_up ? dist : second_dist);
      best_dist = better ? dist : best_dist;
      best = better ? c : best;
    }
    out_assign[j] = best;
    out_best_sq[j] = best_dist;
    out_second_sq[j] = second_dist;
  }
}

/// Scalar form of assigned_distance_batch (kScalar backend, vector tails,
/// wide-dim fallback): PointSet::distance_squared against the assigned
/// centroid row, per query.
void assigned_distance_tail(const double* points, std::size_t dim, const std::size_t* indices,
                            std::size_t count, const double* centroids,
                            const std::size_t* assign, double* out_dist_sq,
                            std::size_t begin) {
  for (std::size_t j = begin; j < count; ++j) {
    const double* q = points + (indices != nullptr ? indices[j] : j) * dim;
    const double* r = centroids + assign[j] * dim;
    double dist = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = r[d] - q[d];
      dist += diff * diff;
    }
    out_dist_sq[j] = dist;
  }
}

/// kScalar backend of nearest_column: nearest_tail's scan with each row
/// read down its column of the dimension-major panel.
std::size_t nearest_column_scalar(const double* tcols, std::size_t stride, std::size_t n,
                                  std::size_t dim, const double* query, double* best_dist_sq) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    double total = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = tcols[d * stride + i] - query[d];
      total += diff * diff;
    }
    const bool better = total < best_dist;
    best = better ? i : best;
    best_dist = better ? total : best_dist;
  }
  *best_dist_sq = best_dist;
  return best;
}

void distance_tail(const double* data, std::size_t n, std::size_t dim, const double* query,
                   double* out, std::size_t begin) {
  for (std::size_t i = begin; i < n; ++i) {
    const double* r = data + i * dim;
    double total = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = r[d] - query[d];
      total += diff * diff;
    }
    out[i] = std::sqrt(total);
  }
}

/// Scalar form of hamerly_skip_batch (kScalar backend and vector tail):
/// the reference predicate the vector kernel replays op for op. Resumes
/// from query `begin` with `pending` survivors already written.
std::size_t hamerly_skip_tail(std::size_t count, const std::size_t* assign,
                              const double* best_dist_sq, double* lower, const double* s_half,
                              double delta_max, double delta_second, std::size_t moved_most,
                              double guard_scale, double guard_shift, std::size_t base_index,
                              std::size_t* survivors, std::size_t begin, std::size_t pending) {
  for (std::size_t j = begin; j < count; ++j) {
    const std::size_t a = assign[j];
    const double moved = a == moved_most ? delta_second : delta_max;
    const double lb = (lower[j] - moved) * guard_scale - guard_shift;
    const double s = s_half[a];
    const double z = lb >= s ? lb : s;
    if (z > 0.0 && best_dist_sq[j] < z * z * guard_scale - guard_shift) {
      const double elkan =
          (2.0 * s - std::sqrt(best_dist_sq[j])) * guard_scale - guard_shift;
      lower[j] = lb >= s ? lb : std::max(lb, elkan);
      continue;
    }
    survivors[pending++] = base_index + j;
  }
  return pending;
}

/// Scalar form of weighted_scatter_add (kScalar backend and the narrow-dim
/// fallback): the per-(c, d) accumulation order the vector kernel preserves.
void weighted_scatter_add_tail(const double* points, std::size_t dim,
                               const std::size_t* indices, std::size_t count,
                               const double* weights, const std::size_t* assign, double* sums,
                               double* cluster_weight) {
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t i = indices != nullptr ? indices[j] : j;
    const std::size_t c = assign != nullptr ? assign[i] : 0;
    const double w = weights[i];
    const double* p = points + i * dim;
    double* sum = sums + c * dim;
    for (std::size_t d = 0; d < dim; ++d) sum[d] += p[d] * w;
    cluster_weight[c] += w;
  }
}

#if defined(__x86_64__)

/// Rows the vector loop looks ahead when prefetching: far enough to cover
/// the memory latency of one 16-row block at typical dimensions, close
/// enough not to thrash tiny scans. Prefetch is a hint — never a result.
constexpr std::size_t kPrefetchRowsAhead = 64;

/// Horizontal reduction shared by the argmin backends: the global minimum
/// over the lane minima, then the minimum row index among lanes achieving
/// it. Lane minima are never NaN (a NaN distance loses every strict-`<`
/// blend), so the scan below needs no unordered handling. When no lane ever
/// won (n < one block, or every distance NaN/inf) every lane still holds
/// +inf with its initial index, and the minimum initial index is 0 — the
/// same (best = 0, best_dist = +inf) state the scalar scan starts from.
std::size_t reduce_lanes(const double* dists, const long long* idxs, std::size_t lanes,
                         double* best_dist) {
  double m = dists[0];
  for (std::size_t l = 1; l < lanes; ++l) m = dists[l] < m ? dists[l] : m;
  long long best = -1;
  for (std::size_t l = 0; l < lanes; ++l) {
    if (dists[l] == m && (best < 0 || idxs[l] < best)) best = idxs[l];
  }
  if (best < 0) {  // all-NaN lanes cannot happen, but keep the reduction total
    *best_dist = std::numeric_limits<double>::infinity();
    return 0;
  }
  *best_dist = m;
  return static_cast<std::size_t>(best);
}

__attribute__((target("avx512f"))) std::size_t nearest_avx512(const double* data,
                                                              std::size_t n, std::size_t dim,
                                                              const double* query,
                                                              double* best_dist_sq) {
  const __m512d inf = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  __m512d best0 = inf, best1 = inf;
  __m512i idx0 = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  __m512i idx1 = _mm512_setr_epi64(8, 9, 10, 11, 12, 13, 14, 15);
  __m512i rows0 = idx0, rows1 = idx1;
  const __m512i step = _mm512_set1_epi64(16);
  const auto d1 = static_cast<long long>(dim);
  const __m512i lane_off =
      _mm512_setr_epi64(0, d1, 2 * d1, 3 * d1, 4 * d1, 5 * d1, 6 * d1, 7 * d1);
  // Full-mask gathers: the unmasked intrinsic leaves its source operand
  // formally undefined (GCC warns under -Werror); the masked form with an
  // all-ones mask emits the identical vgatherqpd.
  const __m512d zero = _mm512_setzero_pd();
  const __mmask8 kFull = static_cast<__mmask8>(0xff);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const char* ahead = reinterpret_cast<const char*>(data + (i + kPrefetchRowsAhead) * dim);
    _mm_prefetch(ahead, _MM_HINT_T0);
    _mm_prefetch(ahead + 64, _MM_HINT_T0);
    _mm_prefetch(ahead + 128, _MM_HINT_T0);
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    const __m512i off0 =
        _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(i * dim)), lane_off);
    const __m512i off1 = _mm512_add_epi64(off0, _mm512_set1_epi64(8 * d1));
    for (std::size_t d = 0; d < dim; ++d) {
      const __m512i dd = _mm512_set1_epi64(static_cast<long long>(d));
      const __m512d c0 = _mm512_mask_i64gather_pd(zero, kFull, _mm512_add_epi64(off0, dd), data, 8);
      const __m512d c1 = _mm512_mask_i64gather_pd(zero, kFull, _mm512_add_epi64(off1, dd), data, 8);
      const __m512d qd = _mm512_set1_pd(query[d]);
      const __m512d f0 = _mm512_sub_pd(c0, qd);
      const __m512d f1 = _mm512_sub_pd(c1, qd);
      acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(f0, f0));
      acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(f1, f1));
    }
    const __mmask8 lt0 = _mm512_cmp_pd_mask(acc0, best0, _CMP_LT_OQ);
    best0 = _mm512_mask_mov_pd(best0, lt0, acc0);
    idx0 = _mm512_mask_mov_epi64(idx0, lt0, rows0);
    const __mmask8 lt1 = _mm512_cmp_pd_mask(acc1, best1, _CMP_LT_OQ);
    best1 = _mm512_mask_mov_pd(best1, lt1, acc1);
    idx1 = _mm512_mask_mov_epi64(idx1, lt1, rows1);
    rows0 = _mm512_add_epi64(rows0, step);
    rows1 = _mm512_add_epi64(rows1, step);
  }
  double dists[16];
  long long idxs[16];
  _mm512_storeu_pd(dists, best0);
  _mm512_storeu_pd(dists + 8, best1);
  _mm512_storeu_si512(idxs, idx0);
  _mm512_storeu_si512(idxs + 8, idx1);
  double best_dist = 0.0;
  const std::size_t best = reduce_lanes(dists, idxs, 16, &best_dist);
  return nearest_tail(data, n, dim, query, i, best, best_dist, best_dist_sq);
}

__attribute__((target("avx2"))) std::size_t nearest_avx2(const double* data, std::size_t n,
                                                         std::size_t dim, const double* query,
                                                         double* best_dist_sq) {
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d best0 = inf, best1 = inf;
  // Row indices ride in double lanes (exact through 2^53 — far beyond any
  // PointSet) so the compare mask can blend them with the same instruction
  // as the distances.
  __m256d idx0 = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  __m256d idx1 = _mm256_setr_pd(4.0, 5.0, 6.0, 7.0);
  __m256d rows0 = idx0, rows1 = idx1;
  const __m256d step = _mm256_set1_pd(8.0);
  const auto d1 = static_cast<long long>(dim);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const char* ahead = reinterpret_cast<const char*>(data + (i + kPrefetchRowsAhead) * dim);
    _mm_prefetch(ahead, _MM_HINT_T0);
    _mm_prefetch(ahead + 64, _MM_HINT_T0);
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    const long long base = static_cast<long long>(i * dim);
    const __m256i off0 = _mm256_set_epi64x(base + 3 * d1, base + 2 * d1, base + d1, base);
    const __m256i off1 = _mm256_add_epi64(off0, _mm256_set1_epi64x(4 * d1));
    for (std::size_t d = 0; d < dim; ++d) {
      const __m256i dd = _mm256_set1_epi64x(static_cast<long long>(d));
      const __m256d c0 = _mm256_i64gather_pd(data, _mm256_add_epi64(off0, dd), 8);
      const __m256d c1 = _mm256_i64gather_pd(data, _mm256_add_epi64(off1, dd), 8);
      const __m256d qd = _mm256_set1_pd(query[d]);
      const __m256d f0 = _mm256_sub_pd(c0, qd);
      const __m256d f1 = _mm256_sub_pd(c1, qd);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(f0, f0));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(f1, f1));
    }
    const __m256d lt0 = _mm256_cmp_pd(acc0, best0, _CMP_LT_OQ);
    best0 = _mm256_blendv_pd(best0, acc0, lt0);
    idx0 = _mm256_blendv_pd(idx0, rows0, lt0);
    const __m256d lt1 = _mm256_cmp_pd(acc1, best1, _CMP_LT_OQ);
    best1 = _mm256_blendv_pd(best1, acc1, lt1);
    idx1 = _mm256_blendv_pd(idx1, rows1, lt1);
    rows0 = _mm256_add_pd(rows0, step);
    rows1 = _mm256_add_pd(rows1, step);
  }
  double dists[8], idx_lanes[8];
  _mm256_storeu_pd(dists, best0);
  _mm256_storeu_pd(dists + 4, best1);
  _mm256_storeu_pd(idx_lanes, idx0);
  _mm256_storeu_pd(idx_lanes + 4, idx1);
  long long idxs[8];
  for (int l = 0; l < 8; ++l) idxs[l] = static_cast<long long>(idx_lanes[l]);
  double best_dist = 0.0;
  const std::size_t best = reduce_lanes(dists, idxs, 8, &best_dist);
  return nearest_tail(data, n, dim, query, i, best, best_dist, best_dist_sq);
}

__attribute__((target("avx512f"))) void distances_avx512(const double* data, std::size_t n,
                                                         std::size_t dim, const double* query,
                                                         double* out) {
  const auto d1 = static_cast<long long>(dim);
  const __m512i lane_off =
      _mm512_setr_epi64(0, d1, 2 * d1, 3 * d1, 4 * d1, 5 * d1, 6 * d1, 7 * d1);
  // Full-mask gathers: the unmasked intrinsic leaves its source operand
  // formally undefined (GCC warns under -Werror); the masked form with an
  // all-ones mask emits the identical vgatherqpd.
  const __m512d zero = _mm512_setzero_pd();
  const __mmask8 kFull = static_cast<__mmask8>(0xff);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const char* ahead = reinterpret_cast<const char*>(data + (i + kPrefetchRowsAhead) * dim);
    _mm_prefetch(ahead, _MM_HINT_T0);
    _mm_prefetch(ahead + 64, _MM_HINT_T0);
    _mm_prefetch(ahead + 128, _MM_HINT_T0);
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    const __m512i off0 =
        _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(i * dim)), lane_off);
    const __m512i off1 = _mm512_add_epi64(off0, _mm512_set1_epi64(8 * d1));
    for (std::size_t d = 0; d < dim; ++d) {
      const __m512i dd = _mm512_set1_epi64(static_cast<long long>(d));
      const __m512d c0 = _mm512_mask_i64gather_pd(zero, kFull, _mm512_add_epi64(off0, dd), data, 8);
      const __m512d c1 = _mm512_mask_i64gather_pd(zero, kFull, _mm512_add_epi64(off1, dd), data, 8);
      const __m512d qd = _mm512_set1_pd(query[d]);
      const __m512d f0 = _mm512_sub_pd(c0, qd);
      const __m512d f1 = _mm512_sub_pd(c1, qd);
      acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(f0, f0));
      acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(f1, f1));
    }
    _mm512_storeu_pd(out + i, _mm512_mask_sqrt_pd(zero, kFull, acc0));
    _mm512_storeu_pd(out + i + 8, _mm512_mask_sqrt_pd(zero, kFull, acc1));
  }
  distance_tail(data, n, dim, query, out, i);
}

__attribute__((target("avx2"))) void distances_avx2(const double* data, std::size_t n,
                                                    std::size_t dim, const double* query,
                                                    double* out) {
  const auto d1 = static_cast<long long>(dim);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const char* ahead = reinterpret_cast<const char*>(data + (i + kPrefetchRowsAhead) * dim);
    _mm_prefetch(ahead, _MM_HINT_T0);
    _mm_prefetch(ahead + 64, _MM_HINT_T0);
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    const long long base = static_cast<long long>(i * dim);
    const __m256i off0 = _mm256_set_epi64x(base + 3 * d1, base + 2 * d1, base + d1, base);
    const __m256i off1 = _mm256_add_epi64(off0, _mm256_set1_epi64x(4 * d1));
    for (std::size_t d = 0; d < dim; ++d) {
      const __m256i dd = _mm256_set1_epi64x(static_cast<long long>(d));
      const __m256d c0 = _mm256_i64gather_pd(data, _mm256_add_epi64(off0, dd), 8);
      const __m256d c1 = _mm256_i64gather_pd(data, _mm256_add_epi64(off1, dd), 8);
      const __m256d qd = _mm256_set1_pd(query[d]);
      const __m256d f0 = _mm256_sub_pd(c0, qd);
      const __m256d f1 = _mm256_sub_pd(c1, qd);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(f0, f0));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(f1, f1));
    }
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(acc0));
    _mm256_storeu_pd(out + i + 4, _mm256_sqrt_pd(acc1));
  }
  distance_tail(data, n, dim, query, out, i);
}

/// nearest_column at kAvx2 and kAvx512 (the panel is a few L1-resident
/// columns, so the 256-bit body is the whole story — see nearest2_batch for
/// the frequency argument). One row per lane, 8-row blocks: a column of the
/// panel is contiguous, so a block is two plain loads per dimension, no
/// gather. Each block is reduced in registers — horizontal min, then the
/// first lane holding it, which is the block's strict-`<` first winner — and
/// replaces the running best only when strictly smaller, so the result is
/// the scalar scan's. A NaN distance can never win that scan, and neither
/// can +inf, so NaN lanes are pinned to +inf before the reduction (behind a
/// branch finite inputs never take, keeping it off the per-access
/// dependency chain): that changes no result and keeps the min reduction
/// exact. A block whose minimum is +inf leaves the scan in its initial
/// state (row 0, +inf), as in the scalar scan.
__attribute__((target("avx2"))) std::size_t nearest_column_avx2(const double* tcols,
                                                                std::size_t stride,
                                                                std::size_t n, std::size_t dim,
                                                                const double* query,
                                                                double* best_dist_sq) {
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; i += 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    if (n - i >= 8) {
      for (std::size_t d = 0; d < dim; ++d) {
        const double* col = tcols + d * stride + i;
        const __m256d qd = _mm256_set1_pd(query[d]);
        const __m256d f0 = _mm256_sub_pd(_mm256_loadu_pd(col), qd);
        const __m256d f1 = _mm256_sub_pd(_mm256_loadu_pd(col + 4), qd);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(f0, f0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(f1, f1));
      }
    } else {
      // The partial last block: masked loads read nothing at or past row n
      // (the panel only promises stride >= n), and the dead lanes are
      // pinned to +inf so they never win.
      const __m256d left = _mm256_set1_pd(static_cast<double>(n - i));
      const __m256d lanes0 = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
      const __m256d lanes1 = _mm256_setr_pd(4.0, 5.0, 6.0, 7.0);
      const __m256d live0 = _mm256_cmp_pd(lanes0, left, _CMP_LT_OQ);
      const __m256d live1 = _mm256_cmp_pd(lanes1, left, _CMP_LT_OQ);
      const __m256i mask0 = _mm256_castpd_si256(live0);
      const __m256i mask1 = _mm256_castpd_si256(live1);
      for (std::size_t d = 0; d < dim; ++d) {
        const double* col = tcols + d * stride + i;
        const __m256d qd = _mm256_set1_pd(query[d]);
        const __m256d f0 = _mm256_sub_pd(_mm256_maskload_pd(col, mask0), qd);
        const __m256d f1 = _mm256_sub_pd(_mm256_maskload_pd(col + 4, mask1), qd);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(f0, f0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(f1, f1));
      }
      acc0 = _mm256_blendv_pd(inf, acc0, live0);
      acc1 = _mm256_blendv_pd(inf, acc1, live1);
    }
    const __m256d nan0 = _mm256_cmp_pd(acc0, acc0, _CMP_UNORD_Q);
    const __m256d nan1 = _mm256_cmp_pd(acc1, acc1, _CMP_UNORD_Q);
    if (_mm256_movemask_pd(_mm256_or_pd(nan0, nan1)) != 0) {
      acc0 = _mm256_blendv_pd(acc0, inf, nan0);
      acc1 = _mm256_blendv_pd(acc1, inf, nan1);
    }
    // Block minimum, broadcast to every lane.
    __m256d m = _mm256_min_pd(acc0, acc1);
    m = _mm256_min_pd(m, _mm256_permute2f128_pd(m, m, 1));
    m = _mm256_min_pd(m, _mm256_shuffle_pd(m, m, 0b0101));
    const double block_min = _mm256_cvtsd_f64(m);
    if (block_min < best_dist) {
      // NaN-free lanes, so some lane equals the minimum: the first set bit
      // is the lowest row achieving it.
      const int eq = _mm256_movemask_pd(_mm256_cmp_pd(acc0, m, _CMP_EQ_OQ)) |
                     (_mm256_movemask_pd(_mm256_cmp_pd(acc1, m, _CMP_EQ_OQ)) << 4);
      best = i + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(eq)));
      best_dist = block_min;
    }
  }
  *best_dist_sq = best_dist;
  return best;
}

// --- Batched query-side backends (lane-per-query, see point_set_simd.h) ---
//
// Query coordinates are transposed once per 4-point block into one register
// per dimension and reused across the whole centroid panel; centroid
// coordinates are scalar broadcasts (the panel is L1-resident and shared by
// every lane). The transpose works from four row *pointers* — contiguous
// rows and index-resolved rows cost the same — with plain loads and
// shuffles: gathers measured several times slower here (virtualized server
// parts run vgatherqpd microcoded), and the unpack/permute form needs no
// 64-bit vector multiply (absent from the avx2 target set) for the offsets.

/// Transposes rows r0..r3 into coords[d] = {r0[d], r1[d], r2[d], r3[d]} for
/// d in [0, dim). Full 4-column sub-blocks use the unpack/permute2f128
/// double transpose (8 shuffles per 4 dims); leftover dimensions are built
/// with scalar inserts. Reads stay strictly inside each row: the 4-wide
/// loads only issue where d + 4 <= dim.
__attribute__((target("avx2"))) inline void transpose4_rows(const double* r0, const double* r1,
                                                            const double* r2, const double* r3,
                                                            std::size_t dim,
                                                            __m256d* coords) {
  std::size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    const __m256d a = _mm256_loadu_pd(r0 + d);
    const __m256d b = _mm256_loadu_pd(r1 + d);
    const __m256d c = _mm256_loadu_pd(r2 + d);
    const __m256d e = _mm256_loadu_pd(r3 + d);
    const __m256d t0 = _mm256_unpacklo_pd(a, b);
    const __m256d t1 = _mm256_unpackhi_pd(a, b);
    const __m256d t2 = _mm256_unpacklo_pd(c, e);
    const __m256d t3 = _mm256_unpackhi_pd(c, e);
    coords[d + 0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    coords[d + 1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    coords[d + 2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    coords[d + 3] = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
  for (; d < dim; ++d) coords[d] = _mm256_setr_pd(r0[d], r1[d], r2[d], r3[d]);
}

__attribute__((target("avx2"))) void nearest2_batch_avx2(
    const double* points, std::size_t dim, const std::size_t* indices, std::size_t count,
    const double* centroids, std::size_t k, std::size_t* out_assign, double* out_best_sq,
    double* out_second_sq) {
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d coords[kMaxBatchDim];
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const double* r0 = points + (indices != nullptr ? indices[j + 0] : j + 0) * dim;
    const double* r1 = points + (indices != nullptr ? indices[j + 1] : j + 1) * dim;
    const double* r2 = points + (indices != nullptr ? indices[j + 2] : j + 2) * dim;
    const double* r3 = points + (indices != nullptr ? indices[j + 3] : j + 3) * dim;
    transpose4_rows(r0, r1, r2, r3, dim, coords);
    __m256d best = inf, second = inf;
    // Centroid indices ride in double lanes (exact through 2^53, far beyond
    // any panel) so one blendv serves distances and indices alike.
    __m256d best_idx = _mm256_setzero_pd();
    for (std::size_t c = 0; c < k; ++c) {
      const double* r = centroids + c * dim;
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t d = 0; d < dim; ++d) {
        const __m256d f = _mm256_sub_pd(_mm256_set1_pd(r[d]), coords[d]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(f, f));
      }
      const __m256d lt_best = _mm256_cmp_pd(acc, best, _CMP_LT_OQ);
      const __m256d lt_second = _mm256_cmp_pd(acc, second, _CMP_LT_OQ);
      second = _mm256_blendv_pd(second, acc, lt_second);
      second = _mm256_blendv_pd(second, best, lt_best);
      best = _mm256_blendv_pd(best, acc, lt_best);
      best_idx = _mm256_blendv_pd(best_idx, _mm256_set1_pd(static_cast<double>(c)), lt_best);
    }
    _mm256_storeu_pd(out_best_sq + j, best);
    _mm256_storeu_pd(out_second_sq + j, second);
    double idxs[4];
    _mm256_storeu_pd(idxs, best_idx);
    for (int l = 0; l < 4; ++l) out_assign[j + l] = static_cast<std::size_t>(idxs[l]);
  }
  nearest2_batch_tail(points, dim, indices, count, centroids, k, out_assign, out_best_sq,
                      out_second_sq, j);
}

__attribute__((target("avx2"))) void assigned_distance_avx2(
    const double* points, std::size_t dim, const std::size_t* indices, std::size_t count,
    const double* centroids, const std::size_t* assign, double* out_dist_sq) {
  __m256d pcoords[kMaxBatchDim];
  __m256d ccoords[kMaxBatchDim];
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const double* p0 = points + (indices != nullptr ? indices[j + 0] : j + 0) * dim;
    const double* p1 = points + (indices != nullptr ? indices[j + 1] : j + 1) * dim;
    const double* p2 = points + (indices != nullptr ? indices[j + 2] : j + 2) * dim;
    const double* p3 = points + (indices != nullptr ? indices[j + 3] : j + 3) * dim;
    transpose4_rows(p0, p1, p2, p3, dim, pcoords);
    transpose4_rows(centroids + assign[j + 0] * dim, centroids + assign[j + 1] * dim,
                    centroids + assign[j + 2] * dim, centroids + assign[j + 3] * dim, dim,
                    ccoords);
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t d = 0; d < dim; ++d) {
      const __m256d f = _mm256_sub_pd(ccoords[d], pcoords[d]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(f, f));
    }
    _mm256_storeu_pd(out_dist_sq + j, acc);
  }
  assigned_distance_tail(points, dim, indices, count, centroids, assign, out_dist_sq, j);
}

__attribute__((target("avx2"))) std::size_t hamerly_skip_avx2(
    std::size_t count, const std::size_t* assign, const double* best_dist_sq, double* lower,
    const double* s_half, double delta_max, double delta_second, std::size_t moved_most,
    double guard_scale, double guard_shift, std::size_t base_index, std::size_t* survivors) {
  const __m256d scale = _mm256_set1_pd(guard_scale);
  const __m256d shift = _mm256_set1_pd(guard_shift);
  const __m256d v_dmax = _mm256_set1_pd(delta_max);
  const __m256d v_dsec = _mm256_set1_pd(delta_second);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256i v_moved = _mm256_set1_epi64x(static_cast<long long>(moved_most));
  std::size_t pending = 0;
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(assign + j));
    // moved = assign == moved_most ? delta_second : delta_max, as a blend on
    // the 64-bit equality mask (indices fit 64 bits by construction).
    const __m256d is_moved = _mm256_castsi256_pd(_mm256_cmpeq_epi64(a, v_moved));
    const __m256d moved = _mm256_blendv_pd(v_dmax, v_dsec, is_moved);
    const __m256d low = _mm256_loadu_pd(lower + j);
    const __m256d lb =
        _mm256_sub_pd(_mm256_mul_pd(_mm256_sub_pd(low, moved), scale), shift);
    // s_half is a tiny k-sized table: scalar loads + setr beat a gather on
    // the virtualized parts this targets (see the transpose note above).
    const __m256d s = _mm256_setr_pd(s_half[assign[j + 0]], s_half[assign[j + 1]],
                                     s_half[assign[j + 2]], s_half[assign[j + 3]]);
    const __m256d lb_ge_s = _mm256_cmp_pd(lb, s, _CMP_GE_OQ);
    const __m256d z = _mm256_blendv_pd(s, lb, lb_ge_s);
    const __m256d best = _mm256_loadu_pd(best_dist_sq + j);
    const __m256d zz = _mm256_sub_pd(_mm256_mul_pd(_mm256_mul_pd(z, z), scale), shift);
    const __m256d skip = _mm256_and_pd(_mm256_cmp_pd(z, zero, _CMP_GT_OQ),
                                       _mm256_cmp_pd(best, zz, _CMP_LT_OQ));
    // New lower bound for skipped lanes, arithmetic exactly as the tail:
    // lb when lb >= s, else max(lb, guard(2s - sqrt(best))) — the max spelled
    // as a blend on lb < elkan so equal values pick the same operand.
    const __m256d elkan = _mm256_sub_pd(
        _mm256_mul_pd(_mm256_sub_pd(_mm256_mul_pd(two, s), _mm256_sqrt_pd(best)), scale),
        shift);
    const __m256d alt = _mm256_blendv_pd(lb, elkan, _mm256_cmp_pd(lb, elkan, _CMP_LT_OQ));
    const __m256d skipped_low = _mm256_blendv_pd(alt, lb, lb_ge_s);
    _mm256_storeu_pd(lower + j, _mm256_blendv_pd(low, skipped_low, skip));
    const int mask = _mm256_movemask_pd(skip);
    if (mask != 0xF) {
      for (int l = 0; l < 4; ++l) {
        if ((mask & (1 << l)) == 0) survivors[pending++] = base_index + j + l;
      }
    }
  }
  return hamerly_skip_tail(count, assign, best_dist_sq, lower, s_half, delta_max,
                           delta_second, moved_most, guard_scale, guard_shift, base_index,
                           survivors, j, pending);
}

__attribute__((target("avx2"))) void weighted_scatter_add_avx2(
    const double* points, std::size_t dim, const std::size_t* indices, std::size_t count,
    const double* weights, const std::size_t* assign, double* sums, double* cluster_weight) {
  // Lanes run across dimensions of one point at a time — never across
  // points — so each (c, d) accumulator still sees the scalar addition
  // order. The leftover dimensions finish on the scalar chain per point.
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t i = indices != nullptr ? indices[j] : j;
    const std::size_t c = assign != nullptr ? assign[i] : 0;
    const double w = weights[i];
    const double* p = points + i * dim;
    double* sum = sums + c * dim;
    const __m256d w4 = _mm256_set1_pd(w);
    std::size_t d = 0;
    for (; d + 4 <= dim; d += 4) {
      const __m256d acc = _mm256_loadu_pd(sum + d);
      const __m256d x = _mm256_mul_pd(_mm256_loadu_pd(p + d), w4);
      _mm256_storeu_pd(sum + d, _mm256_add_pd(acc, x));
    }
    for (; d < dim; ++d) sum[d] += p[d] * w;
    cluster_weight[c] += w;
  }
}

Level probe_cpu() {
  if (__builtin_cpu_supports("avx512f")) return Level::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
  return Level::kScalar;
}

#else  // !defined(__x86_64__)

Level probe_cpu() { return Level::kScalar; }

#endif

Level parse_level_override(Level detected) {
  const char* env = std::getenv("GEORED_SIMD");
  if (env == nullptr || *env == '\0') return detected;
  Level requested = Level::kScalar;
  if (std::strcmp(env, "avx2") == 0) {
    requested = Level::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0) {
    requested = Level::kAvx512;
  } else if (std::strcmp(env, "scalar") != 0) {
    throw std::invalid_argument(std::string("GEORED_SIMD='") + env +
                                "' is not a SIMD level; accepted values: empty, "
                                "'scalar', 'avx2', 'avx512'");
  }
  // A request above the detected level clamps down (the hardware decides
  // what can run, the variable can only forbid).
  return requested < detected ? requested : detected;
}

}  // namespace

Level detail::probe_detected_level() { return probe_cpu(); }

Level detail::resolve_active_level() { return parse_level_override(detected_level()); }

const char* level_name(Level level) {
  switch (level) {
    case Level::kAvx512:
      return "avx512";
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
      break;
  }
  return "scalar";
}

std::size_t nearest_row(const double* data, std::size_t n, std::size_t dim,
                        const double* query, double* best_dist_sq, Level level) {
  GEORED_ENSURE(n >= 1 && best_dist_sq != nullptr,
                "nearest_row requires at least one row and a result slot");
#if defined(__x86_64__)
  if (level == Level::kAvx512 && detected_level() >= Level::kAvx512) {
    return nearest_avx512(data, n, dim, query, best_dist_sq);
  }
  if (level == Level::kAvx2 && detected_level() >= Level::kAvx2) {
    return nearest_avx2(data, n, dim, query, best_dist_sq);
  }
#else
  (void)level;
#endif
  return nearest_tail(data, n, dim, query, 0, 0, std::numeric_limits<double>::infinity(),
                      best_dist_sq);
}

std::size_t nearest_column(const double* tcols, std::size_t stride, std::size_t n,
                           std::size_t dim, const double* query, double* best_dist_sq,
                           Level level) {
  GEORED_ENSURE(n >= 1 && stride >= n && best_dist_sq != nullptr,
                "nearest_column requires at least one row, stride >= n, and a result slot");
#if defined(__x86_64__)
  if (level >= Level::kAvx2 && detected_level() >= Level::kAvx2) {
    return nearest_column_avx2(tcols, stride, n, dim, query, best_dist_sq);
  }
#else
  (void)level;
#endif
  return nearest_column_scalar(tcols, stride, n, dim, query, best_dist_sq);
}

void distance_row(const double* data, std::size_t n, std::size_t dim, const double* query,
                  double* out, Level level) {
  GEORED_ENSURE(n == 0 || out != nullptr, "distance_row needs an output buffer for its rows");
#if defined(__x86_64__)
  if (level == Level::kAvx512 && detected_level() >= Level::kAvx512) {
    distances_avx512(data, n, dim, query, out);
    return;
  }
  if (level == Level::kAvx2 && detected_level() >= Level::kAvx2) {
    distances_avx2(data, n, dim, query, out);
    return;
  }
#else
  (void)level;
#endif
  distance_tail(data, n, dim, query, out, 0);
}

void nearest2_batch(const double* points, std::size_t dim, const std::size_t* indices,
                    std::size_t count, const double* centroids, std::size_t k,
                    std::size_t* out_assign, double* out_best_sq, double* out_second_sq,
                    Level level) {
  GEORED_ENSURE(k >= 1, "nearest2_batch requires at least one centroid");
  GEORED_ENSURE(count == 0 || (out_assign != nullptr && out_best_sq != nullptr &&
                               out_second_sq != nullptr),
                "nearest2_batch needs all three output buffers");
#if defined(__x86_64__)
  // Both vector levels run the 256-bit kernel: the batch kernels are
  // compute-dense over a tiny L1-resident panel (unlike the memory-streaming
  // row kernels above), and a sustained 512-bit multiply/add stream trips
  // AVX-512 frequency licensing on the server parts this targets — measured
  // at parity with the scalar tail, while the ymm form runs ~1.4x faster
  // than scalar at full clocks. avx512f implies avx2, so the dispatch is
  // always safe.
  if (count >= kMinBatchQueries && dim <= kMaxBatchDim && level >= Level::kAvx2 &&
      detected_level() >= Level::kAvx2) {
    nearest2_batch_avx2(points, dim, indices, count, centroids, k, out_assign, out_best_sq,
                        out_second_sq);
    return;
  }
#else
  (void)level;
#endif
  nearest2_batch_tail(points, dim, indices, count, centroids, k, out_assign, out_best_sq,
                      out_second_sq, 0);
}

void assigned_distance_batch(const double* points, std::size_t dim,
                             const std::size_t* indices, std::size_t count,
                             const double* centroids, const std::size_t* assign,
                             double* out_dist_sq, Level level) {
  GEORED_ENSURE(count == 0 || (assign != nullptr && out_dist_sq != nullptr),
                "assigned_distance_batch needs assignments and an output buffer");
#if defined(__x86_64__)
  // 256-bit at both vector levels, as in nearest2_batch above.
  if (count >= kMinBatchQueries && dim <= kMaxBatchDim && level >= Level::kAvx2 &&
      detected_level() >= Level::kAvx2) {
    assigned_distance_avx2(points, dim, indices, count, centroids, assign, out_dist_sq);
    return;
  }
#else
  (void)level;
#endif
  assigned_distance_tail(points, dim, indices, count, centroids, assign, out_dist_sq, 0);
}

std::size_t hamerly_skip_batch(std::size_t count, const std::size_t* assign,
                               const double* best_dist_sq, double* lower,
                               const double* s_half, double delta_max, double delta_second,
                               std::size_t moved_most, double guard_scale,
                               double guard_shift, std::size_t base_index,
                               std::size_t* survivors, Level level) {
  GEORED_ENSURE(count == 0 || (assign != nullptr && best_dist_sq != nullptr &&
                               lower != nullptr && s_half != nullptr && survivors != nullptr),
                "hamerly_skip_batch needs bounds, assignments, and a survivor buffer");
#if defined(__x86_64__)
  // 256-bit at both vector levels, as in nearest2_batch above. No dim gate:
  // the kernel is dimension-free (one lane per query throughout).
  if (count >= kMinBatchQueries && level >= Level::kAvx2 &&
      detected_level() >= Level::kAvx2) {
    return hamerly_skip_avx2(count, assign, best_dist_sq, lower, s_half, delta_max,
                             delta_second, moved_most, guard_scale, guard_shift, base_index,
                             survivors);
  }
#else
  (void)level;
#endif
  return hamerly_skip_tail(count, assign, best_dist_sq, lower, s_half, delta_max,
                           delta_second, moved_most, guard_scale, guard_shift, base_index,
                           survivors, 0, 0);
}

void weighted_scatter_add(const double* points, std::size_t dim, const std::size_t* indices,
                          std::size_t count, const double* weights,
                          const std::size_t* assign, double* sums, double* cluster_weight,
                          Level level) {
  GEORED_ENSURE(count == 0 || (points != nullptr && weights != nullptr && sums != nullptr &&
                               cluster_weight != nullptr),
                "weighted_scatter_add needs points, weights, and accumulator buffers");
#if defined(__x86_64__)
  // 256-bit at both vector levels, as in nearest2_batch above. Needs at
  // least one full 4-lane dimension block to beat the scalar chain; there is
  // no upper dim gate because the kernel streams dimensions from memory
  // instead of holding them in registers.
  if (count >= kMinBatchQueries && dim >= 4 && level >= Level::kAvx2 &&
      detected_level() >= Level::kAvx2) {
    weighted_scatter_add_avx2(points, dim, indices, count, weights, assign, sums,
                              cluster_weight);
    return;
  }
#else
  (void)level;
#endif
  weighted_scatter_add_tail(points, dim, indices, count, weights, assign, sums,
                            cluster_weight);
}

}  // namespace geored::simd
