// Equivalence pins for the runtime-dispatched SIMD distance kernels
// (common/point_set_simd.h): every available level must reproduce the
// scalar strict-`<` first-winner scan bit for bit — including ties, NaN
// rows, infinite coordinates, and sizes straddling the register-block
// boundaries (16 rows per AVX-512 iteration, 8 per AVX2). The row kernels
// and the column kernel (nearest_column, over the same rows laid out
// dimension-major) run through one harness, so every case pins both.
#include "common/point_set_simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/point_set.h"
#include "common/random.h"

namespace geored {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// The scalar reference scan, restated independently of PointSet so the
/// pin does not inherit a bug from the code under test: strict-`<` first
/// winner from (best=0, best_dist=+inf), NaN distances never win.
std::size_t reference_nearest(const std::vector<double>& data, std::size_t n, std::size_t dim,
                              const double* query, double* best_dist_sq) {
  std::size_t best = 0;
  double best_dist = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    double dist = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = data[i * dim + d] - query[d];
      dist += diff * diff;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  *best_dist_sq = best_dist;
  return best;
}

/// Levels the running CPU can execute. kScalar is always present; testing a
/// level the CPU lacks would fault, so coverage narrows on older hardware
/// (the CI bench box runs all three).
std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::detected_level() >= simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  if (simd::detected_level() >= simd::Level::kAvx512) levels.push_back(simd::Level::kAvx512);
  return levels;
}

/// The n×dim rows of `data` as a dimension-major panel for nearest_column:
/// component d of row i at [d * stride + i], stride = n + pad. The padding
/// lanes hold values that would win the scan if a kernel ever read them —
/// the query itself (distance 0), then NaN, -inf and a huge value — so a
/// kernel reading past row n shows up as a wrong index or distance.
std::vector<double> column_panel(const std::vector<double>& data, std::size_t n,
                                 std::size_t dim, const double* query, std::size_t pad) {
  const std::size_t stride = n + pad;
  std::vector<double> panel(dim * stride);
  for (std::size_t d = 0; d < dim; ++d) {
    for (std::size_t i = 0; i < n; ++i) panel[d * stride + i] = data[i * dim + d];
    const double garbage[] = {query[d], kNaN, -kInf, 1e300};
    for (std::size_t i = n; i < stride; ++i) panel[d * stride + i] = garbage[(i - n) % 4];
  }
  return panel;
}

void expect_all_levels_match(const std::vector<double>& data, std::size_t n, std::size_t dim,
                             const double* query, const char* label) {
  double want_dist = 0.0;
  const std::size_t want = reference_nearest(data, n, dim, query, &want_dist);
  // Padding from 1 to 9 lanes: the garbage straddles the 8-row block edge.
  const std::size_t pad = 1 + (n + dim) % 9;
  const std::vector<double> panel = column_panel(data, n, dim, query, pad);
  std::vector<double> want_row(n);
  for (std::size_t i = 0; i < n; ++i) {
    double dist = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = data[i * dim + d] - query[d];
      dist += diff * diff;
    }
    want_row[i] = std::sqrt(dist);
  }
  for (const simd::Level level : available_levels()) {
    double got_dist = 0.0;
    const std::size_t got = simd::nearest_row(data.data(), n, dim, query, &got_dist, level);
    EXPECT_EQ(got, want) << label << ": argmin diverged at level "
                         << simd::level_name(level) << " (n=" << n << ", dim=" << dim << ")";
    EXPECT_EQ(bits_of(got_dist), bits_of(want_dist))
        << label << ": best distance not bit-identical at level " << simd::level_name(level)
        << " (n=" << n << ", dim=" << dim << ")";
    double col_dist = 0.0;
    const std::size_t col =
        simd::nearest_column(panel.data(), n + pad, n, dim, query, &col_dist, level);
    EXPECT_EQ(col, want) << label << ": column argmin diverged at level "
                         << simd::level_name(level) << " (n=" << n << ", dim=" << dim << ")";
    EXPECT_EQ(bits_of(col_dist), bits_of(want_dist))
        << label << ": column best distance not bit-identical at level "
        << simd::level_name(level) << " (n=" << n << ", dim=" << dim << ")";
    std::vector<double> got_row(n, -1.0);
    simd::distance_row(data.data(), n, dim, query, got_row.data(), level);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits_of(got_row[i]), bits_of(want_row[i]))
          << label << ": distance_row[" << i << "] not bit-identical at level "
          << simd::level_name(level) << " (n=" << n << ", dim=" << dim << ")";
    }
  }
}

TEST(PointSetSimd, MatchesScalarAcrossBlockBoundarySizes) {
  // Every size around the AVX2 (8) and AVX-512 (16) block widths, both
  // sides of the dispatch threshold, plus sizes that leave 1..15 remainder
  // rows for the scalar tail.
  const std::size_t sizes[] = {1,  2,  7,  8,  9,  15, 16, 17, 23, 24, 31,  32,
                               33, 47, 48, 63, 64, 65, 96, 97, 127, 128, 129, 1000};
  const std::size_t dims[] = {1, 2, 3, 5, 8, 13};
  for (const std::size_t dim : dims) {
    Rng rng(0x51D0 + dim);
    for (const std::size_t n : sizes) {
      std::vector<double> data(n * dim);
      for (double& v : data) v = rng.uniform(-100.0, 100.0);
      std::vector<double> query(dim);
      for (double& v : query) v = rng.uniform(-100.0, 100.0);
      expect_all_levels_match(data, n, dim, query.data(), "random");
    }
  }
}

TEST(PointSetSimd, FirstWinnerOnExactTies) {
  // The winning row is duplicated at positions inside different register
  // blocks and in the scalar tail; every level must report the *first*
  // occurrence, like the scalar strict-`<` scan.
  constexpr std::size_t kDim = 3;
  constexpr std::size_t kN = 53;  // 3 full AVX-512 blocks + 5 tail rows
  const double winner[kDim] = {1.0, 2.0, 3.0};
  const double query[kDim] = {1.0, 2.0, 3.5};
  for (const std::size_t first : {std::size_t{0}, std::size_t{5}, std::size_t{18},
                                  std::size_t{33}, std::size_t{49}}) {
    std::vector<double> data(kN * kDim);
    for (std::size_t i = 0; i < kN; ++i) {
      for (std::size_t d = 0; d < kDim; ++d) {
        data[i * kDim + d] = 1000.0 + static_cast<double>(i + d);
      }
    }
    for (std::size_t i = first; i < kN; i += 7) {  // duplicates at and after `first`
      for (std::size_t d = 0; d < kDim; ++d) data[i * kDim + d] = winner[d];
    }
    for (const simd::Level level : available_levels()) {
      double dist = 0.0;
      EXPECT_EQ(simd::nearest_row(data.data(), kN, kDim, query, &dist, level), first)
          << "tie broken away from the first winner at level " << simd::level_name(level);
      EXPECT_EQ(dist, 0.25);
    }
    expect_all_levels_match(data, kN, kDim, query, "ties");
  }
}

TEST(PointSetSimd, NaNRowsNeverWin) {
  constexpr std::size_t kDim = 2;
  constexpr std::size_t kN = 40;
  std::vector<double> data(kN * kDim, 50.0);
  // NaN rows scattered across blocks and tail; one clean winner at row 27.
  for (const std::size_t i : {std::size_t{0}, std::size_t{9}, std::size_t{17},
                              std::size_t{26}, std::size_t{39}}) {
    data[i * kDim] = kNaN;
  }
  data[27 * kDim] = 1.0;
  data[27 * kDim + 1] = 1.0;
  const double query[kDim] = {1.0, 1.0};
  for (const simd::Level level : available_levels()) {
    double dist = -1.0;
    EXPECT_EQ(simd::nearest_row(data.data(), kN, kDim, query, &dist, level), 27u)
        << "a NaN distance displaced the winner at level " << simd::level_name(level);
    EXPECT_EQ(dist, 0.0);
  }
  expect_all_levels_match(data, kN, kDim, query, "nan-rows");
}

TEST(PointSetSimd, AllNaNKeepsScalarInitialState) {
  // Every distance NaN: nothing ever wins the strict `<`, so the scan ends
  // in its initial state — index 0, +inf — at every level.
  constexpr std::size_t kDim = 2;
  constexpr std::size_t kN = 37;
  const std::vector<double> data(kN * kDim, kNaN);
  const double query[kDim] = {0.0, 0.0};
  for (const simd::Level level : available_levels()) {
    double dist = 0.0;
    EXPECT_EQ(simd::nearest_row(data.data(), kN, kDim, query, &dist, level), 0u);
    EXPECT_EQ(dist, kInf) << "level " << simd::level_name(level);
  }
}

TEST(PointSetSimd, InfiniteCoordinatesMatchScalar) {
  // +-inf coordinates produce inf distances — and NaN where inf - inf
  // occurs. The pin is simply "whatever the scalar scan does", bit for bit.
  constexpr std::size_t kDim = 3;
  constexpr std::size_t kN = 35;
  std::vector<double> data(kN * kDim);
  Rng rng(0x1f1f);
  for (double& v : data) v = rng.uniform(-10.0, 10.0);
  data[4 * kDim + 1] = kInf;
  data[19 * kDim] = -kInf;
  data[33 * kDim + 2] = kInf;
  const double query_finite[kDim] = {0.5, -0.5, 2.0};
  expect_all_levels_match(data, kN, kDim, query_finite, "inf-rows");
  const double query_inf[kDim] = {kInf, -0.5, 2.0};  // inf - inf => NaN on row 4? no: dim 0
  expect_all_levels_match(data, kN, kDim, query_inf, "inf-query");
}

TEST(PointSetSimd, ColumnKernelMatchesScalarAtEdgeSizesAndDims) {
  // The micro-cluster ingest shapes: every store size from 1 to 20 (partial
  // 8-row blocks, one and two full blocks, a full block plus a partial
  // one) and 63..65 around the 64-row mark, dimensions 1..9. Each case
  // also plants exact ties: the winner duplicated later, in its own block
  // and in others. The harness pads every panel with garbage lanes.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 20; ++n) sizes.push_back(n);
  for (std::size_t n = 63; n <= 65; ++n) sizes.push_back(n);
  for (std::size_t dim = 1; dim <= 9; ++dim) {
    Rng rng(0xC01 + dim);
    for (const std::size_t n : sizes) {
      std::vector<double> data(n * dim);
      for (double& v : data) v = rng.uniform(-100.0, 100.0);
      std::vector<double> query(dim);
      for (double& v : query) v = rng.uniform(-100.0, 100.0);
      expect_all_levels_match(data, n, dim, query.data(), "column-random");
      // Exact ties: copies of row a at a + 1, a + 4, a + 7, ... — the next
      // row, then rows in this block and later ones.
      const std::size_t a = rng.below(n);
      for (std::size_t b = a + 1; b < n; b += 3) {
        for (std::size_t d = 0; d < dim; ++d) data[b * dim + d] = data[a * dim + d];
      }
      std::vector<double> tie_query(data.begin() + static_cast<std::ptrdiff_t>(a * dim),
                                    data.begin() + static_cast<std::ptrdiff_t>((a + 1) * dim));
      tie_query[0] += 1e-3;  // equidistant from every copy
      double tie_dist = 0.0;
      ASSERT_EQ(reference_nearest(data, n, dim, tie_query.data(), &tie_dist), a)
          << "the planted copies must be the nearest rows (n=" << n << ", dim=" << dim << ")";
      expect_all_levels_match(data, n, dim, tie_query.data(), "column-ties");
    }
  }
}

TEST(PointSetSimd, ColumnKernelMatchesScalarOnNaNAndInfinityBitPatterns) {
  // Quiet, signaling, negative and payload-carrying NaNs and both
  // infinities, planted in rows and in the query. The pin is "whatever the
  // scalar scan does", bit for bit: NaN distances never win, inf - inf is
  // NaN, and a scan nothing wins returns (0, +inf).
  const std::uint64_t patterns[] = {
      0x7ff8000000000000ULL,  // quiet NaN
      0x7ff8000000000001ULL,  // quiet NaN with a payload
      0xfff8000000000000ULL,  // negative quiet NaN
      0x7ff0000000000001ULL,  // signaling NaN
      0x7ff0000000000000ULL,  // +inf
      0xfff0000000000000ULL,  // -inf
  };
  for (const std::uint64_t bits : patterns) {
    double special = 0.0;
    std::memcpy(&special, &bits, sizeof(special));
    for (const std::size_t dim : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      for (const std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                                  std::size_t{9}, std::size_t{17}, std::size_t{64}}) {
        Rng rng(0x5EC + n * 16 + dim);
        std::vector<double> data(n * dim);
        for (double& v : data) v = rng.uniform(-10.0, 10.0);
        std::vector<double> query(dim);
        for (double& v : query) v = rng.uniform(-10.0, 10.0);
        // Specials in the first, a middle and the last row.
        for (const std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
          data[i * dim + rng.below(dim)] = special;
        }
        expect_all_levels_match(data, n, dim, query.data(), "column-special-rows");
        // Every component special: every distance NaN or +inf.
        const std::vector<double> all(n * dim, special);
        expect_all_levels_match(all, n, dim, query.data(), "column-special-all");
        // A special query component reaches every row at once.
        query[rng.below(dim)] = special;
        expect_all_levels_match(data, n, dim, query.data(), "column-special-query");
      }
    }
  }
}

TEST(PointSetSimd, LevelNamesAndOrdering) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx512), "avx512");
  // The active level can only clamp down from the detected one.
  EXPECT_LE(static_cast<int>(simd::active_level()), static_cast<int>(simd::detected_level()));
}

TEST(PointSetSimd, PointSetDispatchAgreesWithExplicitLevels) {
  // End-to-end through PointSet::nearest_of / distance_row, which dispatch
  // on active_level() above kMinSimdRows: results must equal the explicit
  // scalar-level kernel whatever level the dispatcher picked.
  constexpr std::size_t kDim = 5;
  const std::size_t n = simd::kMinSimdRows * 3 + 5;
  Rng rng(0xd15b);
  PointSet set(kDim);
  std::vector<double> flat;
  for (std::size_t i = 0; i < n; ++i) {
    Point p(kDim);
    for (std::size_t d = 0; d < kDim; ++d) p[d] = rng.uniform(-50.0, 50.0);
    set.push_back(p);
    flat.insert(flat.end(), p.values().begin(), p.values().end());
  }
  Point query(kDim);
  for (std::size_t d = 0; d < kDim; ++d) query[d] = rng.uniform(-50.0, 50.0);

  double want_dist = 0.0;
  const std::size_t want = simd::nearest_row(flat.data(), n, kDim,
                                             query.values().data(), &want_dist,
                                             simd::Level::kScalar);
  double got_dist = 0.0;
  EXPECT_EQ(set.nearest_of(query, &got_dist), want);
  EXPECT_EQ(bits_of(got_dist), bits_of(want_dist));

  std::vector<double> want_row(n), got_row(n);
  simd::distance_row(flat.data(), n, kDim, query.values().data(), want_row.data(),
                     simd::Level::kScalar);
  set.distance_row(query, got_row.data());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(bits_of(got_row[i]), bits_of(want_row[i])) << "row " << i;
  }
}

/// Independent scalar reference for the batched nearest-two kernel:
/// PointSet::nearest2_of restated (branchless strict-`<` selects in
/// ascending centroid order) so the pin cannot inherit a kernel bug.
void reference_nearest2(const double* q, const double* centroids, std::size_t k,
                        std::size_t dim, std::size_t* out_assign, double* out_best,
                        double* out_second) {
  std::size_t best = 0;
  double best_dist = kInf, second_dist = kInf;
  for (std::size_t c = 0; c < k; ++c) {
    double dist = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = centroids[c * dim + d] - q[d];
      dist += diff * diff;
    }
    const bool better = dist < best_dist;
    const bool runner_up = dist < second_dist;
    second_dist = better ? best_dist : (runner_up ? dist : second_dist);
    best_dist = better ? dist : best_dist;
    best = better ? c : best;
  }
  *out_assign = best;
  *out_best = best_dist;
  *out_second = second_dist;
}

void expect_batch_kernels_match(const std::vector<double>& points, std::size_t dim,
                                const std::size_t* indices, std::size_t count,
                                const std::vector<double>& centroids, std::size_t k,
                                const char* label) {
  std::vector<std::size_t> want_assign(count);
  std::vector<double> want_best(count), want_second(count);
  for (std::size_t j = 0; j < count; ++j) {
    const double* q = points.data() + (indices != nullptr ? indices[j] : j) * dim;
    reference_nearest2(q, centroids.data(), k, dim, &want_assign[j], &want_best[j],
                       &want_second[j]);
  }
  for (const simd::Level level : available_levels()) {
    std::vector<std::size_t> got_assign(count, ~std::size_t{0});
    std::vector<double> got_best(count, -1.0), got_second(count, -1.0);
    simd::nearest2_batch(points.data(), dim, indices, count, centroids.data(), k,
                         got_assign.data(), got_best.data(), got_second.data(), level);
    for (std::size_t j = 0; j < count; ++j) {
      ASSERT_EQ(got_assign[j], want_assign[j])
          << label << ": assignment diverged at level " << simd::level_name(level)
          << " (j=" << j << ", count=" << count << ", dim=" << dim << ", k=" << k << ")";
      ASSERT_EQ(bits_of(got_best[j]), bits_of(want_best[j]))
          << label << ": best distance not bit-identical at level "
          << simd::level_name(level) << " (j=" << j << ")";
      ASSERT_EQ(bits_of(got_second[j]), bits_of(want_second[j]))
          << label << ": second distance not bit-identical at level "
          << simd::level_name(level) << " (j=" << j << ")";
    }
    // assigned_distance_batch against the just-computed assignment must
    // reproduce each point's best distance bits (same subtract/multiply/add
    // sequence against the same centroid row).
    std::vector<double> got_own(count, -1.0);
    simd::assigned_distance_batch(points.data(), dim, indices, count, centroids.data(),
                                  want_assign.data(), got_own.data(), level);
    for (std::size_t j = 0; j < count; ++j) {
      ASSERT_EQ(bits_of(got_own[j]), bits_of(want_best[j]))
          << label << ": assigned distance not bit-identical at level "
          << simd::level_name(level) << " (j=" << j << ")";
    }
  }
}

TEST(PointSetSimdBatch, MatchesScalarAcrossSizesAndDims) {
  // Counts straddle the 4-query register block and the kMinBatchQueries
  // dispatch floor; dims cover the scalar remainder columns of the 4x4
  // transpose (1..3), a full block (4), mixed (5, 7), and the wide-dim
  // scalar fallback (kMaxBatchDim + 1).
  const std::size_t counts[] = {1, 3, 4, 5, 15, 16, 17, 19, 20, 64, 65, 300};
  const std::size_t dims[] = {1, 2, 3, 4, 5, 7, simd::kMaxBatchDim + 1};
  const std::size_t ks[] = {1, 2, 5, 12};
  for (const std::size_t dim : dims) {
    Rng rng(0xba7c + dim);
    for (const std::size_t k : ks) {
      std::vector<double> centroids(k * dim);
      for (double& v : centroids) v = rng.uniform(-100.0, 100.0);
      for (const std::size_t count : counts) {
        std::vector<double> points(count * dim);
        for (double& v : points) v = rng.uniform(-100.0, 100.0);
        expect_batch_kernels_match(points, dim, nullptr, count, centroids, k, "contiguous");
      }
    }
  }
}

TEST(PointSetSimdBatch, IndexedSubsetMatchesContiguous) {
  // The survivor-rescan form: a strided, unsorted index subset of a larger
  // point block must produce, per query, exactly the bits of the contiguous
  // scan of that row.
  constexpr std::size_t kDim = 5;
  constexpr std::size_t kK = 9;
  constexpr std::size_t kN = 200;
  Rng rng(0x1d3);
  std::vector<double> points(kN * kDim), centroids(kK * kDim);
  for (double& v : points) v = rng.uniform(-50.0, 50.0);
  for (double& v : centroids) v = rng.uniform(-50.0, 50.0);
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < kN; i += 3) indices.push_back(i);
  for (std::size_t i = 1; i < kN; i += 7) indices.push_back(i);  // unsorted, duplicates ok
  expect_batch_kernels_match(points, kDim, indices.data(), indices.size(), centroids, kK,
                             "indexed");
}

TEST(PointSetSimdBatch, TiesAndCoincidentCentroidsMatchScalar) {
  // Duplicate centroids and queries equidistant to distinct centroids: the
  // strict-`<` first-winner rule must hold per lane at every level.
  constexpr std::size_t kDim = 2;
  std::vector<double> centroids = {1.0, 0.0, 1.0, 0.0, -1.0, 0.0, 3.0, 0.0};
  std::vector<double> points;
  for (int i = 0; i < 37; ++i) {
    points.push_back(0.0);                          // x = 0: ties centroids 0/1 vs 2
    points.push_back(static_cast<double>(i) - 18);  // varying y
  }
  expect_batch_kernels_match(points, kDim, nullptr, 37, centroids, 4, "ties");
}

/// Independent scalar restatement of the hamerly_skip_batch predicate (the
/// Phase-2 loop of cluster/kmeans.cpp's bounded objective pass) so the pin
/// cannot inherit a kernel bug. Mutates `lower` and fills `survivors`
/// exactly as the kernel contract specifies.
std::size_t reference_hamerly_skip(std::size_t count, const std::size_t* assign,
                                   const double* best_dist_sq, double* lower,
                                   const double* s_half, double delta_max,
                                   double delta_second, std::size_t moved_most,
                                   double guard_scale, double guard_shift,
                                   std::size_t base_index, std::size_t* survivors) {
  std::size_t pending = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const double moved = assign[j] == moved_most ? delta_second : delta_max;
    const double lb = (lower[j] - moved) * guard_scale - guard_shift;
    const double s = s_half[assign[j]];
    const double z = lb >= s ? lb : s;
    if (z > 0.0 && best_dist_sq[j] < z * z * guard_scale - guard_shift) {
      const double elkan = (2.0 * s - std::sqrt(best_dist_sq[j])) * guard_scale - guard_shift;
      lower[j] = lb >= s ? lb : std::max(lb, elkan);
      continue;
    }
    survivors[pending++] = base_index + j;
  }
  return pending;
}

TEST(PointSetSimdBatch, HamerlySkipMatchesScalarPredicate) {
  // The production guard constants, a centroid table small enough to force
  // the scalar-load gather replacement, and bound distributions tuned so
  // every batch mixes skipped and surviving lanes (including z <= 0 lanes
  // from negative decayed bounds, and lb == s ties where the >= select must
  // pick lb). Counts straddle the 4-lane block and the dispatch floor.
  constexpr double kScale = 1.0 - 1e-10;
  constexpr double kShift = 1e-12;
  constexpr std::size_t kK = 7;
  const std::size_t counts[] = {1, 3, 4, 5, 15, 16, 17, 19, 64, 65, 300};
  for (const std::size_t count : counts) {
    Rng rng(0x5c1b + count);
    std::vector<double> s_half(kK);
    for (double& v : s_half) v = rng.uniform(0.0, 5.0);
    s_half[3] = -1e-13;  // coincident-centroid shape: tiny negative radius
    std::vector<std::size_t> assign(count);
    std::vector<double> best(count), lower(count);
    for (std::size_t j = 0; j < count; ++j) {
      assign[j] = rng.below(kK);
      const double d = rng.uniform(0.0, 6.0);
      best[j] = d * d;
      lower[j] = rng.uniform(-1.0, 7.0);
      if (rng.bernoulli(0.1)) lower[j] = s_half[assign[j]];  // exact lb-vs-s tie shape
    }
    const double delta_max = 0.8, delta_second = 0.3;
    const std::size_t moved_most = 2;
    const std::size_t base_index = 1000;

    std::vector<double> want_lower = lower;
    std::vector<std::size_t> want_survivors(count, ~std::size_t{0});
    const std::size_t want_pending = reference_hamerly_skip(
        count, assign.data(), best.data(), want_lower.data(), s_half.data(), delta_max,
        delta_second, moved_most, kScale, kShift, base_index, want_survivors.data());
    ASSERT_GT(want_pending, 0u) << "distribution no longer exercises survivors";
    if (count >= 16) {
      ASSERT_LT(want_pending, count) << "distribution no longer exercises skips";
    }
    for (const simd::Level level : available_levels()) {
      std::vector<double> got_lower = lower;
      std::vector<std::size_t> got_survivors(count, ~std::size_t{0});
      const std::size_t got_pending = simd::hamerly_skip_batch(
          count, assign.data(), best.data(), got_lower.data(), s_half.data(), delta_max,
          delta_second, moved_most, kScale, kShift, base_index, got_survivors.data(), level);
      ASSERT_EQ(got_pending, want_pending)
          << "survivor count diverged at level " << simd::level_name(level)
          << " (count=" << count << ")";
      for (std::size_t j = 0; j < want_pending; ++j) {
        ASSERT_EQ(got_survivors[j], want_survivors[j])
            << "survivor order diverged at level " << simd::level_name(level)
            << " (j=" << j << ")";
      }
      for (std::size_t j = 0; j < count; ++j) {
        ASSERT_EQ(bits_of(got_lower[j]), bits_of(want_lower[j]))
            << "updated lower bound not bit-identical at level " << simd::level_name(level)
            << " (j=" << j << ", count=" << count << ")";
      }
    }
  }
}

/// Independent scalar restatement of weighted_scatter_add.
void reference_scatter_add(const double* points, std::size_t dim, const std::size_t* indices,
                           std::size_t count, const double* weights,
                           const std::size_t* assign, double* sums, double* cluster_weight) {
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t i = indices != nullptr ? indices[j] : j;
    const std::size_t c = assign != nullptr ? assign[i] : 0;
    for (std::size_t d = 0; d < dim; ++d) {
      sums[c * dim + d] += points[i * dim + d] * weights[i];
    }
    cluster_weight[c] += weights[i];
  }
}

TEST(PointSetSimdBatch, WeightedScatterAddMatchesScalarBits) {
  // Both call shapes of the k-means update accumulation: the full-pass form
  // (identity indices + an assignment array) and the per-cluster-segment
  // form (explicit indices with duplicates, accumulators pinned to one
  // cluster). Dims cover the scalar-only fallback (< 4), a full 4-lane
  // block, and mixed block + remainder; counts straddle the dispatch floor.
  const std::size_t dims[] = {1, 3, 4, 5, 8, 9};
  const std::size_t counts[] = {1, 4, 15, 16, 17, 300};
  constexpr std::size_t kK = 6;
  for (const std::size_t dim : dims) {
    Rng rng(0x5ca7 + dim);
    for (const std::size_t count : counts) {
      std::vector<double> points(count * dim), weights(count);
      std::vector<std::size_t> assign(count);
      for (double& v : points) v = rng.uniform(-100.0, 100.0);
      for (double& v : weights) v = rng.uniform(0.1, 10.0);
      for (auto& a : assign) a = rng.below(kK);

      std::vector<double> want_sums(kK * dim, 0.0), want_cw(kK, 0.0);
      reference_scatter_add(points.data(), dim, nullptr, count, weights.data(),
                            assign.data(), want_sums.data(), want_cw.data());
      for (const simd::Level level : available_levels()) {
        std::vector<double> got_sums(kK * dim, 0.0), got_cw(kK, 0.0);
        simd::weighted_scatter_add(points.data(), dim, nullptr, count, weights.data(),
                                   assign.data(), got_sums.data(), got_cw.data(), level);
        for (std::size_t c = 0; c < kK; ++c) {
          ASSERT_EQ(bits_of(got_cw[c]), bits_of(want_cw[c]))
              << "cluster weight not bit-identical at level " << simd::level_name(level)
              << " (c=" << c << ", dim=" << dim << ", count=" << count << ")";
          for (std::size_t d = 0; d < dim; ++d) {
            ASSERT_EQ(bits_of(got_sums[c * dim + d]), bits_of(want_sums[c * dim + d]))
                << "sum not bit-identical at level " << simd::level_name(level)
                << " (c=" << c << ", d=" << d << ", dim=" << dim << ", count=" << count
                << ")";
          }
        }
      }

      // Segment form: an unsorted index list with duplicates, one cluster.
      std::vector<std::size_t> indices;
      for (std::size_t i = 0; i < count; i += 2) indices.push_back(i);
      for (std::size_t i = 1; i < count; i += 5) indices.push_back(i);
      std::vector<double> want_seg(dim, 0.0);
      double want_seg_w = 0.0;
      reference_scatter_add(points.data(), dim, indices.data(), indices.size(),
                            weights.data(), nullptr, want_seg.data(), &want_seg_w);
      for (const simd::Level level : available_levels()) {
        std::vector<double> got_seg(dim, 0.0);
        double got_seg_w = 0.0;
        simd::weighted_scatter_add(points.data(), dim, indices.data(), indices.size(),
                                   weights.data(), nullptr, got_seg.data(), &got_seg_w,
                                   level);
        ASSERT_EQ(bits_of(got_seg_w), bits_of(want_seg_w))
            << "segment weight not bit-identical at level " << simd::level_name(level);
        for (std::size_t d = 0; d < dim; ++d) {
          ASSERT_EQ(bits_of(got_seg[d]), bits_of(want_seg[d]))
              << "segment sum not bit-identical at level " << simd::level_name(level)
              << " (d=" << d << ")";
        }
      }
    }
  }
}

TEST(PointSetSimdBatch, SingleCentroidSecondStaysInfinite) {
  constexpr std::size_t kDim = 3;
  std::vector<double> centroids = {1.0, 2.0, 3.0};
  Rng rng(0xeef);
  std::vector<double> points(40 * kDim);
  for (double& v : points) v = rng.uniform(-5.0, 5.0);
  for (const simd::Level level : available_levels()) {
    std::vector<std::size_t> assign(40, 99);
    std::vector<double> best(40), second(40, -1.0);
    simd::nearest2_batch(points.data(), kDim, nullptr, 40, centroids.data(), 1,
                         assign.data(), best.data(), second.data(), level);
    for (std::size_t j = 0; j < 40; ++j) {
      ASSERT_EQ(assign[j], 0u);
      ASSERT_EQ(second[j], kInf) << "level " << simd::level_name(level) << " j=" << j;
    }
  }
}

}  // namespace
}  // namespace geored
