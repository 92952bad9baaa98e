// IngestEquivalence: the SoA / batched / parallel ingest fast paths must be
// bit-identical to the retained scalar reference. Equality is checked on
// serialized summaries, so every moment (count, sum, sum2) has to match to
// the last bit — "close" is a failure. The suite also pins the supporting
// contracts the fast path relies on: the SIMD nearest-centroid scan against
// PointSet::nearest_of, radius-cache invalidation across absorb / merge /
// decay, whole-batch dimension validation, and
// byte-stable ReplicationManager output across thread counts. Runs under
// release, asan-ubsan, and the tsan preset (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cluster/summarizer.h"
#include "common/point_set.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/replication_manager.h"
#include "reference/scalar.h"
#include "reference/summarizer_scalar.h"

namespace geored::cluster {
namespace {

std::vector<std::uint8_t> summary_bytes(const MicroClusterSummarizer& summarizer) {
  ByteWriter writer;
  write_clusters(writer, summarizer.clusters());
  return writer.bytes();
}

std::vector<std::uint8_t> summary_bytes(const ScalarMicroClusterSummarizer& summarizer) {
  ByteWriter writer;
  write_clusters(writer, to_cluster_buffer(summarizer.clusters()).view());
  return writer.bytes();
}

/// One randomized access stream: geo-clustered sites with occasional
/// uniform and coincident arrivals, and random spread both inside and
/// outside the absorb floor.
struct Stream {
  SummarizerConfig config;
  std::size_t dim = 0;
  std::vector<Point> points;

  explicit Stream(std::uint64_t seed, std::size_t n_accesses = 400) {
    Rng rng(seed);
    config.max_clusters = 1 + rng.below(12);
    config.min_absorb_radius = rng.uniform(0.0, 15.0);
    config.radius_factor = rng.uniform(0.25, 3.0);
    config.epoch_decay = rng.uniform(0.05, 1.0);
    dim = 1 + rng.below(6);
    std::vector<Point> centers;
    const std::size_t n_centers = 1 + rng.below(8);
    for (std::size_t c = 0; c < n_centers; ++c) {
      Point p(dim);
      for (std::size_t d = 0; d < dim; ++d) p[d] = rng.uniform(-300.0, 300.0);
      centers.push_back(p);
    }
    const double spread = rng.uniform(0.2, 25.0);
    for (std::size_t i = 0; i < n_accesses; ++i) {
      Point p = centers[rng.below(centers.size())];
      if (rng.bernoulli(0.85)) {
        for (std::size_t d = 0; d < dim; ++d) p[d] += rng.normal(0.0, spread);
      } else if (rng.bernoulli(0.5)) {
        for (std::size_t d = 0; d < dim; ++d) p[d] = rng.uniform(-1e4, 1e4);
      }
      points.push_back(p);
      // The draws that once gave the access a weight, kept so that every
      // seed's stream stays the one it was.
      if (!rng.bernoulli(0.1)) rng.uniform(0.0, 50.0);
    }
  }
};

class IngestEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IngestEquivalence, PerAccessPathMatchesScalarBytes) {
  const Stream stream(GetParam());
  ScalarMicroClusterSummarizer scalar(stream.config);
  MicroClusterSummarizer fast(stream.config);
  Rng ops(GetParam() ^ 0xfeedface);
  for (std::size_t i = 0; i < stream.points.size(); ++i) {
    scalar.add(stream.points[i]);
    fast.add(stream.points[i]);
    // Interleave the other mutation paths so cached radii and the
    // transposed centroid shadow survive merge/decay churn.
    if (ops.bernoulli(0.03)) {
      scalar.decay();
      fast.decay();
    }
    if (ops.bernoulli(0.03)) {
      MicroCluster foreign(stream.points[i], 2.5);
      foreign.absorb(stream.points[(i * 7 + 3) % stream.points.size()], 1.0);
      scalar.merge_cluster(foreign);
      fast.merge_cluster(foreign);
    }
    ASSERT_EQ(summary_bytes(scalar), summary_bytes(fast))
        << "diverged at access " << i << " with seed " << GetParam();
  }
  EXPECT_EQ(scalar.total_count(), fast.total_count());
}

TEST_P(IngestEquivalence, BatchedPathMatchesScalarBytes) {
  const Stream stream(GetParam());
  ScalarMicroClusterSummarizer scalar(stream.config);
  MicroClusterSummarizer batched(stream.config);
  Rng chunks(GetParam() ^ 0xba7c4);
  std::size_t i = 0;
  while (i < stream.points.size()) {
    // Random chunk sizes cover the empty-store bootstrap, one-row batches,
    // and batches larger than the cluster budget.
    const std::size_t chunk =
        std::min<std::size_t>(1 + chunks.below(40), stream.points.size() - i);
    PointSet batch(stream.dim);
    for (std::size_t j = 0; j < chunk; ++j) {
      batch.push_back(stream.points[i + j]);
      scalar.add(stream.points[i + j]);
    }
    // Some chunks arrive twice, the second time into the store they filled.
    if (chunks.bernoulli(0.2)) {
      for (std::size_t j = 0; j < chunk; ++j) scalar.add(stream.points[i + j]);
      batched.add_batch(batch);
    }
    batched.add_batch(batch);
    ASSERT_EQ(summary_bytes(scalar), summary_bytes(batched))
        << "diverged after batch ending at " << i + chunk << " seed " << GetParam();
    i += chunk;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestEquivalence, ::testing::Range<std::uint64_t>(1, 13));

TEST(IngestEquivalence, NearestCentroidMatchesPointSetScan) {
  // Store sizes 1..20 cover partial, single and multiple 8-row blocks of the
  // column scan, whose input is the transposed shadow the store keeps in
  // sync through add, merge and decay (tests/common/point_set_simd_test.cpp
  // pins the kernel itself at every level).
  for (std::size_t target_rows : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u, 20u}) {
    SummarizerConfig config;
    config.max_clusters = target_rows;
    config.min_absorb_radius = 0.5;  // tight radius: the stream mostly spawns
    MicroClusterSummarizer summarizer(config);
    Rng rng(0x5ca1 + target_rows);
    const std::size_t dim = 5;
    while (summarizer.store().size() < target_rows) {
      Point p(dim);
      for (std::size_t d = 0; d < dim; ++d) p[d] = rng.uniform(-200.0, 200.0);
      summarizer.add(p);
    }
    const MomentStore& store = summarizer.store();
    for (std::size_t q = 0; q < 200; ++q) {
      std::vector<double> query(dim);
      for (std::size_t d = 0; d < dim; ++d) query[d] = rng.uniform(-250.0, 250.0);
      if (q % 17 == 0) query[q % dim] = std::numeric_limits<double>::quiet_NaN();
      if (q % 23 == 0) query[q % dim] = std::numeric_limits<double>::infinity();
      if (q % 5 == 0) {
        // Coincident with a centroid: exact zero distance, tie-prone.
        const double* row = store.centroids().row(q % store.size());
        query.assign(row, row + dim);
      }
      double fast_dist = 0.0, ref_dist = 0.0;
      const std::size_t fast = store.nearest_centroid(query.data(), &fast_dist);
      const std::size_t ref = store.centroids().nearest_of(query.data(), &ref_dist);
      ASSERT_EQ(fast, ref) << "rows=" << target_rows << " query " << q;
      // Bitwise: NaN never wins the scan, so both sides report a real (or
      // +inf) squared distance and exact equality is well-defined.
      ASSERT_EQ(fast_dist, ref_dist) << "rows=" << target_rows << " query " << q;
    }
  }
}

TEST(IngestEquivalence, TiedDistancesPickTheFirstWinner) {
  // Two centroids symmetric about the query: identical distances, and the
  // scan must report the lower row like the scalar strict-`<` loop.
  SummarizerConfig config;
  config.max_clusters = 8;
  config.min_absorb_radius = 0.25;
  MicroClusterSummarizer summarizer(config);
  for (double x : {-10.0, 10.0, -20.0, 20.0, -30.0, 30.0}) {
    summarizer.add(Point{x, 0.0});
  }
  const double origin[2] = {0.0, 0.0};
  double dist = 0.0;
  EXPECT_EQ(summarizer.store().nearest_centroid(origin, &dist), 0u);
  EXPECT_EQ(dist, 100.0);
}

TEST(IngestEquivalence, AbsorbAndMergeAndDecayInvalidateCachedRadii) {
  SummarizerConfig config;
  config.max_clusters = 2;
  config.min_absorb_radius = 5.0;
  config.radius_factor = 1.0;
  config.epoch_decay = 0.5;
  MicroClusterSummarizer summarizer(config);
  summarizer.add(Point{0.0});
  const MomentStore& store = summarizer.store();
  EXPECT_FALSE(store.radius_cached(0));
  EXPECT_EQ(store.radius(0), 5.0);  // singleton: stddev 0, the floor wins
  EXPECT_TRUE(store.radius_cached(0));

  summarizer.add(Point{4.0});  // distance 4 < 5: absorbed into row 0
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.radius_cached(0)) << "absorb must invalidate the cache";
  EXPECT_EQ(store.radius(0), 5.0);  // stddev 2, floor still wins
  EXPECT_TRUE(store.radius_cached(0));

  summarizer.decay();
  EXPECT_FALSE(store.radius_cached(0)) << "decay must invalidate the cache";

  // Over-budget insert forces merge_rows; merged rows must recompute too.
  summarizer.add(Point{100.0});
  summarizer.add(Point{200.0});
  ASSERT_EQ(store.size(), 2u);
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_FALSE(store.radius_cached(i)) << "row " << i;
  }
}

TEST(IngestEquivalence, DecayGoldenSequence) {
  // Golden pin of the decay x radius interaction, derived from the
  // MicroCluster::scale contract (count rounds, moments scale by the
  // realized ratio so centroid and stddev are exactly preserved):
  //   add x=0, add x=4  ->  count 2, sum 4, sum2 16
  //   decay(0.5)        ->  count 1, sum 2, sum2 8
  // Variance before: 16/2 - 2^2 = 4. Variance after: 8/1 - 2^2 = 4. The
  // radius is max(5, 1 * sqrt(4)) = 5 both before and after.
  SummarizerConfig config;
  config.max_clusters = 2;
  config.min_absorb_radius = 5.0;
  config.radius_factor = 1.0;
  config.epoch_decay = 0.5;
  MicroClusterSummarizer summarizer(config);
  summarizer.add(Point{0.0});
  summarizer.add(Point{4.0});
  ASSERT_EQ(summarizer.clusters().size(), 1u);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].count(), 2u);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].sum()[0], 4.0);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].sum2()[0], 16.0);
  EXPECT_EQ(summarizer.store().radius(0), 5.0);

  summarizer.decay();
  ASSERT_EQ(summarizer.clusters().size(), 1u);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].count(), 1u);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].sum()[0], 2.0);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].sum2()[0], 8.0);
  EXPECT_FALSE(summarizer.store().radius_cached(0));
  EXPECT_EQ(summarizer.store().radius(0), 5.0);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].centroid()[0], 2.0);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].rms_stddev(), 2.0);
}

TEST(IngestEquivalence, RejectsAForeignDimension) {
  // A dimension mismatch is rejected before any state changes.
  MicroClusterSummarizer fast;
  fast.add(Point{1.0, 2.0});
  const auto before = summary_bytes(fast);
  EXPECT_THROW(fast.add(Point{1.0, 2.0, 3.0}), std::invalid_argument);
  EXPECT_EQ(fast.total_count(), 1u) << "a rejected 3-D add must not be recorded";
  EXPECT_EQ(summary_bytes(fast), before);
}

TEST(IngestEquivalence, ForeignDimensionRejectsTheWholeBatch) {
  MicroClusterSummarizer summarizer;
  summarizer.add(Point{5.0, 5.0});
  const auto before = summary_bytes(summarizer);

  PointSet wrong_dim(3);
  wrong_dim.push_back(Point{1.0, 1.0, 1.0});
  wrong_dim.push_back(Point{2.0, 2.0, 2.0});
  EXPECT_THROW(summarizer.add_batch(wrong_dim), std::invalid_argument)
      << "a dimension mismatch must reject the whole batch";
  EXPECT_EQ(summarizer.total_count(), 1u) << "a rejected batch must not be recorded";
  EXPECT_EQ(summary_bytes(summarizer), before);
}

TEST(IngestEquivalence, WeightedKMeansRejectsBadWeights) {
  WeightedPoints bad;
  bad.positions = PointSet::from_points({Point{0.0, 0.0}, Point{1.0, 1.0}});
  bad.weights = {1.0, -2.0};
  const PointSet start = PointSet::from_points({Point{0.0, 0.0}});
  KMeansConfig config;
  config.k = 1;
  Rng rng(7);
  EXPECT_THROW(weighted_kmeans(bad, config, rng), std::invalid_argument);
  EXPECT_THROW(weighted_kmeans_scalar(bad, config, rng), std::invalid_argument);
  EXPECT_THROW(weighted_kmeans_from(bad, start, config), std::invalid_argument);
  EXPECT_THROW(weighted_kmeans_from_scalar(bad, start, config), std::invalid_argument);
}

/// Restores the global pool (and with it GEORED_THREADS semantics) on exit.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::set_global_thread_count(0); }
};

TEST(IngestEquivalence, ManagerBytesAreIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < 10; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i),
                          Point{100.0 * static_cast<double>(i), 0.0},
                          std::numeric_limits<double>::infinity()});
  }
  core::ManagerConfig config;
  config.replication_degree = 3;
  config.summarizer.max_clusters = 4;

  const auto drive = [&](std::size_t threads) {
    ThreadPool::set_global_thread_count(threads);
    core::ReplicationManager manager(candidates, config, 42);
    Rng rng(0xd1ce);
    const auto& placement = manager.placement();
    for (std::size_t i = 0; i < 600; ++i) {
      const Point client{rng.uniform(0.0, 900.0), rng.uniform(-50.0, 50.0)};
      manager.record_access(placement[i % placement.size()], client);
    }
    // A chunked batch on top, then an epoch so collection, placement, and
    // decay all run downstream of the ingest.
    PointSet chunk(2);
    for (std::size_t i = 0; i < 40; ++i) {
      chunk.push_back(Point{rng.uniform(0.0, 900.0), rng.uniform(-50.0, 50.0)});
    }
    manager.record_access_batch(placement[0], chunk);
    manager.run_epoch();
    ByteWriter writer;
    manager.save(writer);
    return writer.bytes();
  };

  const auto bytes_one = drive(1);
  const auto bytes_four = drive(4);
  EXPECT_EQ(bytes_one, bytes_four)
      << "manager state must be byte-identical at any thread count";
}

}  // namespace
}  // namespace geored::cluster
