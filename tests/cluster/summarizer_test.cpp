#include "cluster/summarizer.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "reference/microcluster.h"

namespace geored::cluster {
namespace {

SummarizerConfig config_with(std::size_t m, double radius = 5.0) {
  SummarizerConfig config;
  config.max_clusters = m;
  config.min_absorb_radius = radius;
  return config;
}

TEST(Summarizer, RejectsInvalidConfig) {
  SummarizerConfig config;
  config.max_clusters = 0;
  EXPECT_THROW(MicroClusterSummarizer{config}, std::invalid_argument);
  config = {};
  config.min_absorb_radius = -1.0;
  EXPECT_THROW(MicroClusterSummarizer{config}, std::invalid_argument);
  config = {};
  config.epoch_decay = 0.0;
  EXPECT_THROW(MicroClusterSummarizer{config}, std::invalid_argument);
}

TEST(Summarizer, FirstAccessCreatesCluster) {
  MicroClusterSummarizer summarizer(config_with(4));
  summarizer.add(Point{10.0, 20.0});
  ASSERT_EQ(summarizer.clusters().size(), 1u);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].centroid(), (Point{10.0, 20.0}));
  EXPECT_EQ(summarizer.total_count(), 1u);
}

TEST(Summarizer, NearbyAccessIsAbsorbed) {
  MicroClusterSummarizer summarizer(config_with(4, /*radius=*/10.0));
  summarizer.add(Point{0.0, 0.0});
  summarizer.add(Point{3.0, 4.0});  // distance 5 < radius 10
  ASSERT_EQ(summarizer.clusters().size(), 1u);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].count(), 2u);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].centroid(), (Point{1.5, 2.0}));
}

TEST(Summarizer, FarAccessSpawnsNewCluster) {
  MicroClusterSummarizer summarizer(config_with(4, 10.0));
  summarizer.add(Point{0.0, 0.0});
  summarizer.add(Point{100.0, 0.0});
  EXPECT_EQ(summarizer.clusters().size(), 2u);
}

TEST(Summarizer, ClusterBudgetIsEnforcedByMergingClosestPair) {
  MicroClusterSummarizer summarizer(config_with(2, 1.0));
  summarizer.add(Point{0.0, 0.0});
  summarizer.add(Point{10.0, 0.0});
  summarizer.add(Point{100.0, 0.0});  // 3rd cluster: the two closest (0,10) merge
  ASSERT_EQ(summarizer.clusters().size(), 2u);
  // One cluster should be the merged {0,10} pair at centroid 5.
  bool found_merged = false;
  for (const auto& cluster : to_micro_clusters(summarizer.clusters())) {
    if (cluster.count() == 2) {
      EXPECT_EQ(cluster.centroid(), (Point{5.0, 0.0}));
      found_merged = true;
    }
  }
  EXPECT_TRUE(found_merged);
}

TEST(Summarizer, NeverExceedsBudget) {
  MicroClusterSummarizer summarizer(config_with(7, 2.0));
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    summarizer.add(Point{rng.uniform(-500, 500), rng.uniform(-500, 500)});
    ASSERT_LE(summarizer.clusters().size(), 7u);
  }
  EXPECT_EQ(summarizer.clusters().size(), 7u);
  EXPECT_EQ(summarizer.total_count(), 5000u);
}

TEST(Summarizer, AccessCountIsConservedAcrossMerges) {
  MicroClusterSummarizer summarizer(config_with(3, 1.0));
  Rng rng(7);
  constexpr int kAccesses = 1000;
  for (int i = 0; i < kAccesses; ++i) {
    summarizer.add(Point{rng.uniform(0, 300), rng.uniform(0, 300)});
  }
  std::uint64_t total = 0;
  for (const auto& cluster : to_micro_clusters(summarizer.clusters())) {
    total += cluster.count();
  }
  EXPECT_EQ(total, kAccesses);
}

TEST(Summarizer, AdaptiveRadiusAbsorbsIntoSpreadClusters) {
  // A cluster with real spread absorbs points within its stddev even beyond
  // the singleton floor radius.
  MicroClusterSummarizer summarizer(config_with(4, 1.0));
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    summarizer.add(Point{rng.normal(0.0, 20.0), rng.normal(0.0, 20.0)});
  }
  // All points in one region; the summarizer should not use all 4 clusters
  // for long — most points land inside the dominant cluster's deviation.
  std::uint64_t biggest = 0;
  for (const auto& cluster : to_micro_clusters(summarizer.clusters())) {
    biggest = std::max(biggest, cluster.count());
  }
  EXPECT_GT(biggest, 100u);
}

TEST(Summarizer, TwoPopulationsYieldTwoDominantClusters) {
  MicroClusterSummarizer summarizer(config_with(4, 5.0));
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    if (i % 2 == 0) {
      summarizer.add(Point{rng.normal(0.0, 5.0), rng.normal(0.0, 5.0)});
    } else {
      summarizer.add(Point{rng.normal(200.0, 5.0), rng.normal(0.0, 5.0)});
    }
  }
  // Count mass near each population.
  std::uint64_t near_zero = 0, near_two_hundred = 0;
  for (const auto& cluster : to_micro_clusters(summarizer.clusters())) {
    if (cluster.centroid()[0] < 100.0) {
      near_zero += cluster.count();
    } else {
      near_two_hundred += cluster.count();
    }
  }
  EXPECT_NEAR(static_cast<double>(near_zero), 250.0, 25.0);
  EXPECT_NEAR(static_cast<double>(near_two_hundred), 250.0, 25.0);
}

TEST(Summarizer, DecayHalvesCountsAndDropsEmptyClusters) {
  SummarizerConfig config = config_with(4, 5.0);
  config.epoch_decay = 0.5;
  MicroClusterSummarizer summarizer(config);
  for (int i = 0; i < 100; ++i) summarizer.add(Point{0.0, 0.0});
  summarizer.add(Point{500.0, 0.0});  // singleton far away
  ASSERT_EQ(summarizer.clusters().size(), 2u);

  summarizer.decay();
  // 100 -> 50; the singleton (1 * 0.5 rounds to 1... rounds to 0 or 1?)
  // scale() rounds half up: 0.5 + 0.5 = 1, so it survives at count 1.
  std::uint64_t total = 0;
  for (const auto& cluster : to_micro_clusters(summarizer.clusters())) {
    total += cluster.count();
  }
  EXPECT_EQ(total, 51u);

  // Decaying repeatedly eventually drops everything.
  for (int i = 0; i < 20; ++i) summarizer.decay();
  std::uint64_t remaining = 0;
  for (const auto& cluster : to_micro_clusters(summarizer.clusters())) {
    remaining += cluster.count();
  }
  EXPECT_LE(remaining, 2u);
}

TEST(Summarizer, ClearResetsState) {
  MicroClusterSummarizer summarizer(config_with(4));
  summarizer.add(Point{1.0, 2.0});
  summarizer.clear();
  EXPECT_TRUE(summarizer.clusters().empty());
  EXPECT_EQ(summarizer.total_count(), 0u);
}

TEST(Summarizer, MergeClusterInsertsWholeCluster) {
  MicroClusterSummarizer summarizer(config_with(2, 1.0));
  MicroCluster external;
  for (int i = 0; i < 10; ++i) external.absorb(Point{50.0 + i, 0.0}, 1.0);
  summarizer.merge_cluster(external);
  ASSERT_EQ(summarizer.clusters().size(), 1u);
  EXPECT_EQ(to_micro_clusters(summarizer.clusters())[0].count(), 10u);
  // Budget still enforced through merge_cluster.
  summarizer.merge_cluster(MicroCluster(Point{0.0, 0.0}, 1.0));
  summarizer.merge_cluster(MicroCluster(Point{500.0, 0.0}, 1.0));
  EXPECT_LE(summarizer.clusters().size(), 2u);
  // Empty clusters are ignored.
  summarizer.merge_cluster(MicroCluster());
  EXPECT_LE(summarizer.clusters().size(), 2u);
}

TEST(Summarizer, SerializationRoundTrip) {
  MicroClusterSummarizer summarizer(config_with(4, 5.0));
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    summarizer.add(Point{rng.uniform(0, 400), rng.uniform(0, 400)});
  }
  ByteWriter writer;
  write_clusters(writer, summarizer.clusters());
  ByteReader reader(writer.bytes());
  const auto clusters = to_micro_clusters(read_clusters(reader).view());
  EXPECT_TRUE(reader.exhausted());
  const auto held = to_micro_clusters(summarizer.clusters());
  ASSERT_EQ(clusters.size(), held.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    EXPECT_EQ(clusters[i].count(), held[i].count());
    EXPECT_EQ(clusters[i].sum(), held[i].sum());
  }
}

TEST(Summarizer, DeterministicGivenSameStream) {
  MicroClusterSummarizer a(config_with(5)), b(config_with(5));
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.uniform(0, 100), rng.uniform(0, 100)};
    a.add(p);
    b.add(p);
  }
  const auto a_clusters = to_micro_clusters(a.clusters());
  const auto b_clusters = to_micro_clusters(b.clusters());
  ASSERT_EQ(a_clusters.size(), b_clusters.size());
  for (std::size_t i = 0; i < a_clusters.size(); ++i) {
    EXPECT_EQ(a_clusters[i].count(), b_clusters[i].count());
    EXPECT_EQ(a_clusters[i].sum(), b_clusters[i].sum());
  }
}

/// Fidelity property: with m micro-clusters over g << m well-separated
/// population centres, the summary's weighted centroid error is small.
class SummarizerFidelity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SummarizerFidelity, CentroidsTrackPopulations) {
  const std::size_t m = GetParam();
  MicroClusterSummarizer summarizer(config_with(m, 5.0));
  Rng rng(23);
  const std::vector<Point> centres{{0.0, 0.0}, {300.0, 0.0}, {0.0, 300.0}};
  for (int i = 0; i < 3000; ++i) {
    const auto& c = centres[rng.below(3)];
    summarizer.add(Point{c[0] + rng.normal(0, 8.0), c[1] + rng.normal(0, 8.0)});
  }
  // Every population centre must have a micro-cluster centroid within 30 ms.
  for (const auto& centre : centres) {
    double best = 1e18;
    for (const auto& cluster : to_micro_clusters(summarizer.clusters())) {
      best = std::min(best, centre.distance_to(cluster.centroid()));
    }
    EXPECT_LT(best, 30.0) << "m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(MicroBudgets, SummarizerFidelity, ::testing::Values(3, 4, 7, 11));

}  // namespace
}  // namespace geored::cluster
