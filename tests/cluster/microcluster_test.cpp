#include "reference/microcluster.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/summary_frame.h"
#include "common/random.h"
#include "common/stats.h"

namespace geored::cluster {
namespace {

TEST(MicroCluster, SingletonHasZeroSpread) {
  const MicroCluster cluster(Point{3.0, -4.0}, 2.5);
  EXPECT_EQ(cluster.count(), 1u);
  EXPECT_DOUBLE_EQ(cluster.weight(), 2.5);
  EXPECT_EQ(cluster.centroid(), (Point{3.0, -4.0}));
  EXPECT_DOUBLE_EQ(cluster.rms_stddev(), 0.0);
}

TEST(MicroCluster, EmptyClusterThrowsOnDerivedStats) {
  MicroCluster cluster;
  EXPECT_EQ(cluster.count(), 0u);
  EXPECT_THROW((void)cluster.centroid(), std::invalid_argument);
  EXPECT_THROW((void)cluster.rms_stddev(), std::invalid_argument);
}

TEST(MicroCluster, MomentsMatchDirectComputation) {
  // The paper stores only (count, weight, sum, sum2); centroid and stddev
  // derived from them must match a direct two-pass computation.
  Rng rng(11);
  std::vector<Point> points;
  MicroCluster cluster;
  for (int i = 0; i < 500; ++i) {
    Point p{rng.normal(10.0, 3.0), rng.normal(-5.0, 1.0)};
    points.push_back(p);
    cluster.absorb(p, 1.0);
  }
  // Direct per-dimension statistics.
  OnlineStats dim0, dim1;
  for (const auto& p : points) {
    dim0.add(p[0]);
    dim1.add(p[1]);
  }
  const Point centroid = cluster.centroid();
  EXPECT_NEAR(centroid[0], dim0.mean(), 1e-9);
  EXPECT_NEAR(centroid[1], dim1.mean(), 1e-9);
  const double expected_rms =
      std::sqrt(dim0.population_variance() + dim1.population_variance());
  EXPECT_NEAR(cluster.rms_stddev(), expected_rms, 1e-9);
}

TEST(MicroCluster, MergePreservesMomentsExactly) {
  Rng rng(13);
  MicroCluster all, left, right;
  for (int i = 0; i < 200; ++i) {
    Point p{rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50)};
    const double w = rng.uniform(0.1, 2.0);
    all.absorb(p, w);
    (i % 2 == 0 ? left : right).absorb(p, w);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.weight(), all.weight(), 1e-9);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_NEAR(left.sum()[d], all.sum()[d], 1e-9);
    EXPECT_NEAR(left.sum2()[d], all.sum2()[d], 1e-6);
  }
  EXPECT_NEAR(left.rms_stddev(), all.rms_stddev(), 1e-9);
}

TEST(MicroCluster, MergeWithEmptySides) {
  MicroCluster a(Point{1.0}, 1.0), empty;
  MicroCluster a_copy = a;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a_copy);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.centroid(), (Point{1.0}));
}

TEST(MicroCluster, MergeRejectsDimensionMismatch) {
  MicroCluster a(Point{1.0}, 1.0);
  const MicroCluster b(Point{1.0, 2.0}, 1.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.absorb(Point{1.0, 2.0}, 1.0), std::invalid_argument);
}

TEST(MicroCluster, ScalePreservesCentroidAndSpread) {
  Rng rng(17);
  MicroCluster cluster;
  for (int i = 0; i < 1000; ++i) {
    cluster.absorb(Point{rng.normal(5.0, 2.0), rng.normal(0.0, 4.0)}, 1.5);
  }
  const Point centroid_before = cluster.centroid();
  const double stddev_before = cluster.rms_stddev();
  const double weight_before = cluster.weight();

  cluster.scale(0.5);
  EXPECT_EQ(cluster.count(), 500u);
  EXPECT_NEAR(cluster.weight(), weight_before * 0.5, 1e-9);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_NEAR(cluster.centroid()[d], centroid_before[d], 1e-9);
  }
  EXPECT_NEAR(cluster.rms_stddev(), stddev_before, 1e-9);
}

TEST(MicroCluster, ScaleToZeroEmptiesCluster) {
  MicroCluster cluster(Point{1.0}, 1.0);
  cluster.scale(0.2);  // 1 * 0.2 rounds to 0
  EXPECT_EQ(cluster.count(), 0u);
  EXPECT_DOUBLE_EQ(cluster.weight(), 0.0);
}

TEST(MicroCluster, ScaleRejectsInvalidFactor) {
  MicroCluster cluster(Point{1.0}, 1.0);
  EXPECT_THROW(cluster.scale(0.0), std::invalid_argument);
  EXPECT_THROW(cluster.scale(1.5), std::invalid_argument);
}

TEST(MicroCluster, SerializationRoundTrip) {
  Rng rng(19);
  MicroCluster cluster;
  for (int i = 0; i < 50; ++i) {
    cluster.absorb(Point{rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100),
                         rng.uniform(0, 100), rng.uniform(0, 100)},
                   rng.uniform(0.5, 3.0));
  }
  // A cluster travels in a summary frame: here a frame of one.
  ByteWriter writer;
  write_clusters(writer, cluster);
  EXPECT_EQ(writer.size(), serialized_size(cluster));

  ByteReader reader(writer.bytes());
  const std::vector<MicroCluster> restored = to_micro_clusters(read_clusters(reader).view());
  EXPECT_TRUE(reader.exhausted());
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored[0].count(), cluster.count());
  // No frame carries the weight: a copied-out cluster's weight is its count.
  EXPECT_EQ(restored[0].weight(), static_cast<double>(cluster.count()));
  EXPECT_EQ(restored[0].sum(), cluster.sum());
  EXPECT_EQ(restored[0].sum2(), cluster.sum2());
}

TEST(MicroCluster, SerializedSizeIsSmall) {
  // The paper: "the size of each micro-cluster is less than 1KB". In a
  // 5-dimensional frame a cluster takes a varint header ((count << 1) | 1,
  // two bytes for counts 64..8191) and 10 doubles, whatever the object's
  // weight; the frame adds its cluster count and dimension once.
  MicroCluster weighted(Point(5), 1.0);
  for (int i = 0; i < 99; ++i) weighted.absorb(Point(5), 2.0);
  MicroCluster unit(Point(5), 1.0);
  for (int i = 0; i < 99; ++i) unit.absorb(Point(5), 1.0);
  EXPECT_EQ(serialized_size(weighted), 1u + 1u + 2u + 80u);
  EXPECT_EQ(serialized_size(unit), 1u + 1u + 2u + 80u);
  EXPECT_EQ(serialized_size(to_cluster_buffer({weighted, unit}).view()), 1u + 1u + 82u + 82u);
  EXPECT_LT(serialized_size(weighted), 100u);
}

TEST(MicroCluster, AbsorbRejectsNegativeWeight) {
  MicroCluster cluster;
  EXPECT_THROW(cluster.absorb(Point{1.0}, -1.0), std::invalid_argument);
}

TEST(MicroCluster, NumericalRobustnessOfStddev) {
  // Identical far-from-origin points: cancellation must not produce NaN.
  MicroCluster cluster;
  for (int i = 0; i < 100; ++i) cluster.absorb(Point{1e8, 1e8}, 1.0);
  EXPECT_GE(cluster.rms_stddev(), 0.0);
  EXPECT_FALSE(std::isnan(cluster.rms_stddev()));
}

}  // namespace
}  // namespace geored::cluster
