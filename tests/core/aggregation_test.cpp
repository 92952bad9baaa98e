#include "core/aggregation.h"

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <set>

#include "cluster/summary_frame.h"
#include "common/random.h"
#include "common/serialize.h"
#include "reference/microcluster.h"
#include "topology/topology.h"

namespace geored::core {
namespace {

/// 1-D world: data centers at x = 0, 100, ..., and summary sources holding
/// micro-clusters of synthetic populations near their own location.
struct AggWorld {
  topo::Topology topology;
  std::vector<place::CandidateInfo> candidates;
  /// What the sources view, one population each.
  std::deque<cluster::ClusterBuffer> populations;
  std::vector<SummarySource> sources;

  explicit AggWorld(std::size_t dc_count, std::size_t source_count, std::uint64_t seed)
      : topology(topo::Topology(std::vector<topo::NodeInfo>(0), SymMatrix(0), {})) {
    SymMatrix rtt(dc_count);
    std::vector<Point> positions;
    for (std::size_t i = 0; i < dc_count; ++i) {
      positions.push_back(Point{100.0 * static_cast<double>(i)});
    }
    for (std::size_t i = 0; i < dc_count; ++i) {
      for (std::size_t j = i + 1; j < dc_count; ++j) {
        rtt.set(i, j, std::max(0.1, positions[i].distance_to(positions[j])));
      }
    }
    topology = topo::Topology(std::vector<topo::NodeInfo>(dc_count), std::move(rtt), {});
    for (std::size_t i = 0; i < dc_count; ++i) {
      candidates.push_back({static_cast<topo::NodeId>(i), positions[i],
                            std::numeric_limits<double>::infinity()});
    }
    Rng rng(seed);
    for (std::size_t s = 0; s < source_count; ++s) {
      SummarySource source;
      source.node = static_cast<topo::NodeId>(s % dc_count);
      const double center = 100.0 * static_cast<double>(s % dc_count);
      std::vector<cluster::MicroCluster> population;
      for (int c = 0; c < 4; ++c) {
        cluster::MicroCluster micro;
        for (int p = 0; p < 25; ++p) {
          micro.absorb(Point{center + rng.normal(0.0, 10.0)}, 1.0);
        }
        population.push_back(micro);
      }
      source.clusters =
          populations.emplace_back(cluster::to_cluster_buffer(population)).view();
      sources.push_back(source);
    }
  }

  std::uint64_t total_count() const {
    std::uint64_t total = 0;
    for (const auto& source : sources) {
      for (const auto& micro : cluster::to_micro_clusters(source.clusters)) {
        total += micro.count();
      }
    }
    return total;
  }
};

TEST(Aggregation, PlanAssignsEverySourceToNearestAggregator) {
  const AggWorld world(10, 9, 1);
  const auto plan = plan_aggregation(world.candidates, world.sources, 7);
  ASSERT_EQ(plan.aggregators.size(), 3u);  // ceil(sqrt(9))
  std::set<topo::NodeId> unique(plan.aggregators.begin(), plan.aggregators.end());
  EXPECT_EQ(unique.size(), 3u);
  for (const auto& source : world.sources) {
    ASSERT_TRUE(plan.parent.contains(source.node));
    const auto chosen = plan.parent.at(source.node);
    // Verify nearest-aggregator assignment.
    const Point& coords = world.candidates[source.node].coords;
    for (const auto other : plan.aggregators) {
      EXPECT_LE(coords.distance_to(world.candidates[chosen].coords),
                coords.distance_to(world.candidates[other].coords) + 1e-9);
    }
  }
}

TEST(Aggregation, DefaultAggregatorCountIsSqrtOfSources) {
  const AggWorld world(10, 9, 1);
  const auto plan = plan_aggregation(world.candidates, world.sources, 7);
  EXPECT_EQ(plan.aggregators.size(), 3u);  // ceil(sqrt(9))
}

TEST(Aggregation, PlanValidation) {
  const AggWorld world(4, 4, 1);
  EXPECT_THROW(plan_aggregation({}, world.sources, 7), std::invalid_argument);
  EXPECT_THROW(plan_aggregation(world.candidates, {}, 7), std::invalid_argument);
}

TEST(Aggregation, TreeConservesAccessCounts) {
  const AggWorld world(8, 24, 3);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  const auto plan = plan_aggregation(world.candidates, world.sources, 7);
  const auto result = run_aggregation(simulator, network, plan, world.sources, /*root=*/0);
  std::uint64_t merged_count = 0;
  for (const auto& micro : cluster::to_micro_clusters(result.merged.view())) {
    merged_count += micro.count();
  }
  EXPECT_EQ(merged_count, world.total_count());
  EXPECT_GT(result.completion_ms, 0.0);
  // Root holds at most aggregators * m-hat clusters.
  EXPECT_LE(result.merged.size(), plan.aggregators.size() * kAggregatorClusterBudget);
}

TEST(Aggregation, RootBandwidthIsBoundedUnlikeFlat) {
  const AggWorld world(10, 100, 5);

  sim::Simulator tree_sim;
  sim::Network tree_net(tree_sim, world.topology);
  const auto plan = plan_aggregation(world.candidates, world.sources, 7);
  const auto tree = run_aggregation(tree_sim, tree_net, plan, world.sources, 0);

  sim::Simulator flat_sim;
  sim::Network flat_net(flat_sim, world.topology);
  const auto flat = run_flat_collection(flat_sim, flat_net, world.sources, 0);

  EXPECT_LT(tree.bytes_into_root, flat.bytes_into_root / 2);
  // Both deliver all the mass.
  std::uint64_t tree_count = 0, flat_count = 0;
  for (const auto& micro : cluster::to_micro_clusters(tree.merged.view())) {
    tree_count += micro.count();
  }
  for (const auto& micro : cluster::to_micro_clusters(flat.merged.view())) {
    flat_count += micro.count();
  }
  EXPECT_EQ(tree_count, flat_count);
}

/// Bytes of the full frame that carries `clusters`.
std::uint64_t frame_bytes(cluster::ClusterView clusters) {
  ByteWriter writer;
  cluster::write_clusters(writer, clusters);
  return writer.size();
}

/// Bytes of the centroid frame (phase 1) that carries `clusters`.
std::uint64_t centroid_bytes(cluster::ClusterView clusters) {
  ByteWriter writer;
  cluster::write_centroid_frame(writer, clusters);
  return writer.size();
}

/// Bytes of the moment frame (phase 2) that completes `clusters`.
std::uint64_t moment_bytes(cluster::ClusterView clusters) {
  ByteWriter writer;
  cluster::write_moment_frame(writer, clusters);
  return writer.size();
}

TEST(Aggregation, SummaryTrafficIsTheFramesSent) {
  // One source, so the tree has ceil(sqrt(1)) = 1 aggregator.
  const AggWorld world(6, 1, 9);
  std::uint64_t source_frames = 0;
  std::uint64_t source_centroid_frames = 0;
  std::uint64_t source_moment_frames = 0;
  for (const auto& source : world.sources) {
    source_frames += frame_bytes(source.clusters);
    source_centroid_frames += centroid_bytes(source.clusters);
    source_moment_frames += moment_bytes(source.clusters);
  }

  // Flat: every source's centroid frame goes straight to the root, and its
  // moment frame in phase 2.
  sim::Simulator flat_sim;
  sim::Network flat_net(flat_sim, world.topology);
  const auto flat = run_flat_collection(flat_sim, flat_net, world.sources, 0);
  EXPECT_EQ(flat.bytes_into_root, source_centroid_frames);
  EXPECT_EQ(flat.bytes_total, source_centroid_frames);
  EXPECT_EQ(run_moment_upload(flat_sim, flat_net, flat.forwarded, 0), source_moment_frames);
  EXPECT_EQ(flat_net.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)],
            source_centroid_frames + source_moment_frames);

  // A one-aggregator tree: the sources' full frames, then the centroid frame
  // of the aggregator's merged summary to the root, and its moment frame in
  // phase 2.
  sim::Simulator tree_sim;
  sim::Network tree_net(tree_sim, world.topology);
  const auto plan = plan_aggregation(world.candidates, world.sources, 7);
  ASSERT_EQ(plan.aggregators.size(), 1u);
  const auto tree = run_aggregation(tree_sim, tree_net, plan, world.sources, 0);
  ASSERT_EQ(tree.forwarded.size(), 1u);
  EXPECT_EQ(tree.forwarded.front().node, plan.aggregators.front());
  EXPECT_EQ(tree.forwarded.front().moment_bytes, moment_bytes(tree.merged.view()));
  EXPECT_EQ(tree.bytes_into_root, centroid_bytes(tree.merged.view()));
  EXPECT_EQ(tree.bytes_total, source_frames + tree.bytes_into_root);
  EXPECT_EQ(tree_net.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)],
            tree.bytes_total);
  EXPECT_EQ(run_moment_upload(tree_sim, tree_net, tree.forwarded, 0),
            moment_bytes(tree.merged.view()));
  EXPECT_EQ(tree_net.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)],
            tree.bytes_total + moment_bytes(tree.merged.view()));
}

TEST(Aggregation, MergedSummaryPreservesPopulationGeometry) {
  // Populations at x = 0, 100, ..., 700 must all be visible in the merged
  // summary (a centroid within 30 of each centre).
  const AggWorld world(8, 32, 9);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  const auto plan = plan_aggregation(world.candidates, world.sources, 7);
  const auto result = run_aggregation(simulator, network, plan, world.sources, 0);
  for (std::size_t centre = 0; centre < 8; ++centre) {
    const Point target{100.0 * static_cast<double>(centre)};
    double best = 1e18;
    for (const auto& micro : cluster::to_micro_clusters(result.merged.view())) {
      best = std::min(best, micro.centroid().distance_to(target));
    }
    EXPECT_LT(best, 30.0) << "population " << centre;
  }
}

TEST(Aggregation, TwoHopCollectionTakesLongerThanFlat) {
  const AggWorld world(10, 40, 11);
  const auto plan = plan_aggregation(world.candidates, world.sources, 7);

  sim::Simulator tree_sim;
  sim::Network tree_net(tree_sim, world.topology);
  const auto tree = run_aggregation(tree_sim, tree_net, plan, world.sources, 0);

  sim::Simulator flat_sim;
  sim::Network flat_net(flat_sim, world.topology);
  const auto flat = run_flat_collection(flat_sim, flat_net, world.sources, 0);

  // The bandwidth saving costs one extra hop of latency.
  EXPECT_GE(tree.completion_ms, flat.completion_ms);
}

}  // namespace
}  // namespace geored::core
