#include "core/decentralized.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "cluster/cluster_view.h"
#include "cluster/summary_frame.h"
#include "common/random.h"
#include "common/serialize.h"
#include "core/collector.h"
#include "placement/candidate_table.h"
#include "placement/strategy.h"
#include "placement/evaluate.h"
#include "reference/microcluster.h"
#include "topology/topology.h"

namespace geored::core {
namespace {

struct DecWorld {
  topo::Topology topology;
  std::vector<place::CandidateInfo> candidates;
  std::map<topo::NodeId, cluster::ClusterBuffer> summaries;
  /// The holders' summaries, viewed in node order.
  std::vector<SummarySource> sources;

  explicit DecWorld(std::size_t dc_count, std::size_t replicas, std::uint64_t seed)
      : topology(topo::Topology(std::vector<topo::NodeInfo>(0), SymMatrix(0), {})) {
    Rng rng(seed);
    std::vector<Point> positions;
    for (std::size_t i = 0; i < dc_count; ++i) {
      positions.push_back(Point{rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)});
    }
    SymMatrix rtt(dc_count);
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
    // The first `replicas` candidates currently hold the object; each
    // summarizes a client population near itself.
    for (std::size_t r = 0; r < replicas; ++r) {
      std::vector<cluster::MicroCluster> clusters;
      for (int c = 0; c < 4; ++c) {
        cluster::MicroCluster micro;
        for (int p = 0; p < 20; ++p) {
          Point point = positions[r];
          point[0] += rng.normal(0.0, 15.0);
          point[1] += rng.normal(0.0, 15.0);
          micro.absorb(point, 1.0);
        }
        clusters.push_back(micro);
      }
      summaries.emplace(static_cast<topo::NodeId>(r), cluster::to_cluster_buffer(clusters));
    }
    for (const auto& [node, clusters] : summaries) sources.push_back({node, clusters.view()});
  }
};

TEST(Decentralized, AllReplicasAgreeOnTheProposal) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    DecWorld world(12, 3, seed);
    sim::Simulator simulator;
    sim::Network network(simulator, world.topology);
    const auto strategy = place::make_strategy("online");
    const auto result = run_decentralized_epoch(simulator, network, world.candidates,
                                                world.sources, 3, seed, *strategy);
    EXPECT_TRUE(result.agreement) << "seed " << seed;
    ASSERT_EQ(result.per_replica.size(), 3u);
    for (const auto& decision : result.per_replica) {
      EXPECT_EQ(decision, result.proposal);
    }
  }
}

TEST(Decentralized, MatchesTheCentralizedComputation) {
  DecWorld world(10, 3, 7);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  const auto strategy = place::make_strategy("online");
  const auto result = run_decentralized_epoch(simulator, network, world.candidates,
                                              world.sources, 3, 99, *strategy);

  // Central reference: identical summaries in source-id order + same seed.
  place::PlacementInput input;
  input.candidates = world.candidates;
  input.k = 3;
  input.seed = 99;
  for (const auto& [source, clusters] : world.summaries) {
    input.summaries.append(clusters.view());
  }
  const auto central = place::make_strategy("online")->place(input);
  EXPECT_EQ(result.proposal, central);
}

TEST(Decentralized, ExchangesKSquaredSummaries) {
  DecWorld world(12, 4, 3);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  const auto strategy = place::make_strategy("online");
  const auto result = run_decentralized_epoch(simulator, network, world.candidates,
                                              world.sources, 3, 1, *strategy);
  const auto& stats = network.stats();
  EXPECT_EQ(stats.messages[static_cast<std::size_t>(sim::TrafficClass::kSummary)],
            4u * 3u);  // k*(k-1) with k = 4 holders
  EXPECT_GT(result.summary_bytes, 0u);
  // Completion bounded by the slowest pairwise half-RTT among holders.
  double worst = 0.0;
  for (topo::NodeId a = 0; a < 4; ++a) {
    for (topo::NodeId b = 0; b < 4; ++b) {
      if (a != b) worst = std::max(worst, world.topology.rtt_ms(a, b) / 2.0);
    }
  }
  EXPECT_NEAR(result.completion_ms, worst, 1e-9);
}

TEST(Decentralized, SummaryTrafficIsTheFramesSent) {
  // Every holder sends its centroid frame to each of its peers. In phase 2
  // every replica derives the hand-off plan from the agreed proposal, so no
  // mask travels: each holder sends each destination of its departing
  // clusters one departing moment frame, and a staying cluster is not sent.
  DecWorld world(12, 4, 5);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  const auto strategy = place::make_strategy("online");
  const auto result = run_decentralized_epoch(simulator, network, world.candidates,
                                              world.sources, 3, 1, *strategy);
  std::uint64_t expected = 0;
  for (const auto& [node, clusters] : world.summaries) {
    ByteWriter centroids;
    cluster::write_centroid_frame(centroids, clusters.view());
    expected += centroids.size() * (world.summaries.size() - 1);
  }
  EXPECT_EQ(result.summary_bytes, expected);
  const auto summary = static_cast<std::size_t>(sim::TrafficClass::kSummary);
  EXPECT_EQ(network.stats().bytes[summary], expected);

  cluster::ClusterBuffer planned;
  for (const auto& [node, clusters] : world.summaries) {
    planned.append_centroids(clusters.view(), node);
  }
  const place::CandidateTable table(world.candidates);
  plan_handoff(result.proposal, table, planned);
  // The frames from the codec: per (holder, destination), a mask over the
  // holder's clusters marking the ones bound there.
  std::uint64_t expected_moments = 0;
  std::uint64_t frames = 0;
  std::size_t row = 0;
  for (const auto& [node, clusters] : world.summaries) {
    for (const auto destination : result.proposal) {
      if (destination == node) continue;
      cluster::DepartureMask mask(clusters.size());
      for (std::size_t i = 0; i < clusters.size(); ++i) {
        if (planned.destination(row + i) == destination) mask.set(i);
      }
      if (mask.departing() == 0) continue;
      ByteWriter moments;
      cluster::write_departing_moment_frame(moments, clusters.view(), mask);
      expected_moments += moments.size();
      ++frames;
    }
    row += clusters.size();
  }
  ASSERT_GT(frames, 0u);
  const std::uint64_t messages_before = network.stats().messages[summary];
  EXPECT_EQ(exchange_departing_frames(simulator, network, planned), expected_moments);
  EXPECT_EQ(network.stats().bytes[summary], expected + expected_moments);
  EXPECT_EQ(network.stats().messages[summary], messages_before + frames);
}

TEST(Decentralized, SingleReplicaDecidesAlone) {
  DecWorld world(8, 1, 11);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  const auto strategy = place::make_strategy("online");
  const auto result = run_decentralized_epoch(simulator, network, world.candidates,
                                              world.sources, 2, 5, *strategy);
  EXPECT_TRUE(result.agreement);
  EXPECT_EQ(result.per_replica.size(), 1u);
  EXPECT_EQ(result.proposal.size(), 2u);
  EXPECT_EQ(network.stats().messages[static_cast<std::size_t>(sim::TrafficClass::kSummary)],
            0u);
}

TEST(Decentralized, ValidatesArguments) {
  DecWorld world(8, 2, 1);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  const auto strategy = place::make_strategy("online");
  EXPECT_THROW(
      run_decentralized_epoch(simulator, network, {}, world.sources, 2, 1, *strategy),
      std::invalid_argument);
  EXPECT_THROW(
      run_decentralized_epoch(simulator, network, world.candidates, {}, 2, 1, *strategy),
      std::invalid_argument);
}

}  // namespace
}  // namespace geored::core
