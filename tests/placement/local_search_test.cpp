#include "placement/local_search.h"

#include <gtest/gtest.h>

#include <limits>

#include "cluster/summarizer.h"
#include "common/random.h"
#include "placement/evaluate.h"
#include "placement/random_placement.h"
#include "placement/strategy.h"
#include "topology/topology.h"

namespace geored::place {
namespace {

/// World where coordinates are exact (RTT == coordinate distance), so the
/// estimated objective local search optimizes equals the true one.
struct SearchWorld {
  topo::Topology topology;
  PlacementInput input;

  explicit SearchWorld(std::uint64_t seed, std::size_t candidates = 10,
                       std::size_t clients = 40)
      : topology(topo::Topology(std::vector<topo::NodeInfo>(0), SymMatrix(0), {})) {
    Rng rng(seed);
    std::vector<Point> positions;
    const std::size_t n = candidates + clients;
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back(Point{rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)});
    }
    SymMatrix rtt(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        rtt.set(i, j, std::max(0.01, positions[i].distance_to(positions[j])));
      }
    }
    topology = topo::Topology(std::vector<topo::NodeInfo>(n), std::move(rtt), {});
    for (std::size_t i = 0; i < candidates; ++i) {
      input.candidates.push_back({static_cast<topo::NodeId>(i), positions[i],
                                  std::numeric_limits<double>::infinity()});
    }
    for (std::size_t i = candidates; i < n; ++i) {
      ClientRecord record;
      record.client = static_cast<topo::NodeId>(i);
      record.coords = positions[i];
      record.access_count = 1 + rng.below(10);
      input.clients.push_back(record);
    }
    input.k = 3;
    input.seed = seed;
    input.topology = &topology;
  }
};

TEST(LocalSearch, RejectsInvalidConfig) {
  LocalSearchConfig config;
  config.max_rounds = 0;
  EXPECT_THROW(LocalSearchPlacement(nullptr, config), std::invalid_argument);
  config = {};
  config.tolerance = -1.0;
  EXPECT_THROW(LocalSearchPlacement(nullptr, config), std::invalid_argument);
}

TEST(LocalSearch, NameReflectsSeedStrategy) {
  EXPECT_EQ(LocalSearchPlacement().name(), "online clustering +local-search");
  EXPECT_EQ(LocalSearchPlacement(std::make_unique<RandomPlacement>()).name(),
            "random +local-search");
}

TEST(LocalSearch, ProducesValidPlacements) {
  const SearchWorld world(1);
  LocalSearchPlacement strategy(std::make_unique<RandomPlacement>());
  for (std::size_t k = 1; k <= 5; ++k) {
    PlacementInput input = world.input;
    input.k = k;
    const auto placement = strategy.place(input);
    EXPECT_NO_THROW(validate_placement(placement, input)) << "k=" << k;
  }
}

/// The defining property: local search never yields a worse placement than
/// its seed, under the estimated (== true, here) objective.
class LocalSearchImproves : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalSearchImproves, NeverWorseThanRandomSeed) {
  const SearchWorld world(GetParam());
  RandomPlacement seed_strategy;
  const auto seed_placement = seed_strategy.place(world.input);
  LocalSearchPlacement refined(std::make_unique<RandomPlacement>());
  const auto refined_placement = refined.place(world.input);
  const double seed_delay =
      true_total_delay(world.topology, seed_placement, world.input.clients);
  const double refined_delay =
      true_total_delay(world.topology, refined_placement, world.input.clients);
  EXPECT_LE(refined_delay, seed_delay + 1e-9);
}

TEST_P(LocalSearchImproves, ReachesTheGlobalOptimumFromRandomSeeds) {
  // On these small instances vertex substitution from a random start lands
  // on the true optimum (characteristic strength of Teitz-Bart).
  const SearchWorld world(GetParam(), /*candidates=*/8, /*clients=*/25);
  const auto optimal = make_strategy(StrategyKind::kOptimal)->place(world.input);
  const double optimal_delay =
      true_total_delay(world.topology, optimal, world.input.clients);
  LocalSearchPlacement refined(std::make_unique<RandomPlacement>());
  const double refined_delay = true_total_delay(
      world.topology, refined.place(world.input), world.input.clients);
  EXPECT_NEAR(refined_delay, optimal_delay, optimal_delay * 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalSearchImproves, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(LocalSearch, RefinesOnlineClusteringByDefault) {
  double online_total = 0.0, refined_total = 0.0;
  for (std::uint64_t seed = 10; seed < 18; ++seed) {
    SearchWorld world(seed);
    // Give the online strategy summaries to work from.
    cluster::SummarizerConfig config;
    config.max_clusters = 8;
    cluster::MicroClusterSummarizer summarizer(config);
    for (const auto& client : world.input.clients) {
      for (std::uint64_t a = 0; a < client.access_count; ++a) {
        summarizer.add(client.coords);
      }
    }
    world.input.summaries = cluster::ClusterBuffer(summarizer.clusters());

    const auto online = make_strategy(StrategyKind::kOnlineClustering)->place(world.input);
    const auto refined = LocalSearchPlacement().place(world.input);
    online_total += true_total_delay(world.topology, online, world.input.clients);
    refined_total += true_total_delay(world.topology, refined, world.input.clients);
  }
  EXPECT_LE(refined_total, online_total + 1e-9);
}

TEST(LocalSearch, NoClientsFallsBackToSeed) {
  SearchWorld world(3);
  world.input.clients.clear();
  LocalSearchPlacement strategy(std::make_unique<RandomPlacement>());
  const auto placement = strategy.place(world.input);
  EXPECT_EQ(placement, RandomPlacement().place(world.input));
}

TEST(LocalSearch, AllCandidatesChosenIsStable) {
  SearchWorld world(5, /*candidates=*/3, /*clients=*/10);
  world.input.k = 3;  // uses every candidate; no swap possible
  LocalSearchPlacement strategy(std::make_unique<RandomPlacement>());
  const auto placement = strategy.place(world.input);
  EXPECT_NO_THROW(validate_placement(placement, world.input));
}

}  // namespace
}  // namespace geored::place
