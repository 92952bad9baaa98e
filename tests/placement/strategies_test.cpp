#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "cluster/summarizer.h"
#include "common/random.h"
#include "placement/evaluate.h"
#include "placement/strategy.h"
#include "topology/topology.h"

namespace geored::place {
namespace {

/// Builds a topology whose RTT matrix is exactly the pairwise distance of
/// the given 2-D positions — a perfectly embeddable world, so strategy
/// quality is isolated from coordinate error.
topo::Topology topology_from_positions(const std::vector<Point>& positions) {
  SymMatrix rtt(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      rtt.set(i, j, std::max(0.01, positions[i].distance_to(positions[j])));
    }
  }
  return topo::Topology(std::vector<topo::NodeInfo>(positions.size()), std::move(rtt), {});
}

/// A world with three client population centres and candidates scattered
/// both near and far from them.
struct World {
  std::vector<Point> positions;  // node id -> position
  topo::Topology topology;
  PlacementInput input;          // fully populated (summaries included)

  explicit World(std::uint64_t seed, std::size_t num_candidates = 12,
                 std::size_t clients_per_centre = 30)
      : topology(topo::Topology(std::vector<topo::NodeInfo>(0), SymMatrix(0), {})) {
    Rng rng(seed);
    const std::vector<Point> centres{{0.0, 0.0}, {300.0, 0.0}, {150.0, 260.0}};

    // Candidates first (ids 0..num_candidates-1), spread over the map.
    for (std::size_t c = 0; c < num_candidates; ++c) {
      positions.push_back(Point{rng.uniform(-50.0, 350.0), rng.uniform(-50.0, 310.0)});
    }
    // Clients clustered around the population centres.
    for (const auto& centre : centres) {
      for (std::size_t i = 0; i < clients_per_centre; ++i) {
        positions.push_back(
            Point{centre[0] + rng.normal(0, 15.0), centre[1] + rng.normal(0, 15.0)});
      }
    }
    topology = topology_from_positions(positions);

    for (std::size_t c = 0; c < num_candidates; ++c) {
      input.candidates.push_back({static_cast<topo::NodeId>(c), positions[c],
                                  std::numeric_limits<double>::infinity()});
    }
    for (std::size_t u = num_candidates; u < positions.size(); ++u) {
      ClientRecord record;
      record.client = static_cast<topo::NodeId>(u);
      record.coords = positions[u];
      record.access_count = 1 + rng.below(20);
      input.clients.push_back(record);
    }
    input.topology = &topology;
    input.k = 3;
    input.seed = seed;

    // Summaries: one summarizer observing all accesses (as if one initial
    // replica served everyone).
    cluster::SummarizerConfig summarizer_config;
    summarizer_config.max_clusters = 12;
    cluster::MicroClusterSummarizer summarizer(summarizer_config);
    for (const auto& client : input.clients) {
      for (std::uint64_t a = 0; a < client.access_count; ++a) {
        summarizer.add(client.coords);
      }
    }
    input.summaries = cluster::ClusterBuffer(summarizer.clusters());
  }
};

const std::vector<StrategyKind> kAllStrategies{
    StrategyKind::kRandom,   StrategyKind::kOfflineKMeans, StrategyKind::kOnlineClustering,
    StrategyKind::kOptimal,  StrategyKind::kGreedy,        StrategyKind::kHotZone,
    StrategyKind::kLocalSearch};

class AllStrategies : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(AllStrategies, ProducesValidDistinctPlacement) {
  const World world(1234);
  const auto strategy = make_strategy(GetParam());
  for (std::size_t k = 1; k <= 5; ++k) {
    PlacementInput input = world.input;
    input.k = k;
    const auto placement = strategy->place(input);
    ASSERT_NO_THROW(validate_placement(placement, input)) << strategy->name() << " k=" << k;
  }
}

TEST_P(AllStrategies, DeterministicInSeed) {
  const World world(555);
  const auto strategy = make_strategy(GetParam());
  EXPECT_EQ(strategy->place(world.input), strategy->place(world.input));
}

TEST_P(AllStrategies, NameIsNonEmptyAndStable) {
  const auto strategy = make_strategy(GetParam());
  EXPECT_FALSE(strategy->name().empty());
  EXPECT_EQ(strategy->name(), strategy_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllStrategies, ::testing::ValuesIn(kAllStrategies));

/// The defining property of the oracle: no strategy beats it, ever.
class OptimalDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimalDominance, OptimalIsNeverBeaten) {
  const World world(GetParam());
  const auto optimal_placement = make_strategy(StrategyKind::kOptimal)->place(world.input);
  const double optimal_delay =
      true_total_delay(world.topology, optimal_placement, world.input.clients);
  for (const auto kind : kAllStrategies) {
    const auto placement = make_strategy(kind)->place(world.input);
    const double delay = true_total_delay(world.topology, placement, world.input.clients);
    EXPECT_GE(delay + 1e-6, optimal_delay) << strategy_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalDominance,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

TEST(OptimalPlacement, MatchesBruteForceReference) {
  const World world(42, /*num_candidates=*/7, /*clients_per_centre=*/10);
  const auto placement = make_strategy(StrategyKind::kOptimal)->place(world.input);
  const double found = true_total_delay(world.topology, placement, world.input.clients);

  // Direct enumeration of all C(7,3) = 35 subsets.
  double best = std::numeric_limits<double>::infinity();
  const auto& c = world.input.candidates;
  for (std::size_t a = 0; a < c.size(); ++a) {
    for (std::size_t b = a + 1; b < c.size(); ++b) {
      for (std::size_t d = b + 1; d < c.size(); ++d) {
        best = std::min(best, true_total_delay(world.topology,
                                               {c[a].node, c[b].node, c[d].node},
                                               world.input.clients));
      }
    }
  }
  EXPECT_NEAR(found, best, 1e-9);
}

TEST(OptimalPlacement, QuorumVariantMatchesBruteForce) {
  const World world(7, 6, 8);
  PlacementInput input = world.input;
  input.quorum = 2;
  const auto placement = make_strategy(StrategyKind::kOptimal)->place(input);
  const double found =
      true_total_delay(world.topology, placement, input.clients, /*quorum=*/2);
  double best = std::numeric_limits<double>::infinity();
  const auto& c = input.candidates;
  for (std::size_t a = 0; a < c.size(); ++a) {
    for (std::size_t b = a + 1; b < c.size(); ++b) {
      for (std::size_t d = b + 1; d < c.size(); ++d) {
        best = std::min(best, true_total_delay(world.topology,
                                               {c[a].node, c[b].node, c[d].node},
                                               input.clients, 2));
      }
    }
  }
  EXPECT_NEAR(found, best, 1e-9);
}

TEST(OptimalPlacement, RequiresGroundTruthAndClients) {
  const World world(3);
  PlacementInput input = world.input;
  input.topology = nullptr;
  EXPECT_THROW(make_strategy(StrategyKind::kOptimal)->place(input), std::invalid_argument);
  input = world.input;
  input.clients.clear();
  EXPECT_THROW(make_strategy(StrategyKind::kOptimal)->place(input), std::invalid_argument);
}

/// The paper's headline comparison, in its cleanest setting: clustering
/// strategies decisively beat random placement on clustered populations.
class ClusteringBeatsRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusteringBeatsRandom, OnAverageAcrossSeeds) {
  double random_total = 0.0, online_total = 0.0, offline_total = 0.0, greedy_total = 0.0;
  for (std::uint64_t s = 0; s < 8; ++s) {
    const World world(GetParam() * 100 + s);
    const auto eval = [&](StrategyKind kind) {
      return true_total_delay(world.topology, make_strategy(kind)->place(world.input),
                              world.input.clients);
    };
    random_total += eval(StrategyKind::kRandom);
    online_total += eval(StrategyKind::kOnlineClustering);
    offline_total += eval(StrategyKind::kOfflineKMeans);
    greedy_total += eval(StrategyKind::kGreedy);
  }
  // The paper reports >=35% improvement; in this perfectly-embeddable world
  // the margin is comfortably larger.
  EXPECT_LT(online_total, 0.65 * random_total);
  EXPECT_LT(offline_total, 0.65 * random_total);
  // Greedy is strong but can be trapped by its first pick on some candidate
  // layouts, so it gets a slightly looser bound.
  EXPECT_LT(greedy_total, 0.75 * random_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringBeatsRandom, ::testing::Values(1, 2, 3));

TEST(OnlineClustering, CloseToOfflineKMeans) {
  // With ample micro-clusters the summary loses little: online should land
  // within 15% of offline k-means on average.
  double online_total = 0.0, offline_total = 0.0;
  for (std::uint64_t s = 0; s < 10; ++s) {
    const World world(9000 + s);
    online_total += true_total_delay(
        world.topology, make_strategy(StrategyKind::kOnlineClustering)->place(world.input),
        world.input.clients);
    offline_total += true_total_delay(
        world.topology, make_strategy(StrategyKind::kOfflineKMeans)->place(world.input),
        world.input.clients);
  }
  EXPECT_LT(online_total, 1.15 * offline_total);
}

TEST(Strategies, GracefulWithoutUsageInformation) {
  // No clients, no summaries: information-dependent strategies degrade to a
  // valid (random) placement instead of failing.
  const World world(11);
  PlacementInput input = world.input;
  input.clients.clear();
  input.summaries.clear();
  for (const auto kind :
       {StrategyKind::kRandom, StrategyKind::kOfflineKMeans, StrategyKind::kOnlineClustering,
        StrategyKind::kGreedy, StrategyKind::kHotZone}) {
    const auto placement = make_strategy(kind)->place(input);
    EXPECT_NO_THROW(validate_placement(placement, input)) << strategy_name(kind);
  }
}

TEST(Strategies, RandomUsesAllCandidatesEventually) {
  const World world(13);
  std::set<topo::NodeId> seen;
  for (std::uint64_t s = 0; s < 60; ++s) {
    PlacementInput input = world.input;
    input.seed = s;
    for (const auto node : make_strategy(StrategyKind::kRandom)->place(input)) {
      seen.insert(node);
    }
  }
  EXPECT_EQ(seen.size(), world.input.candidates.size());
}

TEST(Strategies, OnlineClusteringFindsThePopulationCentres) {
  const World world(17);
  const auto placement =
      make_strategy(StrategyKind::kOnlineClustering)->place(world.input);
  // Each chosen data center should be near one of the three population
  // centres (well under the inter-centre distance of ~300).
  const std::vector<Point> centres{{0.0, 0.0}, {300.0, 0.0}, {150.0, 260.0}};
  for (const auto node : placement) {
    const Point& pos = world.positions[node];
    double nearest = 1e18;
    for (const auto& centre : centres) nearest = std::min(nearest, pos.distance_to(centre));
    EXPECT_LT(nearest, 120.0);
  }
}

TEST(Strategies, QuorumObjectiveChangesOptimalChoice) {
  // With quorum 2 the optimal placement must hedge: its quorum-2 delay is
  // no worse than the quorum-1-optimal placement evaluated at quorum 2.
  const World world(29);
  PlacementInput q1 = world.input;
  PlacementInput q2 = world.input;
  q2.quorum = 2;
  const auto p1 = make_strategy(StrategyKind::kOptimal)->place(q1);
  const auto p2 = make_strategy(StrategyKind::kOptimal)->place(q2);
  EXPECT_LE(true_total_delay(world.topology, p2, world.input.clients, 2),
            true_total_delay(world.topology, p1, world.input.clients, 2) + 1e-9);
}

TEST(Strategies, KLargerThanCandidatesIsCapped) {
  const World world(19, /*num_candidates=*/4);
  for (const auto kind : kAllStrategies) {
    PlacementInput input = world.input;
    input.k = 10;
    const auto placement = make_strategy(kind)->place(input);
    EXPECT_EQ(placement.size(), 4u) << strategy_name(kind);
  }
}

}  // namespace
}  // namespace geored::place
