#include "placement/spread.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "placement/evaluate.h"
#include "placement/online_clustering.h"
#include "placement/random_placement.h"
#include "reference/microcluster.h"

namespace geored::place {
namespace {

/// Candidates: a tight cluster at x ~ 0 (ids 0-2) and two far sites.
PlacementInput clustered_input() {
  PlacementInput input;
  input.candidates = {
      {0, Point{0.0}, std::numeric_limits<double>::infinity()},
      {1, Point{5.0}, std::numeric_limits<double>::infinity()},
      {2, Point{10.0}, std::numeric_limits<double>::infinity()},
      {3, Point{200.0}, std::numeric_limits<double>::infinity()},
      {4, Point{400.0}, std::numeric_limits<double>::infinity()},
  };
  input.k = 3;
  input.seed = 1;
  // One user population at x ~ 0 drives the inner strategy into the cluster.
  cluster::MicroCluster population;
  for (int i = 0; i < 100; ++i) population.absorb(Point{static_cast<double>(i % 7)}, 1.0);
  input.summaries = cluster::to_cluster_buffer({population});
  return input;
}

TEST(Spread, ConstructionValidation) {
  EXPECT_THROW(SpreadConstrainedPlacement(nullptr, {}), std::invalid_argument);
  SpreadConfig config;
  config.min_spread_ms = -1.0;
  EXPECT_THROW(
      SpreadConstrainedPlacement(std::make_unique<RandomPlacement>(), config),
      std::invalid_argument);
}

TEST(Spread, MinPairwiseSpreadHelper) {
  const auto input = clustered_input();
  EXPECT_DOUBLE_EQ(min_pairwise_spread({0, 1}, input.candidates), 5.0);
  EXPECT_DOUBLE_EQ(min_pairwise_spread({0, 3, 4}, input.candidates), 200.0);
  EXPECT_TRUE(std::isinf(min_pairwise_spread({0}, input.candidates)));
}

TEST(Spread, RepairsCoLocatedReplicas) {
  const auto input = clustered_input();
  // The unconstrained inner strategy piles replicas into the x~0 cluster.
  OnlineClusteringPlacement inner;
  const auto unconstrained = inner.place(input);
  EXPECT_LT(min_pairwise_spread(unconstrained, input.candidates), 50.0);

  SpreadConfig config;
  config.min_spread_ms = 50.0;
  SpreadConstrainedPlacement constrained(
      std::make_unique<OnlineClusteringPlacement>(), config);
  const auto repaired = constrained.place(input);
  validate_placement(repaired, input);
  EXPECT_GE(min_pairwise_spread(repaired, input.candidates), 50.0);
  // The primary (nearest-to-population) replica is kept.
  EXPECT_EQ(repaired[0], unconstrained[0]);
}

TEST(Spread, KeepsAlreadySpreadPlacements) {
  auto input = clustered_input();
  input.k = 2;
  // Population split between 0 and 400 -> inner picks spread replicas.
  cluster::MicroCluster west, east;
  for (int i = 0; i < 50; ++i) {
    west.absorb(Point{0.0}, 1.0);
    east.absorb(Point{400.0}, 1.0);
  }
  input.summaries = cluster::to_cluster_buffer({west, east});
  SpreadConfig config;
  config.min_spread_ms = 50.0;
  SpreadConstrainedPlacement constrained(
      std::make_unique<OnlineClusteringPlacement>(), config);
  const auto placement = constrained.place(input);
  const auto inner_placement = OnlineClusteringPlacement().place(input);
  EXPECT_EQ(placement, inner_placement);
}

TEST(Spread, GracefulWhenInfeasible) {
  // Spread larger than the topology: repair is impossible, but the result
  // must still be a valid placement of full size.
  const auto input = clustered_input();
  SpreadConfig config;
  config.min_spread_ms = 10'000.0;
  SpreadConstrainedPlacement constrained(
      std::make_unique<OnlineClusteringPlacement>(), config);
  const auto placement = constrained.place(input);
  validate_placement(placement, input);
}

TEST(Spread, NameReflectsDecoration) {
  SpreadConstrainedPlacement constrained(std::make_unique<RandomPlacement>(), {});
  EXPECT_EQ(constrained.name(), "random +spread");
}

TEST(Spread, ZeroSpreadIsIdentity) {
  const auto input = clustered_input();
  SpreadConfig config;
  config.min_spread_ms = 0.0;
  SpreadConstrainedPlacement constrained(
      std::make_unique<OnlineClusteringPlacement>(), config);
  EXPECT_EQ(constrained.place(input), OnlineClusteringPlacement().place(input));
}

}  // namespace
}  // namespace geored::place
