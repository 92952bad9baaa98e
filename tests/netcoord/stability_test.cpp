#include "netcoord/stability.h"

#include <gtest/gtest.h>

#include "topology/planetlab_model.h"

namespace geored::coord {
namespace {

topo::Topology test_topology(std::uint64_t seed = 42) {
  topo::PlanetLabModelConfig config;
  config.node_count = 100;
  return topo::generate_planetlab_like(config, seed);
}

StabilityConfig quick_config() {
  StabilityConfig config;
  config.gossip.rounds = 192;
  config.warmup_rounds = 96;
  return config;
}

TEST(Stability, RejectsWarmupBeyondRounds) {
  StabilityConfig config;
  config.gossip.rounds = 10;
  config.warmup_rounds = 10;
  EXPECT_THROW(measure_stability(test_topology(), CoordSystem::kVivaldi, config, 1),
               std::invalid_argument);
}

TEST(Stability, RejectsGnp) {
  EXPECT_THROW(measure_stability(test_topology(), CoordSystem::kGnp, quick_config(), 1),
               std::invalid_argument);
}

TEST(Stability, MeasuresDisplacementsAfterWarmup) {
  const auto topology = test_topology();
  const auto report = measure_stability(topology, CoordSystem::kVivaldi, quick_config(), 1);
  // (rounds - warmup) * nodes displacement samples.
  EXPECT_EQ(report.displacement_per_round_ms.count, (192 - 96) * topology.size());
  EXPECT_GT(report.displacement_per_round_ms.mean, 0.0);
  EXPECT_GT(report.final_abs_error_p50_ms, 0.0);
}

TEST(Stability, DeterministicInSeed) {
  const auto topology = test_topology();
  const auto a = measure_stability(topology, CoordSystem::kRnp, quick_config(), 9);
  const auto b = measure_stability(topology, CoordSystem::kRnp, quick_config(), 9);
  EXPECT_EQ(a.displacement_per_round_ms.mean, b.displacement_per_round_ms.mean);
  EXPECT_EQ(a.final_abs_error_p50_ms, b.final_abs_error_p50_ms);
}

/// The paper's second claim for RNP: more stable coordinates than Vivaldi
/// (its retrospective refits damp the per-sample jitter), without giving up
/// accuracy. Verified across topologies.
class RnpIsMoreStable : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RnpIsMoreStable, LowerDisplacementAndNoWorseAccuracy) {
  const auto topology = test_topology(GetParam());
  const auto vivaldi = measure_stability(topology, CoordSystem::kVivaldi, quick_config(), 7);
  const auto rnp = measure_stability(topology, CoordSystem::kRnp, quick_config(), 7);
  EXPECT_LT(rnp.displacement_per_round_ms.mean,
            vivaldi.displacement_per_round_ms.mean)
      << "vivaldi drift " << vivaldi.displacement_per_round_ms.mean << " rnp drift "
      << rnp.displacement_per_round_ms.mean;
  EXPECT_LT(rnp.final_abs_error_p50_ms, vivaldi.final_abs_error_p50_ms * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Topologies, RnpIsMoreStable, ::testing::Values(42, 7, 2026));

}  // namespace
}  // namespace geored::coord
