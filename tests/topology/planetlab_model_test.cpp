#include "topology/planetlab_model.h"

#include <gtest/gtest.h>

#include "topology/analysis.h"

namespace geored::topo {
namespace {

TEST(PlanetLabModel, DeterministicInSeed) {
  PlanetLabModelConfig config;
  config.node_count = 30;
  const Topology a = generate_planetlab_like(config, 11);
  const Topology b = generate_planetlab_like(config, 11);
  ASSERT_EQ(a.size(), b.size());
  for (NodeId i = 0; i < a.size(); ++i) {
    for (NodeId j = i + 1; j < a.size(); ++j) {
      EXPECT_EQ(a.rtt_ms(i, j), b.rtt_ms(i, j));
    }
  }
}

TEST(PlanetLabModel, DifferentSeedsDiffer) {
  PlanetLabModelConfig config;
  config.node_count = 30;
  const Topology a = generate_planetlab_like(config, 1);
  const Topology b = generate_planetlab_like(config, 2);
  bool any_different = false;
  for (NodeId i = 0; i < a.size() && !any_different; ++i) {
    for (NodeId j = i + 1; j < a.size(); ++j) {
      if (a.rtt_ms(i, j) != b.rtt_ms(i, j)) {
        any_different = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(PlanetLabModel, NodeCountAndRegionsValid) {
  PlanetLabModelConfig config;
  config.node_count = 226;
  const Topology t = generate_planetlab_like(config, 42);
  EXPECT_EQ(t.size(), 226u);
  EXPECT_EQ(t.region_names().size(), default_planetlab_regions().size());
  for (const auto& node : t.nodes()) {
    EXPECT_LT(node.region, default_planetlab_regions().size());
    EXPECT_GE(node.access_ms, kAccessMsMin);
    EXPECT_LE(node.access_ms, kAccessMsMax);
    EXPECT_GE(node.location.lat_deg, -85.0);
    EXPECT_LE(node.location.lat_deg, 85.0);
  }
}

TEST(PlanetLabModel, AllRttsPositiveAndBounded) {
  PlanetLabModelConfig config;
  config.node_count = 100;
  const Topology t = generate_planetlab_like(config, 3);
  for (NodeId i = 0; i < t.size(); ++i) {
    for (NodeId j = i + 1; j < t.size(); ++j) {
      const double rtt = t.rtt_ms(i, j);
      EXPECT_GE(rtt, kMinRttMs);
      EXPECT_LT(rtt, 2000.0);  // nothing on Earth is slower than 2 s RTT here
    }
  }
}

TEST(PlanetLabModel, RejectsInvalidConfig) {
  PlanetLabModelConfig config;
  config.node_count = 1;
  EXPECT_THROW(generate_planetlab_like(config, 1), std::invalid_argument);
}

TEST(PlanetLabModel, DefaultRegionWeightsCoverTheGlobe) {
  const auto regions = default_planetlab_regions();
  EXPECT_GE(regions.size(), 5u);
  double total = 0.0;
  for (const auto& region : regions) total += region.weight;
  EXPECT_NEAR(total, 1.0, 0.02);
}

/// The structural properties that make the substitution for the PlanetLab
/// matrix faithful (see DESIGN.md): regional clustering, wide-area scale,
/// and mild triangle-inequality violations.
class MetricPropertiesTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricPropertiesTest, MatchesMeasuredWanStructure) {
  PlanetLabModelConfig config;
  const Topology t = generate_planetlab_like(config, GetParam());
  const MetricProperties props = analyze(t, 50000, GetParam());

  // Intra-region latencies sit well below inter-region ones.
  EXPECT_GT(props.intra_region_rtt.count, 100u);
  EXPECT_LT(props.intra_region_rtt.mean, 0.4 * props.inter_region_rtt.mean);
  EXPECT_LT(props.intra_region_rtt.p50, 60.0);
  EXPECT_GT(props.inter_region_rtt.p50, 80.0);

  // Wide-area scale: transcontinental pairs in the hundreds of ms.
  EXPECT_GT(props.all_pairs_rtt.max, 250.0);
  EXPECT_GT(props.all_pairs_rtt.mean, 60.0);
  EXPECT_LT(props.all_pairs_rtt.mean, 400.0);

  // A small but non-zero share of violated triangles, as in measured data.
  EXPECT_GT(props.triangle_violation_rate, 0.005);
  EXPECT_LT(props.triangle_violation_rate, 0.30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPropertiesTest,
                         ::testing::Values(1, 42, 1234, 99991));

}  // namespace
}  // namespace geored::topo
