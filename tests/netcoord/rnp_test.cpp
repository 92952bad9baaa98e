#include "netcoord/rnp.h"

#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "netcoord/embedding.h"
#include "topology/planetlab_model.h"

namespace geored::coord {
namespace {

TEST(Rnp, RejectsInvalidConfig) {
  RnpConfig config;
  config.window_size = 1;
  EXPECT_THROW(RnpNode(config, 0), std::invalid_argument);
  config = {};
  config.refit_every = 0;
  EXPECT_THROW(RnpNode(config, 0), std::invalid_argument);
  config = {};
  config.recency_decay = 0.0;
  EXPECT_THROW(RnpNode(config, 0), std::invalid_argument);
  for (const double bad_rate : {0.0, -0.05, std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
    config = {};
    config.learning_rate = bad_rate;
    EXPECT_THROW(RnpNode(config, 0), std::invalid_argument) << "learning_rate " << bad_rate;
  }
  // RNP clamps a peer's error to [0.05, max_error] to weight its samples, so
  // it needs a larger ceiling than Vivaldi's 1e-6 floor.
  for (const double bad_max : {0.04, 1e-6, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    config = {};
    config.vivaldi.max_error = bad_max;
    EXPECT_THROW(RnpNode(config, 0), std::invalid_argument) << "max_error " << bad_max;
  }
  config = {};
  config.vivaldi.max_error = 0.05;
  EXPECT_NO_THROW(RnpNode(config, 0));
}

TEST(Rnp, RejectsRemoteOfWrongDimension) {
  RnpConfig config;
  config.vivaldi.dimensions = 3;
  config.refit_every = 1;
  RnpNode node(config, 0);
  const NetworkCoordinate good(Point{10.0, 0.0, 0.0}, 0.0);
  for (int i = 0; i < 4; ++i) node.observe(good, 40.0);
  const NetworkCoordinate before = node.coordinate();
  const std::uint64_t samples = node.samples();

  for (const std::size_t dim : {2u, 4u}) {
    EXPECT_THROW(node.observe(NetworkCoordinate(Point(dim), 0.0), 40.0),
                 std::invalid_argument);
  }
  EXPECT_EQ(node.coordinate().position, before.position);
  EXPECT_EQ(node.coordinate().height, before.height);
  EXPECT_EQ(node.coordinate().error, before.error);
  EXPECT_EQ(node.samples(), samples);
  // The rejected samples never entered the window: the node continues
  // exactly like a twin that never saw them.
  RnpNode twin(config, 0);
  for (int i = 0; i < 4; ++i) twin.observe(good, 40.0);
  node.observe(good, 55.0);
  twin.observe(good, 55.0);
  EXPECT_EQ(node.coordinate().position, twin.coordinate().position);
  EXPECT_EQ(node.coordinate().error, twin.coordinate().error);
}

TEST(Rnp, ConvergesBetweenTwoNodes) {
  RnpConfig config;
  config.vivaldi.dimensions = 2;
  RnpNode a(config, 0), b(config, 1);
  constexpr double kRtt = 120.0;
  for (int i = 0; i < 300; ++i) {
    a.observe(b.coordinate(), kRtt);
    b.observe(a.coordinate(), kRtt);
  }
  EXPECT_NEAR(predicted_rtt_ms(a.coordinate(), b.coordinate()), kRtt, 5.0);
}

TEST(Rnp, IgnoresNonPositiveSamples) {
  RnpNode node(RnpConfig{}, 0);
  NetworkCoordinate remote(Point(5), 0.0);
  node.observe(remote, -1.0);
  node.observe(remote, 0.0);
  EXPECT_EQ(node.samples(), 0u);
}

TEST(Rnp, RefitKeepsCoordinatesFinite) {
  RnpConfig config;
  config.refit_every = 4;
  config.window_size = 8;
  RnpNode node(config, 0);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    NetworkCoordinate remote(
        Point{rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-100, 100),
              rng.uniform(-100, 100), rng.uniform(-100, 100)},
        rng.uniform(0, 5));
    remote.error = rng.uniform(0.05, 1.0);
    node.observe(remote, rng.uniform(1.0, 300.0));
    ASSERT_TRUE(node.coordinate().position.is_finite());
    ASSERT_GE(node.coordinate().height, 0.0);
  }
}

/// The paper's central claim for RNP: better prediction accuracy than
/// Vivaldi. Verified end-to-end on the synthetic PlanetLab-like topology,
/// across several topologies.
class RnpBeatsVivaldi : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RnpBeatsVivaldi, MedianAbsoluteErrorIsLower) {
  topo::PlanetLabModelConfig topo_config;
  topo_config.node_count = 120;  // smaller topology keeps the test fast
  const auto topology = topo::generate_planetlab_like(topo_config, GetParam());
  GossipConfig gossip;
  gossip.rounds = 192;

  const auto vivaldi = run_vivaldi(topology, VivaldiConfig{}, gossip, 7);
  const auto rnp = run_rnp(topology, RnpConfig{}, gossip, 7);
  const auto vivaldi_quality = evaluate_embedding(topology, vivaldi);
  const auto rnp_quality = evaluate_embedding(topology, rnp);

  EXPECT_LT(rnp_quality.absolute_error_ms.p50, vivaldi_quality.absolute_error_ms.p50)
      << "vivaldi: " << vivaldi_quality.to_string() << "\nrnp: " << rnp_quality.to_string();
  // And it must be accurate in absolute terms, as the paper reports
  // (median error around or below ~10 ms on PlanetLab-like data).
  EXPECT_LT(rnp_quality.absolute_error_ms.p50, 15.0);
}

INSTANTIATE_TEST_SUITE_P(Topologies, RnpBeatsVivaldi, ::testing::Values(42, 7, 2026));

}  // namespace
}  // namespace geored::coord
