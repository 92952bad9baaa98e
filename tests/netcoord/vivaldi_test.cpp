#include "netcoord/vivaldi.h"

#include <limits>

#include <gtest/gtest.h>

#include "netcoord/coordinate.h"

namespace geored::coord {
namespace {

VivaldiConfig flat_config() {
  VivaldiConfig config;
  config.dimensions = 2;
  config.use_height = false;
  return config;
}

TEST(NetworkCoordinate, PredictedRttIncludesHeights) {
  NetworkCoordinate a(Point{0.0, 0.0}, 3.0);
  NetworkCoordinate b(Point{3.0, 4.0}, 2.0);
  EXPECT_DOUBLE_EQ(predicted_rtt_ms(a, b), 5.0 + 3.0 + 2.0);
}

TEST(Vivaldi, StartsAtOriginWithInitialError) {
  VivaldiNode node(flat_config(), 0);
  EXPECT_EQ(node.coordinate().position, Point(2));
  EXPECT_DOUBLE_EQ(node.coordinate().error, 1.0);
  EXPECT_EQ(node.samples(), 0u);
}

TEST(Vivaldi, MovesAwayWhenPredictionTooShort) {
  VivaldiNode node(flat_config(), 0);
  NetworkCoordinate remote(Point{1.0, 0.0}, 0.0);
  remote.error = 0.5;
  // True RTT 100, predicted 1 -> node must be pushed away from remote.
  node.observe(remote, 100.0);
  EXPECT_LT(node.coordinate().position[0], 0.0);
  EXPECT_EQ(node.samples(), 1u);
}

TEST(Vivaldi, MovesCloserWhenPredictionTooLong) {
  VivaldiConfig config = flat_config();
  VivaldiNode node(config, 0);
  NetworkCoordinate remote(Point{100.0, 0.0}, 0.0);
  remote.error = 0.5;
  // True RTT 10, predicted 100 -> node is pulled towards remote.
  node.observe(remote, 10.0);
  EXPECT_GT(node.coordinate().position[0], 0.0);
}

TEST(Vivaldi, IgnoresNonPositiveSamples) {
  VivaldiNode node(flat_config(), 0);
  NetworkCoordinate remote(Point{1.0, 1.0}, 0.0);
  node.observe(remote, 0.0);
  node.observe(remote, -5.0);
  EXPECT_EQ(node.samples(), 0u);
  EXPECT_EQ(node.coordinate().position, Point(2));
}

TEST(Vivaldi, RejectsRemoteOfWrongDimension) {
  VivaldiNode node(flat_config(), 0);
  node.observe(NetworkCoordinate(Point{5.0, 0.0}, 0.0), 30.0);
  const NetworkCoordinate before = node.coordinate();

  EXPECT_THROW(node.observe(NetworkCoordinate(Point{1.0}, 0.0), 30.0), std::invalid_argument);
  EXPECT_THROW(node.observe(NetworkCoordinate(Point{1.0, 2.0, 3.0}, 0.0), 30.0),
               std::invalid_argument);
  EXPECT_EQ(node.coordinate().position, before.position);
  EXPECT_EQ(node.coordinate().height, before.height);
  EXPECT_EQ(node.coordinate().error, before.error);
  EXPECT_EQ(node.samples(), 1u);
}

TEST(Vivaldi, TwoNodesConvergeToTheirRtt) {
  VivaldiConfig config = flat_config();
  VivaldiNode a(config, 0), b(config, 1);
  constexpr double kRtt = 80.0;
  for (int i = 0; i < 500; ++i) {
    a.observe(b.coordinate(), kRtt);
    b.observe(a.coordinate(), kRtt);
  }
  const double predicted = predicted_rtt_ms(a.coordinate(), b.coordinate());
  EXPECT_NEAR(predicted, kRtt, 2.0);
  EXPECT_LT(a.coordinate().error, 0.2);
}

TEST(Vivaldi, HeightStaysNonNegative) {
  VivaldiConfig config;
  config.dimensions = 2;
  config.use_height = true;
  VivaldiNode node(config, 0);
  NetworkCoordinate remote(Point{50.0, 0.0}, 5.0);
  remote.error = 0.2;
  for (int i = 0; i < 200; ++i) {
    node.observe(remote, 1.0);  // keep pulling inwards hard
    ASSERT_GE(node.coordinate().height, 0.0);
  }
}

TEST(Vivaldi, HeightModelsSharedAccessDelay) {
  // Three nodes pairwise 60 ms apart cannot be embedded at mutual distance
  // 60 in 1-D without heights; with heights the fit improves.
  VivaldiConfig flat;
  flat.dimensions = 1;
  flat.use_height = false;
  VivaldiConfig tall = flat;
  tall.use_height = true;

  const auto run = [](VivaldiConfig config) {
    std::vector<VivaldiNode> nodes{{config, 0}, {config, 1}, {config, 2}};
    for (int round = 0; round < 800; ++round) {
      for (int i = 0; i < 3; ++i) {
        const int j = (i + 1 + round % 2) % 3;
        nodes[i].observe(nodes[j].coordinate(), 60.0);
      }
    }
    double worst = 0.0;
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        worst = std::max(worst, std::abs(predicted_rtt_ms(nodes[i].coordinate(),
                                                          nodes[j].coordinate()) -
                                         60.0));
      }
    }
    return worst;
  };
  EXPECT_LT(run(tall), run(flat));
}

TEST(Vivaldi, ErrorEstimateDropsWithConsistentSamples) {
  VivaldiConfig config = flat_config();
  VivaldiNode a(config, 0), b(config, 1);
  const double initial_error = a.coordinate().error;
  for (int i = 0; i < 300; ++i) {
    a.observe(b.coordinate(), 50.0);
    b.observe(a.coordinate(), 50.0);
  }
  EXPECT_LT(a.coordinate().error, initial_error * 0.5);
}

TEST(Vivaldi, RejectsInvalidConfig) {
  VivaldiConfig config;
  config.dimensions = 0;
  EXPECT_THROW(VivaldiNode(config, 0), std::invalid_argument);
  // max_error is the upper bound of a clamp whose lower bound is 1e-6, and a
  // NaN error estimate would poison every later update.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad_max : {0.0, 1e-7, -1.0, kNan, kInf}) {
    config = {};
    config.max_error = bad_max;
    EXPECT_THROW(VivaldiNode(config, 0), std::invalid_argument) << "max_error " << bad_max;
  }
  config = {};
  config.max_error = 1e-6;  // the floor itself is a valid ceiling
  EXPECT_NO_THROW(VivaldiNode(config, 0));
}

}  // namespace
}  // namespace geored::coord
