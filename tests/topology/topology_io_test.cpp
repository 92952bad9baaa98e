#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "topology/planetlab_model.h"
#include "topology/topology.h"

namespace geored::topo {
namespace {

TEST(TopologyIo, SaveLoadRoundTrip) {
  PlanetLabModelConfig config;
  config.node_count = 20;
  const Topology original = generate_planetlab_like(config, 7);

  std::stringstream stream;
  original.save(stream);
  const Topology loaded = Topology::load(stream);

  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.region_names(), original.region_names());
  for (NodeId i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.node(i).region, original.node(i).region);
    EXPECT_NEAR(loaded.node(i).location.lat_deg, original.node(i).location.lat_deg, 1e-4);
    for (NodeId j = i + 1; j < original.size(); ++j) {
      EXPECT_NEAR(loaded.rtt_ms(i, j), original.rtt_ms(i, j),
                  1e-4 * original.rtt_ms(i, j));
    }
  }
}

TEST(TopologyIo, LoadRejectsMalformedStream) {
  std::stringstream truncated("3 0\n0 0 0 0\n");
  EXPECT_THROW(Topology::load(truncated), std::invalid_argument);
  std::stringstream garbage("not-a-topology");
  EXPECT_THROW(Topology::load(garbage), std::invalid_argument);
}

TEST(TopologyIo, LoadRejectsRegionPastTheRegionList) {
  // One region listed, but node 1 names region 7: code that indexes
  // region_names() by it would read past the list.
  std::stringstream past("2 1\nonly\n10 20 0 1.5\n30 40 7 2.5\n12.5\n");
  try {
    (void)Topology::load(past);
    ADD_FAILURE() << "a region past the region list was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("node 1"), std::string::npos) << error.what();
  }
  std::stringstream no_regions("2 0\n10 20 0 1.5\n30 40 0 2.5\n12.5\n");
  EXPECT_THROW(Topology::load(no_regions), std::invalid_argument);
  // The unknown-region marker is not an index and stays accepted.
  std::stringstream unknown("2 1\nonly\n10 20 0 1.5\n30 40 4294967295 2.5\n12.5\n");
  const Topology loaded = Topology::load(unknown);
  EXPECT_EQ(loaded.node(0).region, 0u);
  EXPECT_EQ(loaded.node(1).region, kUnknownRegion);
  EXPECT_EQ(loaded.rtt_ms(0, 1), 12.5);
}

TEST(TopologyIo, FromRttMatrixAveragesAsymmetry) {
  std::stringstream stream("3\n0 10 20\n30 0 40\n60 80 0\n");
  const Topology t = Topology::from_rtt_matrix_stream(stream);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.rtt_ms(0, 1), 20.0);  // (10+30)/2
  EXPECT_DOUBLE_EQ(t.rtt_ms(0, 2), 40.0);  // (20+60)/2
  EXPECT_DOUBLE_EQ(t.rtt_ms(1, 2), 60.0);  // (40+80)/2
  // Nodes carry no geography.
  EXPECT_EQ(t.node(0).region, 0xffffffffu);
}

TEST(TopologyIo, FromRttMatrixAveragesEveryPair) {
  constexpr std::size_t kN = 7;
  double entries[kN][kN];
  std::stringstream stream;
  stream << kN << '\n';
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      entries[i][j] = i == j ? 0.0 : 1.0 + 0.37 * static_cast<double>(i * kN + j * j);
      stream << entries[i][j] << ' ';
    }
    stream << '\n';
  }
  const Topology t = Topology::from_rtt_matrix_stream(stream);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = i + 1; j < kN; ++j) {
      EXPECT_EQ(t.rtt_ms(static_cast<NodeId>(i), static_cast<NodeId>(j)),
                0.5 * (entries[i][j] + entries[j][i]))
          << i << "," << j;
    }
  }
}

TEST(TopologyIo, FromRttMatrixRejectsBadInput) {
  std::stringstream tiny("1\n0\n");
  EXPECT_THROW(Topology::from_rtt_matrix_stream(tiny), std::invalid_argument);
  std::stringstream negative("2\n0 -5\n-5 0\n");
  EXPECT_THROW(Topology::from_rtt_matrix_stream(negative), std::invalid_argument);
  std::stringstream truncated("3\n0 1 2\n");
  EXPECT_THROW(Topology::from_rtt_matrix_stream(truncated), std::invalid_argument);
}

TEST(TopologySubset, PreservesRttsAndMetadata) {
  PlanetLabModelConfig config;
  config.node_count = 20;
  const Topology full = generate_planetlab_like(config, 7);
  const std::vector<NodeId> picked{3, 17, 0, 9};
  const Topology sub = full.subset(picked);
  ASSERT_EQ(sub.size(), 4u);
  EXPECT_EQ(sub.region_names(), full.region_names());
  for (NodeId i = 0; i < picked.size(); ++i) {
    EXPECT_EQ(sub.node(i).region, full.node(picked[i]).region);
    for (NodeId j = i + 1; j < picked.size(); ++j) {
      EXPECT_EQ(sub.rtt_ms(i, j), full.rtt_ms(picked[i], picked[j]));
    }
  }
}

TEST(TopologySubset, RejectsBadSelections) {
  PlanetLabModelConfig config;
  config.node_count = 10;
  const Topology full = generate_planetlab_like(config, 7);
  EXPECT_THROW(full.subset({1}), std::invalid_argument);          // too small
  EXPECT_THROW(full.subset({1, 99}), std::invalid_argument);      // unknown node
  EXPECT_THROW(full.subset({1, 2, 1}), std::invalid_argument);    // duplicate
}

TEST(TopologyIo, ConstructorValidatesSizes) {
  EXPECT_THROW(Topology(std::vector<NodeInfo>(3), SymMatrix(4), {}), std::invalid_argument);
}

}  // namespace
}  // namespace geored::topo
