// Golden pins of the coordinate embedding. Each digest is FNV-1a over the
// bit patterns of every coordinate's position components, height and error
// (or of every field of a stability report), so any change to the gossip
// protocols' arithmetic — operation order included — fails here. The values
// were captured from the reference deque/Point implementation of RnpNode and
// VivaldiNode; the flat, allocation-free rewrite must reproduce them bit for
// bit.
#include <bit>
#include <cstdint>
#include <ios>
#include <vector>

#include <gtest/gtest.h>

#include "netcoord/embedding.h"
#include "netcoord/stability.h"
#include "topology/planetlab_model.h"

namespace geored::coord {
namespace {

class Fnv1a {
 public:
  void add(double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      state_ ^= (bits >> (8 * i)) & 0xffU;
      state_ *= 0x100000001b3ULL;
    }
  }
  void add(const Summary& summary) {
    add(static_cast<double>(summary.count));
    for (const double v : {summary.mean, summary.stddev, summary.min, summary.max, summary.p50,
                           summary.p90, summary.p99, summary.ci95_halfwidth}) {
      add(v);
    }
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const std::vector<NetworkCoordinate>& coords) {
  Fnv1a fnv;
  for (const auto& c : coords) {
    for (const double v : c.position.values()) fnv.add(v);
    fnv.add(c.height);
    fnv.add(c.error);
  }
  return fnv.value();
}

std::uint64_t digest(const StabilityReport& report) {
  Fnv1a fnv;
  fnv.add(report.displacement_per_round_ms);
  fnv.add(report.final_abs_error_p50_ms);
  return fnv.value();
}

topo::Topology planetlab(std::size_t nodes, std::uint64_t seed) {
  topo::PlanetLabModelConfig config;
  config.node_count = nodes;
  return topo::generate_planetlab_like(config, seed);
}

RnpConfig rnp_in(std::size_t dimensions) {
  RnpConfig config;
  config.vivaldi.dimensions = dimensions;
  return config;
}

#define EXPECT_DIGEST(actual, expected)                          \
  do {                                                           \
    const std::uint64_t value = (actual);                        \
    EXPECT_EQ(value, expected) << "digest 0x" << std::hex << value; \
  } while (0)

TEST(EmbeddingGolden, RnpDefaultAt226Nodes) {
  const auto topology = planetlab(226, 42);
  EXPECT_DIGEST(digest(run_rnp(topology, RnpConfig{}, GossipConfig{}, 7)),
                0xb586148660d73dfeULL);
}

/// The end-to-end benchmark's world: 1000 nodes from seed 2011, RNP in five
/// dimensions, gossip seed 2012.
TEST(EmbeddingGolden, RnpBenchmarkWorldAt1000Nodes) {
  const auto topology = planetlab(1000, 2011);
  EXPECT_DIGEST(digest(run_rnp(topology, rnp_in(5), GossipConfig{}, 2012)),
                0x70abfdf73b28562eULL);
}

TEST(EmbeddingGolden, RnpAcrossDimensions) {
  const auto topology = planetlab(226, 42);
  GossipConfig gossip;
  gossip.rounds = 128;
  EXPECT_DIGEST(digest(run_rnp(topology, rnp_in(2), gossip, 3)), 0xebb71cd84320e121ULL);
  EXPECT_DIGEST(digest(run_rnp(topology, rnp_in(5), gossip, 3)), 0xe19133a871373870ULL);
  EXPECT_DIGEST(digest(run_rnp(topology, rnp_in(8), gossip, 3)), 0x41f15b996681b35bULL);
}

TEST(EmbeddingGolden, RnpWithAndWithoutHeight) {
  const auto topology = planetlab(226, 7);
  GossipConfig gossip;
  gossip.rounds = 128;
  RnpConfig config;
  config.vivaldi.use_height = false;
  EXPECT_DIGEST(digest(run_rnp(topology, config, gossip, 5)), 0x069ae8125978c581ULL);
  config.vivaldi.use_height = true;
  EXPECT_DIGEST(digest(run_rnp(topology, config, gossip, 5)), 0xeff6b8978274a481ULL);
}

TEST(EmbeddingGolden, RnpNonDefaultWindow) {
  const auto topology = planetlab(120, 11);
  GossipConfig gossip;
  gossip.rounds = 96;
  RnpConfig small;
  small.window_size = 16;
  small.refit_every = 4;
  small.descent_steps = 10;
  small.learning_rate = 0.1;
  small.recency_decay = 0.9;
  EXPECT_DIGEST(digest(run_rnp(topology, small, gossip, 13)), 0x014ed0d334c7308bULL);
  // A window far larger than the run: every refit sees a partial window.
  RnpConfig unfilled;
  unfilled.window_size = 512;
  unfilled.refit_every = 5;
  EXPECT_DIGEST(digest(run_rnp(topology, unfilled, gossip, 13)), 0x8307be9b9d55d3e9ULL);
}

TEST(EmbeddingGolden, Vivaldi) {
  const auto topology = planetlab(226, 42);
  VivaldiConfig config;
  EXPECT_DIGEST(digest(run_vivaldi(topology, config, GossipConfig{}, 7)),
                0x92ba49b9c7c8f253ULL);
  config.use_height = true;
  config.dimensions = 3;
  EXPECT_DIGEST(digest(run_vivaldi(topology, config, GossipConfig{}, 7)),
                0x487c99523a4a818eULL);
}

TEST(EmbeddingGolden, StabilityOfBothProtocols) {
  const auto topology = planetlab(100, 42);
  StabilityConfig config;
  config.gossip.rounds = 160;
  config.warmup_rounds = 64;
  EXPECT_DIGEST(digest(measure_stability(topology, Protocol::kVivaldi, config, 9)),
                0xdcca8adfa44c9dffULL);
  EXPECT_DIGEST(digest(measure_stability(topology, Protocol::kRnp, config, 9)),
                0x5698f447fdbf935dULL);
}

}  // namespace
}  // namespace geored::coord
