// Golden pins of the coordinate embedding. Each digest is FNV-1a over the
// bit patterns of every coordinate's position components, height and error
// (or of every field of a stability report), so any change to the gossip
// protocols' arithmetic — operation order included — fails here. The values
// were captured from the reference deque/Point implementation of RnpNode and
// VivaldiNode; the flat, allocation-free rewrite must reproduce them bit for
// bit. WorldBuildThreads reruns every pin, plus a digest of the generated
// topology, at pool sizes 1-4 and nested inside parallel chunks.
#include <bit>
#include <cstdint>
#include <ios>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "netcoord/embedding.h"
#include "netcoord/gossip_detail.h"
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

void expect_rnp_default_at_226_nodes() {
  const auto topology = planetlab(226, 42);
  EXPECT_DIGEST(digest(run_rnp(topology, RnpConfig{}, GossipConfig{}, 7)),
                0xb586148660d73dfeULL);
}
TEST(EmbeddingGolden, RnpDefaultAt226Nodes) { expect_rnp_default_at_226_nodes(); }

/// The end-to-end benchmark's world: 1000 nodes from seed 2011, RNP in five
/// dimensions, gossip seed 2012.
void expect_rnp_benchmark_world() {
  const auto topology = planetlab(1000, 2011);
  EXPECT_DIGEST(digest(run_rnp(topology, rnp_in(5), GossipConfig{}, 2012)),
                0x70abfdf73b28562eULL);
}
TEST(EmbeddingGolden, RnpBenchmarkWorldAt1000Nodes) { expect_rnp_benchmark_world(); }

void expect_rnp_across_dimensions() {
  const auto topology = planetlab(226, 42);
  GossipConfig gossip;
  gossip.rounds = 128;
  EXPECT_DIGEST(digest(run_rnp(topology, rnp_in(2), gossip, 3)), 0xebb71cd84320e121ULL);
  EXPECT_DIGEST(digest(run_rnp(topology, rnp_in(5), gossip, 3)), 0xe19133a871373870ULL);
  EXPECT_DIGEST(digest(run_rnp(topology, rnp_in(8), gossip, 3)), 0x41f15b996681b35bULL);
}
TEST(EmbeddingGolden, RnpAcrossDimensions) { expect_rnp_across_dimensions(); }

void expect_rnp_with_and_without_height() {
  const auto topology = planetlab(226, 7);
  GossipConfig gossip;
  gossip.rounds = 128;
  RnpConfig config;
  config.vivaldi.use_height = false;
  EXPECT_DIGEST(digest(run_rnp(topology, config, gossip, 5)), 0x069ae8125978c581ULL);
  config.vivaldi.use_height = true;
  EXPECT_DIGEST(digest(run_rnp(topology, config, gossip, 5)), 0xeff6b8978274a481ULL);
}
TEST(EmbeddingGolden, RnpWithAndWithoutHeight) { expect_rnp_with_and_without_height(); }

void expect_rnp_non_default_window() {
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
TEST(EmbeddingGolden, RnpNonDefaultWindow) { expect_rnp_non_default_window(); }

void expect_vivaldi_both_height_models() {
  const auto topology = planetlab(226, 42);
  VivaldiConfig config;
  EXPECT_DIGEST(digest(run_vivaldi(topology, config, GossipConfig{}, 7)),
                0x92ba49b9c7c8f253ULL);
  config.use_height = true;
  config.dimensions = 3;
  EXPECT_DIGEST(digest(run_vivaldi(topology, config, GossipConfig{}, 7)),
                0x487c99523a4a818eULL);
}
TEST(EmbeddingGolden, Vivaldi) { expect_vivaldi_both_height_models(); }

void expect_stability_of_both_protocols() {
  const auto topology = planetlab(100, 42);
  StabilityConfig config;
  config.gossip.rounds = 160;
  config.warmup_rounds = 64;
  EXPECT_DIGEST(digest(measure_stability(topology, CoordSystem::kVivaldi, config, 9)),
                0xdcca8adfa44c9dffULL);
  EXPECT_DIGEST(digest(measure_stability(topology, CoordSystem::kRnp, config, 9)),
                0x5698f447fdbf935dULL);
}
TEST(EmbeddingGolden, StabilityOfBothProtocols) { expect_stability_of_both_protocols(); }

/// FNV-1a over a generated topology: the bits of every RTT in the stored
/// triangle, then each node's latitude, longitude, access time and region.
std::uint64_t digest(const topo::Topology& topology) {
  Fnv1a fnv;
  for (const double rtt : topology.rtt_matrix().raw()) fnv.add(rtt);
  for (const auto& node : topology.nodes()) {
    fnv.add(node.location.lat_deg);
    fnv.add(node.location.lon_deg);
    fnv.add(node.access_ms);
    fnv.add(static_cast<double>(node.region));
  }
  return fnv.value();
}

/// Captured from the one-pass generator, before the pair geometry moved onto
/// the thread pool: the golden tests' 226-node world and the end-to-end
/// benchmark's 1000-node world.
void expect_topology_goldens() {
  EXPECT_DIGEST(digest(planetlab(226, 42)), 0x5331f9a043092af6ULL);
  EXPECT_DIGEST(digest(planetlab(1000, 2011)), 0x42543cf716d51583ULL);
}

/// Every world-build golden: the generator's, then each EmbeddingGolden case
/// (run_rnp, run_vivaldi and measure_stability).
void expect_world_goldens() {
  expect_topology_goldens();
  for (const auto check : {expect_rnp_default_at_226_nodes, expect_rnp_benchmark_world,
                            expect_rnp_across_dimensions, expect_rnp_with_and_without_height,
                            expect_rnp_non_default_window, expect_vivaldi_both_height_models,
                            expect_stability_of_both_protocols}) {
    check();
  }
}

/// The world build (topology generation and gossip embedding) runs on the
/// global pool; its bits must not depend on the pool's size or on whether
/// the call is nested inside parallel work.
class WorldBuildThreads : public ::testing::Test {
 protected:
  ~WorldBuildThreads() override { ThreadPool::set_global_thread_count(restore_threads_); }

 private:
  const std::size_t restore_threads_ = ThreadPool::global().thread_count();
};

TEST_F(WorldBuildThreads, GoldensHoldAtEveryPoolSize) {
  for (const std::size_t threads : {1, 2, 3, 4}) {
    ThreadPool::set_global_thread_count(threads);
    SCOPED_TRACE("pool size " + std::to_string(threads));
    expect_world_goldens();
  }
}

TEST_F(WorldBuildThreads, GoldensHoldNestedInsideParallelChunks) {
  // Four chunks build worlds at once, each on its own pool thread; their
  // nested parallel_for calls run inline.
  constexpr std::size_t kChunks = 4;
  ThreadPool::set_global_thread_count(kChunks);
  std::vector<int> ran(kChunks, 0);
  parallel_for(kChunks, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      EXPECT_TRUE(ThreadPool::in_parallel_chunk());
      expect_world_goldens();
      ran[c] = 1;
    }
  });
  EXPECT_EQ(ran, std::vector<int>(kChunks, 1));
}

TEST_F(WorldBuildThreads, RoundHookSeesEveryRoundInOrder) {
  // Refits every third observation. After each round the hook must see
  // every node's observation of that round, with the same coordinates at
  // every pool size.
  const auto topology = planetlab(120, 5);
  RnpConfig config;
  config.refit_every = 3;
  GossipConfig gossip;
  gossip.rounds = 24;
  const auto per_round_digests = [&](std::size_t threads) {
    ThreadPool::set_global_thread_count(threads);
    std::vector<RnpNode> nodes;
    for (std::size_t i = 0; i < topology.size(); ++i) {
      nodes.emplace_back(config, static_cast<std::uint32_t>(i));
    }
    std::vector<std::uint64_t> digests;
    detail::run_gossip(topology, nodes, gossip, 21, [&](std::size_t round) {
      EXPECT_EQ(round, digests.size());
      std::vector<NetworkCoordinate> coords;
      for (const auto& node : nodes) {
        EXPECT_EQ(node.samples(), round + 1);
        coords.push_back(node.coordinate());
      }
      digests.push_back(digest(coords));
    });
    return digests;
  };
  const auto sequential = per_round_digests(1);
  ASSERT_EQ(sequential.size(), gossip.rounds);
  for (const std::size_t threads : {2, 4}) {
    EXPECT_EQ(per_round_digests(threads), sequential) << "pool size " << threads;
  }
}

// Edge cases of the gossip region and the topology's draw pipeline. Every
// digest below was captured from the level-scheduled gossip driver and the
// two-pass generator that they replaced, which are bit-identical at every
// pool size.

std::uint64_t rnp_digest(const topo::Topology& topology, const RnpConfig& config,
                         std::size_t rounds, std::uint64_t seed) {
  GossipConfig gossip;
  gossip.rounds = rounds;
  return digest(run_rnp(topology, config, gossip, seed));
}

TEST_F(WorldBuildThreads, LaneCountThatDoesNotDivideTheNodes) {
  // 13 nodes over 2 and 3 lanes: the lanes own 7/6 and 5/4/4 nodes.
  const auto topology = planetlab(13, 3);
  for (const std::size_t threads : {2, 3}) {
    ThreadPool::set_global_thread_count(threads);
    SCOPED_TRACE("pool size " + std::to_string(threads));
    EXPECT_DIGEST(rnp_digest(topology, RnpConfig{}, 48, 5), 0xdec6733c1b2a0731ULL);
  }
}

TEST_F(WorldBuildThreads, TwoAndThreeNodeWorldsAtFourThreads) {
  // Fewer nodes than pool threads: one lane per node.
  ThreadPool::set_global_thread_count(4);
  RnpConfig config;
  config.refit_every = 4;
  GossipConfig gossip;
  gossip.rounds = 40;
  const auto two = planetlab(2, 8);
  EXPECT_DIGEST(rnp_digest(two, config, 40, 6), 0x10b6c04192a39071ULL);
  EXPECT_DIGEST(digest(run_vivaldi(two, VivaldiConfig{}, gossip, 6)), 0xdc4b2550d89ebca5ULL);
  const auto three = planetlab(3, 8);
  EXPECT_DIGEST(rnp_digest(three, config, 40, 6), 0x1fe79000d491a949ULL);
  EXPECT_DIGEST(digest(run_vivaldi(three, VivaldiConfig{}, gossip, 6)),
                0xe252b4a4fb449353ULL);
}

TEST_F(WorldBuildThreads, EveryRoundRefits) {
  const auto topology = planetlab(60, 4);
  RnpConfig config;
  config.refit_every = 1;
  for (const std::size_t threads : {1, 2, 3, 4}) {
    ThreadPool::set_global_thread_count(threads);
    SCOPED_TRACE("pool size " + std::to_string(threads));
    EXPECT_DIGEST(rnp_digest(topology, config, 20, 8), 0xfeb0ad6b184185d1ULL);
  }
}

TEST_F(WorldBuildThreads, RoundCountsAroundTheRingsDepths) {
  // Below, at and past the coordinate ring's depth (4 rounds), a block of
  // peer draws (8 rounds) and the peer ring (3 blocks).
  static_assert(detail::kRingDepth == 4 && detail::kPeerBlockRounds == 8);
  const auto topology = planetlab(50, 6);
  RnpConfig config;
  config.refit_every = 3;
  const std::vector<std::pair<std::size_t, std::uint64_t>> goldens = {
      {1, 0x7e917407c398fa68ULL},  {2, 0x9394d9d301399eb7ULL},  {3, 0xb6d6d453710044d9ULL},
      {4, 0x747d8bdbff63875cULL},  {5, 0x98a0eb11d127862eULL},  {8, 0x767109fcb3d0c12fULL},
      {9, 0xc122128fc8783358ULL},  {17, 0xf322b0d6e38991dcULL}, {24, 0x629f2ce44b3ba83bULL},
      {25, 0x176ccfa4e31cd009ULL}, {49, 0xb852df8aba575ceaULL}};
  for (const std::size_t threads : {1, 2, 3, 4}) {
    ThreadPool::set_global_thread_count(threads);
    for (const auto& [rounds, golden] : goldens) {
      SCOPED_TRACE(std::to_string(rounds) + " rounds at pool size " + std::to_string(threads));
      EXPECT_DIGEST(rnp_digest(topology, config, rounds, 10), golden);
    }
  }
}

TEST_F(WorldBuildThreads, VivaldiAndStabilityMatchAtOneAndFourThreads) {
  const auto world = planetlab(300, 9);
  VivaldiConfig with_height;
  with_height.use_height = true;
  const auto stability_world = planetlab(150, 2);
  StabilityConfig stability;
  stability.gossip.rounds = 96;
  stability.warmup_rounds = 32;
  for (const std::size_t threads : {1, 4}) {
    ThreadPool::set_global_thread_count(threads);
    SCOPED_TRACE("pool size " + std::to_string(threads));
    EXPECT_DIGEST(digest(run_vivaldi(world, VivaldiConfig{}, GossipConfig{}, 4)),
                  0x0bbc73d21e85ffbaULL);
    EXPECT_DIGEST(digest(run_vivaldi(world, with_height, GossipConfig{}, 4)),
                  0x142b7df5cff4e692ULL);
    EXPECT_DIGEST(
        digest(measure_stability(stability_world, CoordSystem::kVivaldi, stability, 3)),
        0x181da1336c266143ULL);
    EXPECT_DIGEST(digest(measure_stability(stability_world, CoordSystem::kRnp, stability, 3)),
                  0xd8ceb521aba4a282ULL);
  }
}

TEST_F(WorldBuildThreads, TopologyAroundOnePairBlock) {
  // 127 nodes have 8,001 pairs, under one 8,128-pair block; 128 nodes
  // exactly one block; 129 nodes one block and 128 pairs.
  for (const std::size_t threads : {1, 2, 3, 4}) {
    ThreadPool::set_global_thread_count(threads);
    SCOPED_TRACE("pool size " + std::to_string(threads));
    EXPECT_DIGEST(digest(planetlab(127, 17)), 0xb1d8518a697d00e5ULL);
    EXPECT_DIGEST(digest(planetlab(128, 17)), 0xa5efd44a212d9b75ULL);
    EXPECT_DIGEST(digest(planetlab(129, 17)), 0x43f47c8b3df7af8eULL);
  }
}

TEST_F(WorldBuildThreads, ThrowingRoundHookStopsEveryLane) {
  // The hook runs on one lane while the others wait for it; when it throws,
  // they must return and the exception must reach the caller.
  ThreadPool::set_global_thread_count(4);
  const auto topology = planetlab(40, 3);
  std::vector<RnpNode> nodes;
  for (std::size_t i = 0; i < topology.size(); ++i) {
    nodes.emplace_back(RnpConfig{}, static_cast<std::uint32_t>(i));
  }
  GossipConfig gossip;
  gossip.rounds = 32;
  const auto throw_in_round_five = [](std::size_t round) {
    if (round == 5) throw std::runtime_error("hook failed");
  };
  EXPECT_THROW(detail::run_gossip(topology, nodes, gossip, 3, throw_in_round_five),
               std::runtime_error);
  // The pool is usable afterwards.
  EXPECT_DIGEST(digest(planetlab(226, 42)), 0x5331f9a043092af6ULL);
}

}  // namespace
}  // namespace geored::coord
