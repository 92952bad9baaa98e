// Determinism coverage for the simulated-protocol collectors: with a fixed
// seed, HierarchicalCollector and DecentralizedCollector must be
// bit-reproducible even when the network injects per-message jitter —
// message timing may wobble, but what arrives (and what is decided) cannot
// depend on the wobble's realization beyond the seeded stream itself.
#include "core/collector.h"

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "cluster/summarizer.h"
#include "common/random.h"
#include "common/serialize.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace geored::core {
namespace {

/// 1-D world with data centers at x = 0, 100, ... and per-source synthetic
/// populations, as in the aggregation tests.
struct JitterWorld {
  topo::Topology topology;
  std::vector<place::CandidateInfo> candidates;
  /// What the sources view, one population each.
  std::deque<cluster::ClusterBuffer> populations;
  std::vector<SummarySource> sources;

  JitterWorld(std::size_t dc_count, std::size_t source_count, std::uint64_t seed)
      : topology(topo::Topology(std::vector<topo::NodeInfo>(0), SymMatrix(0), {})) {
    SymMatrix rtt(dc_count);
    std::vector<Point> positions;
    for (std::size_t i = 0; i < dc_count; ++i) {
      positions.push_back(Point{100.0 * static_cast<double>(i)});
    }
    for (std::size_t i = 0; i < dc_count; ++i) {
      for (std::size_t j = i + 1; j < dc_count; ++j) {
        rtt.set(i, j, std::max(0.1, positions[i].distance_to(positions[j])));
      }
    }
    topology = topo::Topology(std::vector<topo::NodeInfo>(dc_count), std::move(rtt), {});
    for (std::size_t i = 0; i < dc_count; ++i) {
      candidates.push_back({static_cast<topo::NodeId>(i), positions[i],
                            std::numeric_limits<double>::infinity()});
    }
    Rng rng(seed);
    for (std::size_t s = 0; s < source_count; ++s) {
      SummarySource source;
      source.node = static_cast<topo::NodeId>(s % dc_count);
      cluster::SummarizerConfig config;
      config.max_clusters = 4;
      config.min_absorb_radius = 10.0;
      cluster::MicroClusterSummarizer summarizer(config);
      const double center = 100.0 * static_cast<double>(s % dc_count);
      for (int i = 0; i < 40; ++i) summarizer.add(Point{rng.normal(center, 10.0)});
      source.clusters = populations.emplace_back(summarizer.clusters()).view();
      sources.push_back(source);
    }
  }
};

std::vector<std::uint8_t> fingerprint(const CollectedSummaries& collected) {
  ByteWriter writer;
  cluster::write_clusters(writer, collected.summaries.view());
  writer.write_u64(collected.summary_bytes);
  return writer.bytes();
}

sim::NetworkConfig jittery() {
  sim::NetworkConfig config;
  config.jitter = 0.3;
  return config;
}

TEST(CollectorJitter, HierarchicalIsBitReproducibleUnderJitter) {
  const JitterWorld world(8, 8, 3);
  auto run = [&] {
    sim::Simulator simulator;
    sim::Network network(simulator, world.topology, jittery());
    HierarchicalCollector collector(simulator, network, world.candidates.front().node);
    return fingerprint(collector.collect(world.sources, {world.candidates, 3, 17}));
  };
  EXPECT_EQ(run(), run());
}

TEST(CollectorJitter, DecentralizedIsBitReproducibleUnderJitter) {
  const JitterWorld world(8, 4, 5);
  auto run = [&] {
    sim::Simulator simulator;
    sim::Network network(simulator, world.topology, jittery());
    DecentralizedCollector collector(simulator, network);
    const CollectedSummaries collected =
        collector.collect(world.sources, {world.candidates, 3, 29});
    EXPECT_TRUE(collected.agreed_proposal.has_value());
    std::vector<std::uint8_t> bytes = fingerprint(collected);
    if (collected.agreed_proposal) {
      ByteWriter writer;
      for (const auto node : *collected.agreed_proposal) {
        writer.write_u64(static_cast<std::uint64_t>(node));
      }
      bytes.insert(bytes.end(), writer.bytes().begin(), writer.bytes().end());
    }
    return bytes;
  };
  EXPECT_EQ(run(), run());
}

TEST(CollectorJitter, DecentralizedAgreementSurvivesJitter) {
  // Jitter reorders message arrivals, but the decentralized protocol's
  // agreement must not care: every replica still decides on the same full
  // summary set, so a proposal is always agreed.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const JitterWorld world(8, 4, seed);
    sim::Simulator simulator;
    sim::Network network(simulator, world.topology, jittery());
    DecentralizedCollector collector(simulator, network);
    const CollectedSummaries collected =
        collector.collect(world.sources, {world.candidates, 3, seed * 101});
    EXPECT_TRUE(collected.agreed_proposal.has_value()) << "seed " << seed;
    EXPECT_FALSE(collected.summaries.empty());
  }
}

}  // namespace
}  // namespace geored::core
