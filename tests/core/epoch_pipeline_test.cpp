#include "core/epoch_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/summarizer.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/sym_matrix.h"
#include "core/replication_manager.h"
#include "net/clock.h"
#include "placement/strategy.h"
#include "reference/scalar.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace geored::core {
namespace {

/// Candidates on a 1-D line at x = 0, 100, 200, ..., 900.
std::vector<place::CandidateInfo> line_candidates(std::size_t count = 10) {
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < count; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i),
                          Point{100.0 * static_cast<double>(i)},
                          std::numeric_limits<double>::infinity()});
  }
  return candidates;
}

void append_placement(std::string& out, const char* label, const place::Placement& p) {
  out += label;
  out += "=[";
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(p[i]);
  }
  out += "]";
}

/// Renders every EpochReport field with bit-exact doubles (hex float), the
/// same encoding the pre-refactor golden capture used. Two reports compare
/// equal here iff they are bitwise-identical.
std::string format_report(const EpochReport& r) {
  std::string out;
  append_placement(out, "old", r.old_placement);
  append_placement(out, " proposed", r.proposed_placement);
  append_placement(out, " adopted", r.adopted_placement);
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                " old_delay=%a new_delay=%a migrate=%d gain=%a rel=%a cost=%a moved=%zu "
                "bytes=%zu accesses=%llu degree=%zu",
                r.old_estimated_delay_ms, r.new_estimated_delay_ms,
                r.decision.migrate ? 1 : 0, r.decision.gain_ms, r.decision.relative_gain,
                r.decision.cost_usd, r.replicas_moved, r.summary_bytes,
                static_cast<unsigned long long>(r.epoch_accesses), r.degree);
  out += buffer;
  return out;
}

// The pipeline refactor's contract: the default composition reproduces the
// hand-inlined pre-refactor run_epoch bit for bit. These lines were captured
// from the pre-refactor build (same scenario: k=3, seed 7, three client
// populations at x = 0 / 430 / 900, 900 accesses each per epoch, 6 epochs).
const char* const kGoldenDefaultScenario[] = {
    "old=[7,3,8] proposed=[0,9,4] adopted=[0,9,4] old_delay=0x1.615a3e3074a26p+7 "
    "new_delay=0x1.c3f6bc12401cp+3 migrate=1 gain=0x1.451ad26f50a0ap+7 "
    "rel=0x1.d711d49b7cd5fp-1 cost=0x1.3333333333334p-2 moved=3 bytes=332 accesses=2700 "
    "degree=3",
    "old=[0,9,4] proposed=[0,9,4] adopted=[0,9,4] old_delay=0x1.fc2bd242e094cp+3 "
    "new_delay=0x1.fc2bd242e094cp+3 migrate=0 gain=0x0p+0 rel=0x0p+0 cost=0x0p+0 moved=0 "
    "bytes=492 accesses=2700 degree=3",
    "old=[0,9,4] proposed=[9,4,0] adopted=[0,9,4] old_delay=0x1.07e9ab510c792p+4 "
    "new_delay=0x1.07e9ab510c792p+4 migrate=0 gain=0x0p+0 rel=0x0p+0 cost=0x0p+0 moved=0 "
    "bytes=492 accesses=2700 degree=3",
    "old=[0,9,4] proposed=[9,0,4] adopted=[0,9,4] old_delay=0x1.123e7149fed67p+4 "
    "new_delay=0x1.123e7149fed67p+4 migrate=0 gain=0x0p+0 rel=0x0p+0 cost=0x0p+0 moved=0 "
    "bytes=492 accesses=2700 degree=3",
    "old=[0,9,4] proposed=[0,9,4] adopted=[0,9,4] old_delay=0x1.1606b0bb1d29dp+4 "
    "new_delay=0x1.1606b0bb1d29dp+4 migrate=0 gain=0x0p+0 rel=0x0p+0 cost=0x0p+0 moved=0 "
    "bytes=492 accesses=2700 degree=3",
    "old=[0,9,4] proposed=[0,9,4] adopted=[0,9,4] old_delay=0x1.1a62427729da4p+4 "
    "new_delay=0x1.1a62427729da4p+4 migrate=0 gain=0x0p+0 rel=0x0p+0 cost=0x0p+0 moved=0 "
    "bytes=492 accesses=2700 degree=3",
};

ManagerConfig golden_config() {
  ManagerConfig config;
  config.replication_degree = 3;
  config.summarizer.max_clusters = 4;
  config.summarizer.min_absorb_radius = 10.0;
  return config;
}

void feed_golden_epoch(ReplicationManager& manager, Rng& rng) {
  for (int i = 0; i < 900; ++i) {
    manager.serve(Point{rng.normal(0.0, 15.0)});
    manager.serve(Point{rng.normal(430.0, 15.0)});
    manager.serve(Point{rng.normal(900.0, 15.0)});
  }
}

TEST(EpochPipeline, DefaultCompositionMatchesPreRefactorGolden) {
  ReplicationManager manager(line_candidates(), golden_config(), 7);
  Rng rng(5);
  for (std::size_t epoch = 0; epoch < std::size(kGoldenDefaultScenario); ++epoch) {
    feed_golden_epoch(manager, rng);
    EXPECT_EQ(format_report(manager.run_epoch()), kGoldenDefaultScenario[epoch])
        << "epoch " << epoch;
  }
}

TEST(EpochPipeline, ExplicitCollectorMatchesDefaultConstructor) {
  // Handing the manager the registry's direct collector must be
  // indistinguishable from the three-argument constructor — same reports,
  // bit for bit, every epoch.
  const ManagerConfig config = golden_config();
  ReplicationManager implicit(line_candidates(), config, 7);
  ReplicationManager direct(line_candidates(), config, 7, make_collector("direct"));

  Rng implicit_rng(5);
  Rng direct_rng(5);
  for (int epoch = 0; epoch < 6; ++epoch) {
    feed_golden_epoch(implicit, implicit_rng);
    feed_golden_epoch(direct, direct_rng);
    EXPECT_EQ(format_report(direct.run_epoch()), format_report(implicit.run_epoch()))
        << "epoch " << epoch;
  }
}

TEST(EpochPipeline, RejectsNullCollector) {
  EXPECT_THROW(ReplicationManager(line_candidates(), golden_config(), 7, nullptr),
               std::invalid_argument);
}

TEST(EpochPipeline, CollectorRegistryKnowsItsNames) {
  const auto names = collector_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "direct");
  EXPECT_EQ(names[1], "hierarchical");
  EXPECT_EQ(names[2], "decentralized");
  EXPECT_EQ(names[3], "rpc");

  const auto direct = make_collector("direct");
  EXPECT_EQ(direct->name(), "direct");
  // "rpc" runs over real localhost sockets; like "direct" it needs no
  // simulated network.
  EXPECT_EQ(make_collector("rpc")->name(), "rpc");

  EXPECT_THROW(make_collector("carrier-pigeon"), std::invalid_argument);
  // Protocol collectors need a simulated network to run over.
  EXPECT_THROW(make_collector("hierarchical"), std::invalid_argument);
  EXPECT_THROW(make_collector("decentralized"), std::invalid_argument);
}

TEST(EpochPipeline, StrategyRegistryKnowsItsNames) {
  const auto names = place::strategy_names();
  ASSERT_EQ(names.size(), 7u);
  for (const auto& name : names) {
    const auto strategy = place::make_strategy(name);
    ASSERT_NE(strategy, nullptr) << name;
    EXPECT_EQ(place::make_strategy(place::strategy_kind(name))->name(), strategy->name());
  }
  // Aliases resolve to their canonical strategies.
  EXPECT_EQ(place::strategy_kind("offline"), place::strategy_kind("offline_kmeans"));
  EXPECT_EQ(place::strategy_kind("local-search"), place::strategy_kind("local_search"));
  EXPECT_THROW(place::make_strategy("simulated-annealing"), std::invalid_argument);
}

/// Serialized per-replica bytes after a redistribution, keyed by node in map
/// order — the byte-equality currency for the adopter equivalence pin.
std::vector<std::pair<topo::NodeId, std::vector<std::uint8_t>>> serialized_summarizers(
    const std::map<topo::NodeId, cluster::MicroClusterSummarizer>& summarizers) {
  std::vector<std::pair<topo::NodeId, std::vector<std::uint8_t>>> out;
  for (const auto& [node, summarizer] : summarizers) {
    ByteWriter writer;
    summarizer.serialize(writer);
    out.emplace_back(node, writer.bytes());
  }
  return out;
}

// The kernelized redistribute_to_nearest is byte-identical to the frozen
// scalar reference (the doc contract in epoch_pipeline.h): same summarizer
// map keys, same serialized cluster bytes per replica. Large enough summary
// counts to cross the parallel-dispatch threshold, plus degenerate shapes:
// empty summaries, a single replica, and coincident candidates.
TEST(EpochPipeline, AdopterMatchesScalar) {
  cluster::SummarizerConfig config;
  config.max_clusters = 6;
  config.min_absorb_radius = 10.0;

  const auto run_case = [&](const std::vector<place::CandidateInfo>& candidates,
                            const place::Placement& next, std::size_t n_summaries,
                            std::uint64_t seed, const char* label) {
    Rng rng(seed);
    std::vector<cluster::MicroCluster> summaries;
    for (std::size_t i = 0; i < n_summaries; ++i) {
      cluster::MicroCluster micro;
      const double center = rng.uniform(-50.0, 950.0);
      const int accesses = 1 + static_cast<int>(rng.below(4));
      for (int a = 0; a < accesses; ++a) {
        micro.absorb(Point{rng.normal(center, 20.0)},
                     1.0 + static_cast<double>(rng.below(3)));
      }
      summaries.push_back(micro);
    }

    const auto fast = redistribute_to_nearest(next, summaries, candidates, config);
    const auto scalar = redistribute_to_nearest_scalar(next, summaries, candidates, config);
    EXPECT_EQ(serialized_summarizers(fast), serialized_summarizers(scalar)) << label;
  };

  const auto candidates = line_candidates();
  run_case(candidates, {1, 4, 8}, 600, 0x5ca1, "parallel-scale");
  run_case(candidates, {0, 9}, 12, 0xbee, "small");
  run_case(candidates, {5}, 200, 0x1234, "single-replica");
  run_case(candidates, {2, 6}, 0, 0x9, "no-summaries");

  // Coincident candidate coordinates: the strict-< first-winner rule must
  // resolve ties to the lower placement slot in both implementations.
  auto coincident = line_candidates(6);
  for (auto& c : coincident) c.coords = Point{250.0};
  run_case(coincident, {3, 1, 5}, 150, 0x77, "coincident");
}

/// Passes collection through and keeps the proposal the collector agreed.
struct RecordingCollector final : SummaryCollector {
  RecordingCollector(std::unique_ptr<SummaryCollector> wrapped,
                     std::optional<place::Placement>& out)
      : inner(std::move(wrapped)), agreed(out) {}
  std::string name() const override { return inner->name(); }
  CollectedSummaries collect(const std::vector<SummarySource>& sources,
                             const CollectionContext& context) override {
    CollectedSummaries collected = inner->collect(sources, context);
    agreed = collected.agreed_proposal;
    return collected;
  }
  std::unique_ptr<SummaryCollector> inner;
  std::optional<place::Placement>& agreed;
};

// Every registry collector drives a manager through whole epochs, one with a
// failed data center. The decentralized collector's agreed proposal is what
// the manager proposes (its propose step is skipped).
TEST(EpochPipeline, EveryRegistryCollectorDrivesAManager) {
  const auto candidates = line_candidates();
  SymMatrix rtt(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      rtt.set(i, j, 100.0 * static_cast<double>(j - i));
    }
  }
  const topo::Topology topology(std::vector<topo::NodeInfo>(candidates.size()), rtt, {});
  for (const auto& name : collector_names()) {
    sim::Simulator simulator;
    sim::Network network(simulator, topology);
    CollectorConfig config;
    config.simulator = &simulator;
    config.network = &network;
    config.rpc_clock = std::make_shared<net::VirtualClock>();
    std::optional<place::Placement> agreed;
    ReplicationManager manager(
        candidates, golden_config(), 7,
        std::make_unique<RecordingCollector>(make_collector(name, config), agreed));
    Rng rng(5);
    for (int epoch = 0; epoch < 4; ++epoch) {
      std::set<topo::NodeId> excluded;
      if (epoch == 2) excluded.insert(manager.placement().front());
      feed_golden_epoch(manager, rng);
      const EpochReport report = manager.run_epoch(excluded);
      SCOPED_TRACE(name + " epoch " + std::to_string(epoch));
      const place::Placement& adopted = report.adopted_placement;
      EXPECT_EQ(adopted.size(), std::min(report.degree, candidates.size() - excluded.size()));
      EXPECT_EQ(std::set<topo::NodeId>(adopted.begin(), adopted.end()).size(), adopted.size());
      for (const auto node : adopted) {
        EXPECT_LT(node, candidates.size());
        EXPECT_FALSE(excluded.contains(node));
      }
      EXPECT_EQ(report.lost_sources, excluded.size());
      EXPECT_GT(report.summary_bytes, 0u);
      EXPECT_EQ(agreed.has_value(), name == "decentralized");
      if (agreed.has_value()) {
        EXPECT_EQ(report.proposed_placement, *agreed);
      }
    }
  }
}

TEST(EpochPipeline, DirectCollectorFlattensInSourceOrder) {
  std::vector<SummarySource> sources(2);
  sources[0].node = 4;
  sources[1].node = 9;
  for (int s = 0; s < 2; ++s) {
    cluster::MicroCluster micro;
    micro.absorb(Point{100.0 * s}, 1.0);
    sources[s].clusters.push_back(micro);
  }
  const auto candidates = line_candidates();
  DirectCollector collector;
  const auto collected = collector.collect(sources, {candidates, 2, 0});
  ASSERT_EQ(collected.summaries.size(), 2u);
  EXPECT_EQ(collected.summaries[0].centroid()[0], 0.0);
  EXPECT_EQ(collected.summaries[1].centroid()[0], 100.0);
  EXPECT_FALSE(collected.agreed_proposal.has_value());
  EXPECT_GT(collected.summary_bytes, 0u);
}

}  // namespace
}  // namespace geored::core
