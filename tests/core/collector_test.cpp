#include "core/collector.h"

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
#include "net/rpc_collector.h"
#include "placement/strategy.h"
#include "reference/microcluster.h"
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
// The bytes= fields were re-pinned when summaries moved to the compact
// summary frame (332 and 492 B in the fixed-width layout, then 145 and
// 218/217 B as one full frame per replica), again when collection split
// into two phases (epoch 0 adopts and shipped centroid and moment frames,
// 150 B; the others keep their placement and ship centroid frames alone,
// 122/121 B), and once more when phase 2 began to follow the hand-off plan:
// epoch 0 moves every cluster, so the two sources that hold clusters each
// add a 1-byte departure mask, and the empty one, no longer asked, drops its
// 1-byte moment frame (151 B). Every other field is as captured.
const char* const kGoldenDefaultScenario[] = {
    "old=[7,3,8] proposed=[0,9,4] adopted=[0,9,4] old_delay=0x1.615a3e3074a26p+7 "
    "new_delay=0x1.c3f6bc12401cp+3 migrate=1 gain=0x1.451ad26f50a0ap+7 "
    "rel=0x1.d711d49b7cd5fp-1 cost=0x1.3333333333334p-2 moved=3 bytes=151 accesses=2700 "
    "degree=3",
    "old=[0,9,4] proposed=[0,9,4] adopted=[0,9,4] old_delay=0x1.fc2bd242e094cp+3 "
    "new_delay=0x1.fc2bd242e094cp+3 migrate=0 gain=0x0p+0 rel=0x0p+0 cost=0x0p+0 moved=0 "
    "bytes=122 accesses=2700 degree=3",
    "old=[0,9,4] proposed=[9,4,0] adopted=[0,9,4] old_delay=0x1.07e9ab510c792p+4 "
    "new_delay=0x1.07e9ab510c792p+4 migrate=0 gain=0x0p+0 rel=0x0p+0 cost=0x0p+0 moved=0 "
    "bytes=121 accesses=2700 degree=3",
    "old=[0,9,4] proposed=[9,0,4] adopted=[0,9,4] old_delay=0x1.123e7149fed67p+4 "
    "new_delay=0x1.123e7149fed67p+4 migrate=0 gain=0x0p+0 rel=0x0p+0 cost=0x0p+0 moved=0 "
    "bytes=122 accesses=2700 degree=3",
    "old=[0,9,4] proposed=[0,9,4] adopted=[0,9,4] old_delay=0x1.1606b0bb1d29dp+4 "
    "new_delay=0x1.1606b0bb1d29dp+4 migrate=0 gain=0x0p+0 rel=0x0p+0 cost=0x0p+0 moved=0 "
    "bytes=121 accesses=2700 degree=3",
    "old=[0,9,4] proposed=[0,9,4] adopted=[0,9,4] old_delay=0x1.1a62427729da4p+4 "
    "new_delay=0x1.1a62427729da4p+4 migrate=0 gain=0x0p+0 rel=0x0p+0 cost=0x0p+0 moved=0 "
    "bytes=121 accesses=2700 degree=3",
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
    cluster::write_clusters(writer, summarizer.clusters());
    out.emplace_back(node, writer.bytes());
  }
  return out;
}

// The kernelized redistribute_to_nearest is byte-identical to the frozen
// scalar reference (the doc contract in collector.h): same summarizer
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

    const place::CandidateTable table(candidates);
    cluster::ClusterBuffer collected = cluster::to_cluster_buffer(summaries);
    plan_handoff(next, table, collected);
    std::map<topo::NodeId, cluster::MicroClusterSummarizer> fast;
    redistribute_to_nearest(next, collected, config, fast);
    const auto scalar = redistribute_to_nearest_scalar(next, summaries, candidates, config);
    EXPECT_EQ(serialized_summarizers(fast), serialized_summarizers(scalar)) << label;
    // Refilled in place: summarizers already holding clusters, for a node
    // of `next` and for one that leaves, end exactly like fresh ones.
    std::map<topo::NodeId, cluster::MicroClusterSummarizer> refilled;
    for (const topo::NodeId node : {next.front(), topo::NodeId{99}}) {
      auto& held = refilled.try_emplace(node, config).first->second;
      for (int a = 0; a < 20; ++a) held.add(Point{rng.normal(400.0, 200.0)});
    }
    redistribute_to_nearest(next, collected, config, refilled);
    EXPECT_EQ(serialized_summarizers(refilled), serialized_summarizers(scalar)) << label;
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

// The hand-off follows its plan: a departing cluster's moments travel in
// phase 2 and a staying cluster's are read from its own replica, and the
// summarizers that result equal, as full frames, the frozen scalar
// redistribution fed every cluster's moments. Seeded cases over the
// collectors whose rows are their sources' own: current replicas that keep
// their replica, are dropped or are joined by new ones, degree changes both
// ways, and a current replica on an excluded data center, which reports
// nothing and leaves the placement.
TEST(EpochPipeline, HandOffPlanMatchesScalar) {
  cluster::SummarizerConfig config;
  config.max_clusters = 5;
  config.min_absorb_radius = 10.0;
  const auto candidates = line_candidates();
  const place::CandidateTable table(candidates);
  SymMatrix rtt(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      rtt.set(i, j, 100.0 * static_cast<double>(j - i));
    }
  }
  const topo::Topology topology(std::vector<topo::NodeInfo>(candidates.size()), rtt, {});
  const auto pick = [&](Rng& rng, std::size_t count, const std::set<topo::NodeId>& avoid) {
    std::vector<topo::NodeId> pool;
    for (topo::NodeId node = 0; node < candidates.size(); ++node) {
      if (!avoid.contains(node)) pool.push_back(node);
    }
    place::Placement chosen;
    while (chosen.size() < count && !pool.empty()) {
      const std::size_t at = rng.below(pool.size());
      chosen.push_back(pool[at]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(at));
    }
    return chosen;
  };
  std::size_t staying = 0;
  std::size_t departing = 0;
  // How many cases had each shape, so the seeds provably cover them.
  std::size_t kept = 0, dropped = 0, added = 0, grew = 0, shrank = 0, impaired = 0;
  for (const std::string name : {"direct", "rpc", "decentralized"}) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      SCOPED_TRACE(name + " seed " + std::to_string(seed));
      Rng rng(seed * 7919);
      // Current replicas, each summarizing clients around a few centers on
      // the line, so clusters land near every candidate.
      const place::Placement current = pick(rng, 2 + rng.below(4), {});
      std::map<topo::NodeId, cluster::MicroClusterSummarizer> summarizers;
      for (const auto node : current) {
        auto& summarizer = summarizers.try_emplace(node, config).first->second;
        const double home = 100.0 * static_cast<double>(node);
        for (int a = 0; a < 120; ++a) {
          const double center = rng.below(3) == 0 ? rng.uniform(-50.0, 950.0) : home;
          summarizer.add(Point{rng.normal(center, 12.0)});
        }
      }
      std::set<topo::NodeId> excluded;
      if (seed % 4 == 0) excluded.insert(current[rng.below(current.size())]);
      // The next placement: some current replicas kept, new ones added,
      // with a degree of its own.
      const place::Placement next = pick(rng, 1 + rng.below(5), excluded);
      const auto in_next = [&](topo::NodeId node) {
        return std::find(next.begin(), next.end(), node) != next.end();
      };
      const auto in_current = [&](topo::NodeId node) {
        return std::find(current.begin(), current.end(), node) != current.end();
      };
      kept += std::any_of(current.begin(), current.end(), in_next) ? 1 : 0;
      dropped += std::any_of(current.begin(), current.end(),
                             [&](topo::NodeId node) { return !in_next(node); })
                     ? 1
                     : 0;
      added += std::any_of(next.begin(), next.end(),
                           [&](topo::NodeId node) { return !in_current(node); })
                   ? 1
                   : 0;
      grew += next.size() > current.size() ? 1 : 0;
      shrank += next.size() < current.size() ? 1 : 0;
      impaired += excluded.empty() ? 0 : 1;

      std::vector<SummarySource> sources;
      std::vector<cluster::MicroCluster> full;
      for (const auto& [node, summarizer] : summarizers) {
        if (excluded.contains(node)) continue;
        sources.push_back({node, summarizer.clusters()});
        const std::vector<cluster::MicroCluster> copied =
            cluster::to_micro_clusters(summarizer.clusters());
        full.insert(full.end(), copied.begin(), copied.end());
      }
      const auto scalar = redistribute_to_nearest_scalar(next, full, candidates, config);

      sim::Simulator simulator;
      sim::Network network(simulator, topology);
      CollectorConfig collector_config;
      collector_config.simulator = &simulator;
      collector_config.network = &network;
      collector_config.rpc_clock = std::make_shared<net::VirtualClock>();
      const auto collector = make_collector(name, collector_config);
      const CollectionContext context{candidates, next.size(), seed};
      CollectedSummaries collected = collector->collect(sources, context);
      plan_handoff(next, table, collected.summaries);
      for (std::size_t i = 0; i < collected.summaries.size(); ++i) {
        ++(collected.summaries.departs(i) ? departing : staying);
      }
      collector->collect_moments(sources, context, collected);
      EXPECT_TRUE(collected.handoff_lost_sources.empty());
      redistribute_to_nearest(next, collected.summaries, config, summarizers);
      EXPECT_EQ(serialized_summarizers(summarizers), serialized_summarizers(scalar));
    }
  }
  EXPECT_GT(staying, 0u);
  EXPECT_GT(departing, 0u);
  for (const std::size_t cases : {kept, dropped, added, grew, shrank, impaired}) {
    EXPECT_GT(cases, 0u);
  }
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
  void collect_moments(const std::vector<SummarySource>& sources,
                       const CollectionContext& context,
                       CollectedSummaries& collected) override {
    inner->collect_moments(sources, context, collected);
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

/// Passes both phases through and records what each was handed and
/// reported. The sources view replicas the epoch then ages or replaces, so
/// the recorder keeps copies of their clusters. With a network, it also
/// records the summary traffic phase 2 put on it.
struct PhaseRecorder final : SummaryCollector {
  PhaseRecorder(std::unique_ptr<SummaryCollector> wrapped, const sim::Network* traffic)
      : inner(std::move(wrapped)), network(traffic) {}
  std::string name() const override { return inner->name(); }
  CollectedSummaries collect(const std::vector<SummarySource>& phase_sources,
                             const CollectionContext& context) override {
    kept.clear();
    for (const auto& source : phase_sources) kept.emplace_back(source.clusters);
    sources = phase_sources;
    for (std::size_t i = 0; i < sources.size(); ++i) sources[i].clusters = kept[i].view();
    candidates = context.candidates;
    epoch_seed = context.epoch_seed;
    moments_collected = false;
    phase_two_bytes = 0;
    phase_two_messages = 0;
    CollectedSummaries collected = inner->collect(phase_sources, context);
    phase_one_bytes = collected.summary_bytes;
    return collected;
  }
  void collect_moments(const std::vector<SummarySource>& phase_sources,
                       const CollectionContext& context,
                       CollectedSummaries& collected) override {
    moments_collected = true;
    const auto summary = static_cast<std::size_t>(sim::TrafficClass::kSummary);
    const sim::TrafficStats before = network->stats();
    inner->collect_moments(phase_sources, context, collected);
    phase_two_bytes = network->stats().bytes[summary] - before.bytes[summary];
    phase_two_messages = network->stats().messages[summary] - before.messages[summary];
  }
  std::unique_ptr<SummaryCollector> inner;
  const sim::Network* network;
  std::vector<cluster::ClusterBuffer> kept;
  std::vector<SummarySource> sources;
  std::vector<place::CandidateInfo> candidates;
  std::uint64_t epoch_seed = 0;
  std::size_t phase_one_bytes = 0;
  std::uint64_t phase_two_bytes = 0;
  std::uint64_t phase_two_messages = 0;
  bool moments_collected = false;
};

/// The replica of `placement` nearest `micro`'s centroid: the hand-off
/// plan's rule (strict `<`, first winner), restated on Points.
topo::NodeId destination_of(const cluster::MicroCluster& micro,
                            const place::Placement& placement,
                            const std::vector<place::CandidateInfo>& candidates) {
  const Point centroid = micro.centroid();
  topo::NodeId best = placement.front();
  double best_dist = std::numeric_limits<double>::infinity();
  for (const auto node : placement) {
    const auto candidate =
        std::find_if(candidates.begin(), candidates.end(),
                     [node](const place::CandidateInfo& info) { return info.node == node; });
    const double dist = centroid.distance_squared_to(candidate->coords);
    if (dist < best_dist) {
      best_dist = dist;
      best = node;
    }
  }
  return best;
}

/// What each phase of `name` sends for the recorded round, computed from the
/// frame codec and the collection substrate rather than read from the
/// collector.
struct PhaseFrames {
  std::size_t centroids = 0;  ///< phase 1: centroid frames
  std::size_t moments = 0;    ///< phase 2: masks and departing (or moment) frames
  std::size_t asked = 0;      ///< sources phase 2 asks ("direct", "rpc")
  std::size_t silent = 0;     ///< sources with nothing departing ("direct", "rpc")
  std::size_t frames = 0;     ///< phase-2 messages ("decentralized")
};

PhaseFrames frames_sent(const std::string& name, const PhaseRecorder& round,
                        const place::Placement& adopted, const topo::Topology& topology) {
  const auto centroid_bytes = [](cluster::ClusterView clusters) {
    ByteWriter writer;
    cluster::write_centroid_frame(writer, clusters);
    return writer.size();
  };
  // The departing moment frame of the clusters `bound` selects, 0 if none.
  const auto departing_bytes = [](const std::vector<cluster::MicroCluster>& clusters,
                                  const auto& bound) {
    cluster::DepartureMask mask(clusters.size());
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (bound(clusters[i])) mask.set(i);
    }
    if (mask.departing() == 0) return std::pair<std::size_t, std::size_t>{0, 0};
    ByteWriter writer;
    cluster::write_departing_moment_frame(writer, cluster::to_cluster_buffer(clusters).view(),
                                          mask);
    return std::pair<std::size_t, std::size_t>{mask.bytes().size(), writer.size()};
  };
  PhaseFrames frames;
  if (name == "direct" || name == "rpc") {
    // Every source straight to the coordinator; in phase 2, a source with a
    // departing cluster is sent its mask and replies with its moments.
    for (const auto& source : round.sources) {
      const std::vector<cluster::MicroCluster> clusters =
          cluster::to_micro_clusters(source.clusters);
      frames.centroids += centroid_bytes(source.clusters);
      const auto [mask, reply] = departing_bytes(clusters, [&](const auto& micro) {
        return destination_of(micro, adopted, round.candidates) != source.node;
      });
      frames.moments += mask + reply;
      ++(reply > 0 ? frames.asked : frames.silent);
    }
  } else if (name == "decentralized") {
    // Every replica to each of its peers; in phase 2, one departing frame
    // per (replica, destination), and no mask.
    std::map<topo::NodeId, std::vector<cluster::MicroCluster>> by_node;
    for (const auto& source : round.sources) {
      auto& clusters = by_node[source.node];
      const std::vector<cluster::MicroCluster> copied =
          cluster::to_micro_clusters(source.clusters);
      clusters.insert(clusters.end(), copied.begin(), copied.end());
    }
    for (const auto& [node, clusters] : by_node) {
      frames.centroids +=
          (by_node.size() - 1) * centroid_bytes(cluster::to_cluster_buffer(clusters).view());
      for (const auto destination : adopted) {
        if (destination == node) continue;
        const auto [mask, reply] = departing_bytes(clusters, [&](const auto& micro) {
          return destination_of(micro, adopted, round.candidates) == destination;
        });
        frames.moments += reply;
        frames.frames += reply > 0 ? 1 : 0;
      }
    }
  } else {
    // The aggregators' merges to the root, replayed on a scratch network
    // (Aggregation.SummaryTrafficIsTheFramesSent pins these sizes against
    // the encoded frames); merged clusters have no single origin, so every
    // moment frame ships.
    sim::Simulator simulator;
    sim::Network network(simulator, topology);
    const AggregationPlan plan =
        plan_aggregation(round.candidates, round.sources, round.epoch_seed);
    const AggregationResult result =
        run_aggregation(simulator, network, plan, round.sources, 0);
    frames.centroids += result.bytes_into_root;
    for (const auto& forwarded : result.forwarded) frames.moments += forwarded.moment_bytes;
  }
  return frames;
}

// Counted bytes are the frames sent: for every registry collector, an epoch
// that keeps its placement reports its centroid frames, and an epoch that
// adopts (a migration, or a failed data center in the placement) reports
// its centroid frames plus phase 2 — and only it runs phase 2. Phase 2 is,
// per source with a cluster that changes replica, its departure mask and
// departing moment frame ("direct", "rpc"; rpc never asks a source with
// nothing departing), one departing frame per (source, destination)
// ("decentralized": each departing cluster's moments once, to its
// destination), or every aggregator's moment frame ("hierarchical").
TEST(EpochPipeline, SummaryBytesAreTheFramesEachPhaseSent) {
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
    auto recorder = std::make_unique<PhaseRecorder>(make_collector(name, config), &network);
    const PhaseRecorder& round = *recorder;
    const auto* rpc = dynamic_cast<const net::RpcCollector*>(round.inner.get());
    ReplicationManager manager(candidates, golden_config(), 7, std::move(recorder));
    Rng rng(5);
    std::size_t adopting = 0;
    std::size_t keeping = 0;
    std::size_t asked = 0;
    std::size_t silent = 0;
    for (int epoch = 0; epoch < 6; ++epoch) {
      SCOPED_TRACE(name + " epoch " + std::to_string(epoch));
      std::set<topo::NodeId> excluded;
      if (epoch == 3) excluded.insert(manager.placement().front());
      feed_golden_epoch(manager, rng);
      const EpochReport report = manager.run_epoch(excluded);
      const bool impaired = !excluded.empty();
      const bool adopts = report.decision.migrate || impaired ||
                          report.proposed_placement.size() != report.old_placement.size();
      const PhaseFrames frames = frames_sent(name, round, report.adopted_placement, topology);
      EXPECT_EQ(round.moments_collected, adopts);
      EXPECT_EQ(round.phase_one_bytes, frames.centroids);
      EXPECT_EQ(report.summary_bytes, frames.centroids + (adopts ? frames.moments : 0));
      EXPECT_EQ(report.handoff_lost_sources, 0u);
      if (adopts && rpc != nullptr) {
        // Zero faults: one request per source in phase 1, and one per source
        // with a departing cluster in phase 2.
        EXPECT_EQ(rpc->last_stats().requests_sent, round.sources.size() + frames.asked);
      }
      if (adopts && name == "decentralized") {
        EXPECT_EQ(round.phase_two_bytes, frames.moments);
        EXPECT_EQ(round.phase_two_messages, frames.frames);
      }
      if (adopts) {
        asked += frames.asked;
        silent += frames.silent;
      }
      ++(adopts ? adopting : keeping);
    }
    EXPECT_GT(adopting, 0u) << name;
    EXPECT_GT(keeping, 0u) << name;
    if (name == "direct" || name == "rpc") {
      EXPECT_GT(asked, 0u) << name;
      EXPECT_GT(silent, 0u) << name;
    }
  }
}

TEST(EpochPipeline, DirectCollectorFlattensInSourceOrder) {
  std::vector<SummarySource> sources(2);
  sources[0].node = 4;
  sources[1].node = 9;
  cluster::ClusterBuffer populations[2];
  for (int s = 0; s < 2; ++s) {
    cluster::MicroCluster micro;
    micro.absorb(Point{100.0 * s}, 1.0);
    populations[s] = cluster::to_cluster_buffer({micro});
    sources[s].clusters = populations[s].view();
  }
  const auto candidates = line_candidates();
  DirectCollector collector;
  const auto collected = collector.collect(sources, {candidates, 2, 0});
  ASSERT_EQ(collected.summaries.size(), 2u);
  EXPECT_EQ(cluster::to_micro_cluster(collected.summaries.view(), 0).centroid()[0], 0.0);
  EXPECT_EQ(cluster::to_micro_cluster(collected.summaries.view(), 1).centroid()[0], 100.0);
  EXPECT_FALSE(collected.agreed_proposal.has_value());
  EXPECT_GT(collected.summary_bytes, 0u);
}

}  // namespace
}  // namespace geored::core
