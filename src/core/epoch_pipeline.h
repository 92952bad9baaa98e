// The placement epoch: one fixed loop with one pluggable stage.
//
// Algorithm 1 is one fixed loop — collect summaries, macro-cluster them,
// map centroids to data centers, gate the migration — and the library used
// to reproduce it three separate times (ReplicationManager::run_epoch, the
// decentralized all-to-all variant, and the hierarchical aggregation tree).
// What deployments vary is how the micro-cluster summaries reach the
// decision point, so that is the one seam:
//
//   SummaryCollector   direct in-process, two-level aggregation tree,
//                      all-to-all decentralized agreement, or real sockets
//                      ("rpc", net/rpc_collector.h)
//
// ReplicationManager::run_epoch runs the fixed steps after it: propose
// (online clustering with the warm-start centroid cache), gate
// (decide_migration, §III-C), and adopt (redistribute_to_nearest below) or
// age the kept summaries. A collector that already agreed on a proposal
// in-protocol (decentralized) returns it, and the propose step is skipped.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/summarizer.h"
#include "core/aggregation.h"
#include "net/clock.h"
#include "net/rpc_config.h"
#include "placement/strategy.h"
#include "placement/types.h"

namespace geored::core {

/// Epoch-scoped facts every collector may need: which data centers are
/// usable this epoch, the degree in force, and the epoch's decision seed.
struct CollectionContext {
  const std::vector<place::CandidateInfo>& candidates;
  std::size_t k = 3;
  std::uint64_t epoch_seed = 0;
};

/// What a collection round produced.
struct CollectedSummaries {
  /// Every collected micro-cluster, flattened in source order.
  std::vector<cluster::MicroCluster> summaries;
  /// Wire bytes the decision point received (the O(km) cost of Table II).
  std::size_t summary_bytes = 0;
  /// Set when the collection protocol itself already agreed on a proposal
  /// (the decentralized collector); run_epoch then skips its propose step.
  std::optional<place::Placement> agreed_proposal;
  /// Sources whose summary could not be collected this round and was served
  /// from the collector's last-epoch cache instead ("rpc" degradation).
  std::vector<topo::NodeId> stale_sources;
  /// Sources that contributed nothing: collection failed and no cached
  /// summary existed. The epoch still completes on what did arrive.
  std::vector<topo::NodeId> lost_sources;
};

/// The epoch's one pluggable stage: ships per-replica summaries to the
/// placement decision point.
class SummaryCollector {
 public:
  virtual ~SummaryCollector() = default;

  /// Registry name of this collector ("direct", "hierarchical", ...).
  virtual std::string name() const = 0;

  /// Collects `sources` (one entry per reporting replica, in source order)
  /// into one flattened summary set. Must be deterministic in the sources
  /// and `context.epoch_seed`.
  virtual CollectedSummaries collect(const std::vector<SummarySource>& sources,
                                     const CollectionContext& context) = 0;
};

/// Today's in-process collection: summaries are concatenated locally and the
/// wire size accounted as if each source serialized straight to the
/// coordinator. Byte-identical to the historical run_epoch collection step.
class DirectCollector final : public SummaryCollector {
 public:
  std::string name() const override { return "direct"; }
  CollectedSummaries collect(const std::vector<SummarySource>& sources,
                             const CollectionContext& context) override;
};

/// Two-level aggregation tree over the simulated network (core/aggregation):
/// sources -> nearest regional aggregator -> root. The reported wire size is
/// the root's inbound bytes — the bandwidth the tree exists to bound.
class HierarchicalCollector final : public SummaryCollector {
 public:
  /// The collector plans a fresh tree per epoch (sources move) and runs it
  /// over `simulator`/`network`, with the root at `root`.
  HierarchicalCollector(sim::Simulator& simulator, sim::Network& network, topo::NodeId root,
                        AggregationConfig config = {});

  std::string name() const override { return "hierarchical"; }
  CollectedSummaries collect(const std::vector<SummarySource>& sources,
                             const CollectionContext& context) override;

 private:
  sim::Simulator& simulator_;
  sim::Network& network_;
  topo::NodeId root_;
  AggregationConfig config_;
};

/// All-to-all decentralized agreement (core/decentralized): every replica
/// receives every summary, computes the placement locally with the shared
/// epoch seed, and the agreed proposal is returned — run_epoch's propose
/// step is skipped. `strategy` is the per-replica decision rule.
class DecentralizedCollector final : public SummaryCollector {
 public:
  DecentralizedCollector(sim::Simulator& simulator, sim::Network& network,
                         std::shared_ptr<const place::PlacementStrategy> strategy);

  std::string name() const override { return "decentralized"; }
  CollectedSummaries collect(const std::vector<SummarySource>& sources,
                             const CollectionContext& context) override;

 private:
  sim::Simulator& simulator_;
  sim::Network& network_;
  std::shared_ptr<const place::PlacementStrategy> strategy_;
};

/// The adopt step of run_epoch: fresh summarizers for the replicas of
/// `next`, with each collected micro-cluster handed to the new replica
/// nearest its centroid so usage knowledge survives the move. The
/// nearest-replica resolution is kernelized — placement coordinates staged
/// once as a PointSet, per-summary nearest_of scans parallelized over the
/// pool with arena scratch — and byte-identical to the frozen scalar
/// reference redistribute_to_nearest_scalar (reference/scalar.h), pinned by
/// EpochPipeline.AdopterMatchesScalar.
std::map<topo::NodeId, cluster::MicroClusterSummarizer> redistribute_to_nearest(
    const place::Placement& next, const std::vector<cluster::MicroCluster>& summaries,
    const std::vector<place::CandidateInfo>& candidates,
    const cluster::SummarizerConfig& summarizer_config);

/// Dependencies a collector implementation may need. "direct" needs none;
/// the protocol collectors run over the simulated network.
struct CollectorConfig {
  sim::Simulator* simulator = nullptr;
  sim::Network* network = nullptr;
  /// Root of the two-level tree ("hierarchical").
  topo::NodeId aggregation_root = 0;
  AggregationConfig aggregation;
  /// Per-replica decision rule ("decentralized"); defaults to the paper's
  /// online clustering when null.
  std::shared_ptr<const place::PlacementStrategy> decision_strategy;
  /// Fault schedule and retry budget ("rpc"); the defaults give a clean
  /// wire, byte-identical to "direct".
  net::RpcCollectorConfig rpc;
  /// Transport clock ("rpc"); null means the real SystemClock. Tests inject
  /// a net::VirtualClock so retry backoff costs no wall time.
  std::shared_ptr<net::Clock> rpc_clock;
};

/// String-keyed collector registry: "direct", "hierarchical",
/// "decentralized", "rpc". Throws std::invalid_argument for unknown names
/// and when a protocol collector is requested without simulator/network
/// ("rpc" runs over real localhost sockets and needs neither).
std::unique_ptr<SummaryCollector> make_collector(const std::string& name,
                                                 const CollectorConfig& config = {});

/// Names make_collector accepts, in registry order.
std::vector<std::string> collector_names();

}  // namespace geored::core
