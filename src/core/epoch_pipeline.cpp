#include "core/epoch_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/arena.h"
#include "common/ensure.h"
#include "common/point_set.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/decentralized.h"
#include "net/rpc_collector.h"
#include "placement/online_clustering.h"

namespace geored::core {

namespace {

const place::CandidateInfo& find_candidate(const std::vector<place::CandidateInfo>& candidates,
                                           topo::NodeId node) {
  const auto it = std::find_if(candidates.begin(), candidates.end(),
                               [node](const place::CandidateInfo& c) { return c.node == node; });
  GEORED_ENSURE(it != candidates.end(), "node is not a candidate data center");
  return *it;
}

}  // namespace

CollectedSummaries DirectCollector::collect(const std::vector<SummarySource>& sources,
                                            const CollectionContext& context) {
  (void)context;
  CollectedSummaries collected;
  ByteWriter writer;
  for (const auto& source : sources) {
    cluster::write_clusters(writer, source.clusters);
    for (const auto& micro : source.clusters) collected.summaries.push_back(micro);
  }
  collected.summary_bytes = writer.size();
  return collected;
}

HierarchicalCollector::HierarchicalCollector(sim::Simulator& simulator, sim::Network& network,
                                             topo::NodeId root, AggregationConfig config)
    : simulator_(simulator), network_(network), root_(root), config_(config) {
  GEORED_ENSURE(config_.max_clusters_per_aggregator >= 1,
                "aggregators need at least one micro-cluster of budget");
}

CollectedSummaries HierarchicalCollector::collect(const std::vector<SummarySource>& sources,
                                                  const CollectionContext& context) {
  GEORED_ENSURE(!sources.empty(), "hierarchical collection needs at least one source");
  // A fresh tree per epoch: sources move with the placement, so yesterday's
  // aggregator assignment may be arbitrarily bad today.
  const AggregationPlan plan =
      plan_aggregation(context.candidates, sources, config_, context.epoch_seed);
  AggregationResult result = run_aggregation(simulator_, network_, plan, sources, root_, config_);
  CollectedSummaries collected;
  collected.summaries = std::move(result.merged);
  collected.summary_bytes = static_cast<std::size_t>(result.bytes_into_root);
  return collected;
}

DecentralizedCollector::DecentralizedCollector(
    sim::Simulator& simulator, sim::Network& network,
    std::shared_ptr<const place::PlacementStrategy> strategy)
    : simulator_(simulator), network_(network), strategy_(std::move(strategy)) {
  if (!strategy_) strategy_ = std::make_shared<place::OnlineClusteringPlacement>();
}

CollectedSummaries DecentralizedCollector::collect(const std::vector<SummarySource>& sources,
                                                   const CollectionContext& context) {
  GEORED_ENSURE(!sources.empty(), "decentralized collection needs at least one source");
  // Once-per-epoch summary regrouping (~max_clusters x replicas entries),
  // not a per-access path.
  std::map<topo::NodeId, std::vector<cluster::MicroCluster>>  // lint: alloc-ok
      replica_summaries;
  for (const auto& source : sources) {
    auto& clusters = replica_summaries[source.node];
    clusters.insert(clusters.end(), source.clusters.begin(), source.clusters.end());
  }
  const DecentralizedEpochResult result =
      run_decentralized_epoch(simulator_, network_, context.candidates, replica_summaries,
                              context.k, context.epoch_seed, *strategy_);
  GEORED_CHECK(result.agreement,
               "deterministic replicas diverged on identical summaries and seed");
  CollectedSummaries collected;
  // Flatten in source-id order — the exact input every replica decided on.
  for (const auto& [source, clusters] : replica_summaries) {
    for (const auto& micro : clusters) collected.summaries.push_back(micro);
  }
  collected.summary_bytes = static_cast<std::size_t>(result.summary_bytes);
  collected.agreed_proposal = result.proposal;
  return collected;
}

namespace {

/// Below this many summaries the nearest-placement resolution stays
/// sequential (pool dispatch would dominate; the direct-collection case is
/// k*m summaries, far under this). Per-summary results are written
/// independently, so the parallel pass is bitwise identical to the
/// sequential one at any thread count.
constexpr std::size_t kMinParallelSummaries = 2048;

}  // namespace

std::map<topo::NodeId, cluster::MicroClusterSummarizer> redistribute_to_nearest(
    const place::Placement& next, const std::vector<cluster::MicroCluster>& summaries,
    const std::vector<place::CandidateInfo>& candidates,
    const cluster::SummarizerConfig& summarizer_config) {
  GEORED_ENSURE(!next.empty(), "cannot adopt an empty placement");
  // Rebuild the per-replica summarizers, handing each existing micro-cluster
  // to the new replica closest to its centroid so usage knowledge survives
  // the move.
  std::map<topo::NodeId, cluster::MicroClusterSummarizer> summarizers;
  for (const auto node : next) {
    summarizers.emplace(node, cluster::MicroClusterSummarizer(summarizer_config));
  }
  const std::size_t n = summaries.size();
  if (n == 0) return summarizers;
  // Resolve each placement node's coordinates once — the historical loop
  // re-ran a linear candidate scan per (summary x node) pair — and stage
  // them as a PointSet so each centroid resolves via one nearest_of scan
  // (SIMD-backed above kMinSimdRows). nearest_of walks the rows in `next`
  // order with the same strict-`<` first-winner compare and the same
  // per-dimension subtract/square sequence as the historical scan (the
  // operands are swapped, but an IEEE negation squares to the same bits),
  // so the chosen replica is identical.
  PointSet placement_coords(find_candidate(candidates, next.front()).coords.dim());
  placement_coords.reserve(next.size());
  for (const auto node : next) {
    placement_coords.push_back(find_candidate(candidates, node).coords);
  }
  ArenaScope scope;
  std::size_t* nearest = scope.span<std::size_t>(n);
  parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (summaries[i].count() == 0) continue;
          const Point centroid = summaries[i].centroid();
          nearest[i] = placement_coords.nearest_of(centroid);
        }
      },
      kMinParallelSummaries);
  // Merges stay sequential in summary order: each summarizer's absorb/merge
  // history is order-sensitive, and this is the exact order the historical
  // loop produced.
  for (std::size_t i = 0; i < n; ++i) {
    if (summaries[i].count() == 0) continue;
    summarizers.at(next[nearest[i]]).merge_cluster(summaries[i]);
  }
  return summarizers;
}

std::unique_ptr<SummaryCollector> make_collector(const std::string& name,
                                                 const CollectorConfig& config) {
  const std::vector<std::string> names = collector_names();  // lint: alloc-ok (registry)
  GEORED_ENSURE(std::find(names.begin(), names.end(), name) != names.end(),
                "unknown collector '" + name +
                    "'; known: direct, hierarchical, decentralized, rpc");
  if (name == "direct") return std::make_unique<DirectCollector>();
  if (name == "rpc") return std::make_unique<net::RpcCollector>(config.rpc, config.rpc_clock);
  GEORED_ENSURE(config.simulator != nullptr && config.network != nullptr,
                "the '" + name +
                    "' collector runs over a simulated network; CollectorConfig "
                    "must provide simulator and network");
  if (name == "hierarchical") {
    return std::make_unique<HierarchicalCollector>(*config.simulator, *config.network,
                                                   config.aggregation_root, config.aggregation);
  }
  return std::make_unique<DecentralizedCollector>(*config.simulator, *config.network,
                                                  config.decision_strategy);
}

std::vector<std::string> collector_names() {  // lint: alloc-ok (registry)
  return {"direct", "hierarchical", "decentralized", "rpc"};
}

}  // namespace geored::core
