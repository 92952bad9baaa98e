#include "core/collector.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/arena.h"
#include "common/ensure.h"
#include "common/point_set.h"
#include "common/thread_pool.h"
#include "core/decentralized.h"
#include "net/rpc_collector.h"
#include "placement/online_clustering.h"

namespace geored::core {

namespace {

/// Index in `sources` of the source that reported a row of `origin`. Rows
/// arrive in source order, so the search starts at `hint`, the previous
/// row's source, and is O(1) per row along a buffer.
std::size_t source_of(const std::vector<SummarySource>& sources, std::uint32_t origin,
                      std::size_t& hint) {
  GEORED_ENSURE(!sources.empty(), "a collected cluster's origin is not among the sources");
  std::size_t s = hint % sources.size();
  for (std::size_t step = 1; step < sources.size() && sources[s].node != origin; ++step) {
    s = (s + 1) % sources.size();
  }
  GEORED_ENSURE(sources[s].node == origin,
                "a collected cluster's origin is not among the sources");
  hint = s;
  return s;
}

}  // namespace

CollectedSummaries DirectCollector::collect(const std::vector<SummarySource>& sources,
                                            const CollectionContext& context) {
  (void)context;
  CollectedSummaries collected;
  std::size_t rows = 0;
  for (const auto& source : sources) rows += source.clusters.size();
  collected.summaries.reserve(rows);
  for (const auto& source : sources) {
    collected.summary_bytes += cluster::centroid_frame_size(source.clusters);
    collected.summaries.append_centroids(source.clusters, source.node);
  }
  return collected;
}

void DirectCollector::collect_moments(const std::vector<SummarySource>& sources,
                                      const CollectionContext& context,
                                      CollectedSummaries& collected) {
  (void)context;
  cluster::ClusterBuffer& rows = collected.summaries;
  GEORED_ENSURE(rows.empty() || rows.planned(), "phase 2 follows the hand-off plan");
  if (rows.empty()) return;
  // Each departing row's moments, read from its source in place; the
  // sources each count their departing clusters for the bytes below.
  ArenaScope scope;
  std::size_t* departing = scope.span<std::size_t>(sources.size());
  std::fill_n(departing, sources.size(), std::size_t{0});
  std::size_t hint = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows.departs(i)) continue;
    const std::size_t s = source_of(sources, rows.origin(i), hint);
    rows.set_moments(i, sources[s].clusters.sum2(rows.origin_row(i)));
    ++departing[s];
  }
  // What an asked source and the coordinator would send each other: the
  // departure mask over its centroid frame, and the departing moment frame.
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (departing[s] == 0) continue;
    collected.summary_bytes += cluster::departure_mask_size(sources[s].clusters.size()) +
                               cluster::departing_moment_frame_size(departing[s], rows.dim());
  }
}

HierarchicalCollector::HierarchicalCollector(sim::Simulator& simulator, sim::Network& network,
                                             topo::NodeId root)
    : simulator_(simulator), network_(network), root_(root) {}

CollectedSummaries HierarchicalCollector::collect(const std::vector<SummarySource>& sources,
                                                  const CollectionContext& context) {
  GEORED_ENSURE(!sources.empty(), "hierarchical collection needs at least one source");
  // A fresh tree per epoch: sources move with the placement, so yesterday's
  // aggregator assignment may be arbitrarily bad today.
  const AggregationPlan plan =
      plan_aggregation(context.candidates, sources, context.epoch_seed);
  AggregationResult result = run_aggregation(simulator_, network_, plan, sources, root_);
  forwarded_ = std::move(result.forwarded);
  CollectedSummaries collected;
  collected.summaries = std::move(result.merged);
  collected.summary_bytes = static_cast<std::size_t>(result.bytes_into_root);
  return collected;
}

void HierarchicalCollector::collect_moments(const std::vector<SummarySource>& sources,
                                            const CollectionContext& context,
                                            CollectedSummaries& collected) {
  (void)sources;
  (void)context;
  // The root's merged clusters were built in-process with their moments;
  // the aggregators' moment frames are what the root pays for them.
  collected.summary_bytes +=
      static_cast<std::size_t>(run_moment_upload(simulator_, network_, forwarded_, root_));
}

DecentralizedCollector::DecentralizedCollector(sim::Simulator& simulator,
                                               sim::Network& network)
    : simulator_(simulator), network_(network) {}

CollectedSummaries DecentralizedCollector::collect(const std::vector<SummarySource>& sources,
                                                   const CollectionContext& context) {
  GEORED_ENSURE(!sources.empty(), "decentralized collection needs at least one source");
  DecentralizedEpochResult result =
      run_decentralized_epoch(simulator_, network_, context.candidates, sources, context.k,
                              context.epoch_seed, place::OnlineClusteringPlacement());
  GEORED_CHECK(result.agreement,
               "deterministic replicas diverged on identical summaries and seed");
  CollectedSummaries collected;
  // The exact input every replica decided on, in source-id order. The
  // in-process rows keep the moments the phase-2 exchange accounts for.
  collected.summaries = std::move(result.summaries);
  collected.summary_bytes = static_cast<std::size_t>(result.summary_bytes);
  collected.agreed_proposal = result.proposal;
  return collected;
}

void DecentralizedCollector::collect_moments(const std::vector<SummarySource>& sources,
                                             const CollectionContext& context,
                                             CollectedSummaries& collected) {
  (void)sources;
  (void)context;
  collected.summary_bytes += static_cast<std::size_t>(
      exchange_departing_frames(simulator_, network_, collected.summaries));
}

namespace {

/// Below this many summaries the nearest-placement resolution stays
/// sequential (pool dispatch would dominate; the direct-collection case is
/// k*m summaries, far under this). Per-summary results are written
/// independently, so the parallel pass is bitwise identical to the
/// sequential one at any thread count.
constexpr std::size_t kMinParallelSummaries = 2048;

}  // namespace

void plan_handoff(const place::Placement& next, const place::CandidateTable& candidates,
                  cluster::ClusterBuffer& summaries) {
  GEORED_ENSURE(!next.empty(), "cannot plan a hand-off to an empty placement");
  const std::size_t n = summaries.size();
  if (n == 0) {
    summaries.set_destinations({});
    return;
  }
  // Resolve each placement node's coordinates once — the historical loop
  // re-ran a linear candidate scan per (summary x node) pair — and stage
  // them as a PointSet so each centroid resolves via one nearest_of scan
  // (SIMD-backed above kMinSimdRows). nearest_of walks the rows in `next`
  // order with the same strict-`<` first-winner compare and the same
  // per-dimension subtract/square sequence as the historical scan (the
  // operands are swapped, but an IEEE negation squares to the same bits),
  // so the chosen replica is identical.
  PointSet placement_coords(candidates.dim());
  placement_coords.reserve(next.size());
  for (const auto node : next) {
    placement_coords.push_back_row(candidates.coords().row(candidates.position_of(node)),
                                   candidates.dim());
  }
  ArenaScope scope;
  std::uint32_t* destinations = scope.span<std::uint32_t>(n);
  const auto resolve = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      destinations[i] = next[placement_coords.nearest_of(summaries.centroid(i))];
    }
  };
  parallel_for(n, std::ref(resolve), kMinParallelSummaries);
  summaries.set_destinations({destinations, n});
}

void redistribute_to_nearest(
    const place::Placement& next, cluster::ClusterBuffer& summaries,
    const cluster::SummarizerConfig& summarizer_config,
    std::map<topo::NodeId, cluster::MicroClusterSummarizer>& summarizers) {
  GEORED_ENSURE(!next.empty(), "cannot adopt an empty placement");
  GEORED_ENSURE(summaries.empty() || summaries.planned(),
                "the hand-off follows its plan (plan_handoff)");
  const std::size_t n = summaries.size();
  // A staying cluster's second moments are its replica's own: read them in
  // place before that replica's summarizer is cleared below.
  for (std::size_t i = 0; i < n; ++i) {
    if (summaries.departs(i)) {
      GEORED_ENSURE(summaries.has_moments(i), "a departing cluster needs its second moments");
      continue;
    }
    const auto held = summarizers.find(summaries.origin(i));
    GEORED_ENSURE(held != summarizers.end(), "a staying cluster's replica holds a summarizer");
    const cluster::ClusterView own = held->second.clusters();
    const std::size_t row = summaries.origin_row(i);
    GEORED_ENSURE(row < own.size() && own.count(row) == summaries.count(i),
                  "a staying cluster is one its replica holds");
    GEORED_DCHECK(std::equal(own.sum(row).begin(), own.sum(row).end(),
                             summaries.view().sum(i).begin()),
                  "a staying cluster is one its replica holds");
    summaries.set_moments(i, own.sum2(row));
  }
  // One empty summarizer per replica of `next`, reusing the storage of the
  // nodes that keep their replica.
  for (auto it = summarizers.begin(); it != summarizers.end();) {
    if (std::find(next.begin(), next.end(), it->first) == next.end()) {
      it = summarizers.erase(it);
    } else {
      it->second.clear();
      ++it;
    }
  }
  for (const auto node : next) {
    summarizers.try_emplace(node, summarizer_config);
  }
  // Merges stay sequential in summary order: each summarizer's absorb/merge
  // history is order-sensitive, and this is the exact order the historical
  // loop produced.
  const cluster::ClusterView rows = summaries.view();
  for (std::size_t i = 0; i < n; ++i) {
    summarizers.at(summaries.destination(i)).merge_cluster(rows, i);
  }
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
                                                   config.aggregation_root);
  }
  return std::make_unique<DecentralizedCollector>(*config.simulator, *config.network);
}

std::vector<std::string> collector_names() {  // lint: alloc-ok (registry)
  return {"direct", "hierarchical", "decentralized", "rpc"};
}

}  // namespace geored::core
