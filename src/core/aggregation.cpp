#include "core/aggregation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>

#include "cluster/kmeans.h"
#include "common/arena.h"
#include "common/ensure.h"
#include "common/point_set.h"
#include "common/random.h"
#include "placement/assign.h"

namespace geored::core {

namespace {

const place::CandidateInfo& info_of(const std::vector<place::CandidateInfo>& candidates,
                                    topo::NodeId node) {
  const auto it = std::find_if(candidates.begin(), candidates.end(),
                               [node](const place::CandidateInfo& c) { return c.node == node; });
  GEORED_ENSURE(it != candidates.end(), "node is not a known data center");
  return *it;
}

}  // namespace

AggregationPlan plan_aggregation(const std::vector<place::CandidateInfo>& candidates,
                                 const std::vector<SummarySource>& sources,
                                 std::uint64_t seed) {
  GEORED_ENSURE(!candidates.empty(), "aggregation needs candidate data centers");
  GEORED_ENSURE(!sources.empty(), "aggregation needs at least one source");

  const auto sqrt_sources = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(sources.size()))));
  const std::size_t aggregator_count = std::min(sqrt_sources, candidates.size());

  // Aggregators sit where the sources are: weighted k-means over source
  // coordinates (weight = cluster mass), mapped to distinct data centers. A
  // source's coordinates are its clusters' mass-weighted mean, read from its
  // view in place: per component, each centroid (sum / count) scaled back by
  // its count is accumulated from zero and divided by the mass — the
  // arithmetic of the Point expression it replaces, so the plan is the same.
  const std::size_t dim = candidates.front().coords.dim();
  cluster::WeightedPoints points;
  points.positions = PointSet(dim);
  points.positions.reserve(sources.size());
  points.weights.reserve(sources.size());
  ArenaScope scope;
  double* position = scope.span<double>(dim);
  for (const auto& source : sources) {
    const cluster::ClusterView clusters = source.clusters;
    double mass = 0.0;
    std::fill_n(position, dim, 0.0);
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      const std::uint64_t count = clusters.count(i);
      if (count == 0) continue;
      const std::span<const double> sum = clusters.sum(i);
      GEORED_ENSURE(sum.size() == dim, "source clusters must have the candidates' dimension");
      const auto n = static_cast<double>(count);
      for (std::size_t d = 0; d < dim; ++d) position[d] += (sum[d] / n) * n;
      mass += n;
    }
    if (mass > 0.0) {
      for (std::size_t d = 0; d < dim; ++d) position[d] /= mass;
      points.positions.push_back_row(position, dim);
      points.weights.push_back(mass);
    } else {
      // A source with no usage still needs an aggregator; use its location.
      points.positions.push_back(info_of(candidates, source.node).coords);
      points.weights.push_back(1.0);
    }
  }

  cluster::KMeansConfig kmeans_config;
  kmeans_config.k = aggregator_count;
  Rng rng(seed);
  const auto result = cluster::weighted_kmeans(points, kmeans_config, rng);
  std::vector<double> mass(result.centroids.size(), 0.0);
  for (std::size_t i = 0; i < points.weights.size(); ++i) {
    mass[result.assignment[i]] += points.weights[i];
  }
  AggregationPlan plan;
  plan.aggregators = place::assign_centroids_to_candidates(
      result.centroids, mass, candidates, aggregator_count, seed);

  for (const auto& source : sources) {
    const Point& coords = info_of(candidates, source.node).coords;
    topo::NodeId best = plan.aggregators.front();
    double best_dist = std::numeric_limits<double>::infinity();
    for (const auto aggregator : plan.aggregators) {
      const double dist = coords.distance_squared_to(info_of(candidates, aggregator).coords);
      if (dist < best_dist) {
        best_dist = dist;
        best = aggregator;
      }
    }
    plan.parent[source.node] = best;
  }
  return plan;
}

AggregationResult run_aggregation(sim::Simulator& simulator, sim::Network& network,
                                  const AggregationPlan& plan,
                                  const std::vector<SummarySource>& sources,
                                  topo::NodeId root) {
  GEORED_ENSURE(!sources.empty(), "aggregation needs at least one source");

  AggregationResult result;
  const std::uint64_t base_summary_bytes =
      network.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)];

  // Per-aggregator state: a bounded merger plus the number of pending
  // source reports.
  struct AggregatorState {
    cluster::MicroClusterSummarizer merger;
    std::size_t pending = 0;
    AggregatorState(const cluster::SummarizerConfig& config)
        : merger(config) {}
  };
  cluster::SummarizerConfig merger_config;
  merger_config.max_clusters = kAggregatorClusterBudget;
  auto states = std::make_shared<std::map<topo::NodeId, AggregatorState>>();
  for (const auto aggregator : plan.aggregators) {
    states->emplace(aggregator, AggregatorState(merger_config));
  }
  for (const auto& source : sources) {
    const auto it = plan.parent.find(source.node);
    GEORED_ENSURE(it != plan.parent.end(), "source missing from the aggregation plan");
    ++states->at(it->second).pending;
  }

  auto pending_root = std::make_shared<std::size_t>(0);
  for (const auto& [aggregator, state] : *states) {
    if (state.pending > 0) ++*pending_root;
  }
  GEORED_CHECK(*pending_root > 0, "no aggregator has any source");

  auto merged = std::make_shared<cluster::ClusterBuffer>();
  auto forwarded = std::make_shared<std::vector<SentSummary>>();
  auto root_bytes = std::make_shared<std::uint64_t>(0);
  auto completion = std::make_shared<double>(0.0);

  // Second hop: an aggregator finished -> forward the centroid frame of its
  // bounded merge. No source reports to it any more, so the root appends
  // that final merge, read in place, when the frame is delivered.
  const auto forward_to_root = [&simulator, &network, states, pending_root, merged, forwarded,
                                root_bytes, completion, root](topo::NodeId aggregator) {
    const cluster::ClusterView clusters = states->at(aggregator).merger.clusters();
    forwarded->push_back({aggregator, cluster::moment_frame_size(clusters)});
    const std::size_t bytes = cluster::centroid_frame_size(clusters);
    *root_bytes += bytes;
    network.send(aggregator, root, bytes, sim::TrafficClass::kSummary,
                 [states, aggregator, pending_root, merged, completion, &simulator] {
                   merged->append(states->at(aggregator).merger.clusters());
                   if (--*pending_root == 0) *completion = simulator.now();
                 });
  };

  // First hop: every source ships its full frame to its aggregator, which
  // merges the source's rows in place on delivery.
  for (const auto& source : sources) {
    const topo::NodeId aggregator = plan.parent.at(source.node);
    const std::size_t bytes = cluster::serialized_size(source.clusters);
    network.send(source.node, aggregator, bytes, sim::TrafficClass::kSummary,
                 [states, aggregator, clusters = source.clusters, forward_to_root] {
                   auto& state = states->at(aggregator);
                   state.merger.merge_cluster(clusters);
                   if (--state.pending == 0) forward_to_root(aggregator);
                 });
  }

  simulator.run();
  result.merged = std::move(*merged);
  result.forwarded = std::move(*forwarded);
  result.bytes_into_root = *root_bytes;
  result.bytes_total =
      network.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)] -
      base_summary_bytes;
  result.completion_ms = *completion;
  return result;
}

AggregationResult run_flat_collection(sim::Simulator& simulator, sim::Network& network,
                                      const std::vector<SummarySource>& sources,
                                      topo::NodeId root) {
  GEORED_ENSURE(!sources.empty(), "collection needs at least one source");
  AggregationResult result;
  const std::uint64_t base_summary_bytes =
      network.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)];
  auto merged = std::make_shared<cluster::ClusterBuffer>();
  auto pending = std::make_shared<std::size_t>(sources.size());
  auto completion = std::make_shared<double>(0.0);
  std::uint64_t root_bytes = 0;
  for (const auto& source : sources) {
    const std::size_t bytes = cluster::centroid_frame_size(source.clusters);
    root_bytes += bytes;
    network.send(source.node, root, bytes, sim::TrafficClass::kSummary,
                 [merged, pending, completion, clusters = source.clusters, &simulator] {
                   merged->append(clusters);
                   if (--*pending == 0) *completion = simulator.now();
                 });
  }
  simulator.run();
  result.merged = std::move(*merged);
  for (const auto& source : sources) {
    result.forwarded.push_back({source.node, cluster::moment_frame_size(source.clusters)});
  }
  result.bytes_into_root = root_bytes;
  result.bytes_total =
      network.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)] -
      base_summary_bytes;
  result.completion_ms = *completion;
  return result;
}

std::uint64_t run_moment_upload(sim::Simulator& simulator, sim::Network& network,
                                const std::vector<SentSummary>& forwarded,
                                topo::NodeId root) {
  GEORED_ENSURE(!forwarded.empty(), "phase 2 completes the frames a collection forwarded");
  std::uint64_t bytes = 0;
  for (const auto& sender : forwarded) {
    bytes += sender.moment_bytes;
    network.send(sender.node, root, sender.moment_bytes, sim::TrafficClass::kSummary, [] {});
  }
  simulator.run();
  return bytes;
}

}  // namespace geored::core
