#include "core/decentralized.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <utility>

#include "cluster/summary_frame.h"
#include "common/ensure.h"

namespace geored::core {

namespace {

/// One replica of the exchange: its node and its rows in the flat input.
struct Replica {
  topo::NodeId node = 0;
  std::size_t first = 0;
  std::size_t rows = 0;
};

/// What the delivery callbacks record: the frames delivered, and when the
/// last one arrived.
struct Deliveries {
  sim::Simulator* simulator = nullptr;
  std::size_t frames = 0;
  double last_ms = 0.0;
};

}  // namespace

DecentralizedEpochResult run_decentralized_epoch(
    sim::Simulator& simulator, sim::Network& network,
    const std::vector<place::CandidateInfo>& candidates,
    const std::vector<SummarySource>& sources, std::size_t k, std::uint64_t epoch_seed,
    const place::PlacementStrategy& strategy) {
  GEORED_ENSURE(!candidates.empty(), "decentralized epoch needs candidates");
  GEORED_ENSURE(!sources.empty(), "decentralized epoch needs replicas");

  const std::uint64_t base_summary_bytes =
      network.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)];

  // The input every replica assembles from the frames it receives, built
  // once: the clusters in source-id order, the sources of one node in the
  // order given.
  std::vector<std::size_t> order(sources.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sources[a].node < sources[b].node;
  });
  place::PlacementInput input;
  input.candidates = candidates;
  input.k = k;
  input.seed = epoch_seed;
  std::size_t rows = 0;
  for (const auto& source : sources) rows += source.clusters.size();
  input.summaries.reserve(rows);
  std::vector<Replica> replicas;
  for (const std::size_t s : order) {
    const SummarySource& source = sources[s];
    if (replicas.empty() || replicas.back().node != source.node) {
      Replica& replica = replicas.emplace_back();
      replica.node = source.node;
      replica.first = input.summaries.size();
    }
    input.summaries.append(source.clusters, source.node);
    replicas.back().rows = input.summaries.size() - replicas.back().first;
  }

  // Broadcast every replica's centroid frame to its peers. The last frame
  // to arrive completes the last replica's input; a lone replica decides at
  // once.
  const auto deliveries = std::make_shared<Deliveries>();
  deliveries->simulator = &simulator;
  deliveries->last_ms = simulator.now();
  const cluster::ClusterView flat = input.summaries.view();
  for (const Replica& from : replicas) {
    const std::size_t bytes =
        cluster::centroid_frame_size(flat.subview(from.first, from.rows));
    for (const Replica& to : replicas) {
      if (to.node == from.node) continue;
      network.send(from.node, to.node, bytes, sim::TrafficClass::kSummary, [deliveries] {
        ++deliveries->frames;
        deliveries->last_ms = deliveries->simulator->now();
      });
    }
  }

  simulator.run();
  GEORED_CHECK(deliveries->frames == replicas.size() * (replicas.size() - 1),
               "a replica never received all summaries");

  DecentralizedEpochResult result;
  result.summary_bytes =
      network.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)] -
      base_summary_bytes;
  result.completion_ms = deliveries->last_ms;
  result.agreement = true;
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    result.per_replica.push_back(strategy.place(input));
    if (result.per_replica.back() != result.per_replica.front()) result.agreement = false;
  }
  result.proposal = result.per_replica.front();
  result.summaries = std::move(input.summaries);
  return result;
}

std::uint64_t exchange_departing_frames(sim::Simulator& simulator, sim::Network& network,
                                        const cluster::ClusterBuffer& planned) {
  GEORED_ENSURE(planned.empty() || planned.planned(), "phase 2 follows the hand-off plan");
  // Departing clusters per (source, destination), in that order.
  std::map<std::pair<topo::NodeId, topo::NodeId>, std::size_t> departing;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    if (!planned.departs(i)) continue;
    GEORED_ENSURE(planned.origin(i) != cluster::kNoOrigin,
                  "every decentralized cluster has the replica that reported it");
    ++departing[{planned.origin(i), planned.destination(i)}];
  }
  std::uint64_t bytes = 0;
  for (const auto& [route, clusters] : departing) {
    const std::size_t size = cluster::departing_moment_frame_size(clusters, planned.dim());
    bytes += size;
    network.send(route.first, route.second, size, sim::TrafficClass::kSummary, [] {});
  }
  simulator.run();
  return bytes;
}

}  // namespace geored::core
