#include "core/decentralized.h"

#include <map>
#include <memory>
#include <utility>

#include "cluster/summarizer.h"
#include "common/ensure.h"

namespace geored::core {

DecentralizedEpochResult run_decentralized_epoch(
    sim::Simulator& simulator, sim::Network& network,
    const std::vector<place::CandidateInfo>& candidates,
    const std::map<topo::NodeId, std::vector<cluster::MicroCluster>>& replica_summaries,
    std::size_t k, std::uint64_t epoch_seed, const place::PlacementStrategy& strategy) {
  GEORED_ENSURE(!candidates.empty(), "decentralized epoch needs candidates");
  GEORED_ENSURE(!replica_summaries.empty(), "decentralized epoch needs replicas");

  const std::uint64_t base_summary_bytes =
      network.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)];

  // Per-replica inbox: source id -> clusters. Each replica starts with its
  // own summary and waits for the k-1 others.
  struct ReplicaState {
    std::map<topo::NodeId, std::vector<cluster::MicroCluster>> inbox;
    place::Placement decision;
    bool decided = false;
  };
  auto states = std::make_shared<std::map<topo::NodeId, ReplicaState>>();
  for (const auto& [node, clusters] : replica_summaries) {
    (*states)[node].inbox.emplace(node, clusters);
  }

  auto pending = std::make_shared<std::size_t>(replica_summaries.size());
  auto completion = std::make_shared<double>(0.0);
  const std::size_t expected = replica_summaries.size();

  const auto decide = [candidates, k, epoch_seed, &strategy, &simulator, pending,
                       completion](ReplicaState& state) {
    // Deterministic flatten: summaries in source-id order (std::map order).
    place::PlacementInput input;
    input.candidates = candidates;
    input.k = k;
    input.seed = epoch_seed;
    for (const auto& [source, clusters] : state.inbox) {
      for (const auto& micro : clusters) input.summaries.push_back(micro);
    }
    state.decision = strategy.place(input);
    state.decided = true;
    if (--*pending == 0) *completion = simulator.now();
  };

  // Broadcast every replica's centroid frame to its peers.
  for (const auto& [from, clusters] : replica_summaries) {
    const std::size_t bytes = cluster::centroid_frame_size(clusters);
    for (const auto& [to, unused] : replica_summaries) {
      if (to == from) continue;
      const auto payload = clusters;
      const topo::NodeId sender = from;
      network.send(sender, to, bytes, sim::TrafficClass::kSummary,
                   [states, to, sender, payload, expected, decide] {
                     auto& state = states->at(to);
                     state.inbox.emplace(sender, payload);
                     if (state.inbox.size() == expected && !state.decided) {
                       decide(state);
                     }
                   });
    }
  }
  // Single-replica degenerate case: it decides alone, immediately.
  if (expected == 1) {
    decide(states->begin()->second);
  }

  simulator.run();

  DecentralizedEpochResult result;
  result.summary_bytes =
      network.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)] -
      base_summary_bytes;
  result.completion_ms = *completion;
  result.agreement = true;
  for (const auto& [node, state] : *states) {
    GEORED_CHECK(state.decided, "a replica never received all summaries");
    result.per_replica.push_back(state.decision);
    if (state.decision != states->begin()->second.decision) result.agreement = false;
  }
  result.proposal = states->begin()->second.decision;
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
