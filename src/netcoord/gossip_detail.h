// Shared gossip loop for decentralized coordinate protocols (implementation
// detail of embedding.cpp and stability.cpp).
//
// Each node keeps a fixed random neighbor set of kNeighborSetSize nodes and,
// once per round, probes either a neighbor or (with kFarProbeProbability) a
// uniformly random node — Vivaldi's recommended mix of stable nearby
// contacts and occasional far pokes. `round_hook(round)` runs after every
// completed round.
//
// Rounds in dependency levels. The reference schedule observes node 0, then
// node 1, ..., so node i sees peer p's coordinate as it stands after p's own
// observation this round when p < i, and as it stood at the start of the
// round when p > i. An observation writes only its own node. Giving node i
// level `level(p) + 1` when p < i and level 0 when p > i therefore makes the
// nodes of one level write disjoint state and read only finished lower
// levels or a start-of-round copy of a later peer. Running the levels in
// order, each as one parallel_for, hands every observe() exactly the
// arguments the reference schedule does, so the coordinates are
// bit-identical at any thread count. Peers are drawn for the whole round
// before any observation; the draws never depend on node state, so the RNG
// stream is the reference one too.
//
// Only rounds in which some node refits (RnpNode::refit_due) take the level
// path: a refit costs hundreds of times an online step, and between refits
// the pool's hand-off would cost more than the observations it spreads.
// VivaldiNode never refits, so Vivaldi always runs the plain loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/ensure.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "netcoord/embedding.h"
#include "topology/topology.h"

namespace geored::coord::detail {

/// Size of each node's fixed random neighbor set.
inline constexpr std::size_t kNeighborSetSize = 16;
/// Chance that a round's probe skips the neighbor set for a uniformly
/// random node.
inline constexpr double kFarProbeProbability = 0.25;

/// True when some node's next observation runs an expensive refit.
template <typename NodeVector>
bool any_refit_due(const NodeVector& nodes) {
  if constexpr (requires(const typename NodeVector::value_type& node) { node.refit_due(); }) {
    return std::any_of(nodes.begin(), nodes.end(),
                       [](const auto& node) { return node.refit_due(); });
  } else {
    return false;
  }
}

template <typename NodeVector, typename RoundHook>
void run_gossip(const topo::Topology& topology, NodeVector& nodes,
                const GossipConfig& gossip, std::uint64_t seed, RoundHook&& round_hook) {
  const std::size_t n = topology.size();
  GEORED_ENSURE(n >= 2, "gossip needs at least two nodes");
  Rng rng(seed);

  const std::size_t neighbors_per_node = std::min(kNeighborSetSize, n - 1);
  std::vector<std::vector<topo::NodeId>> neighbor_sets(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto sample = rng.sample_without_replacement(n - 1, neighbors_per_node);
    for (auto idx : sample) {
      // Map [0, n-1) onto node ids skipping i.
      neighbor_sets[i].push_back(static_cast<topo::NodeId>(idx >= i ? idx + 1 : idx));
    }
  }

  // Per-run scratch: each node's peer and level, the nodes grouped by level
  // (level L is order[level_begin[L], level_begin[L + 1])), and the
  // start-of-round copy of every coordinate read before its node observes,
  // filled on the first level-path round. The copies keep their dimension,
  // so refreshing them reuses their storage.
  std::vector<topo::NodeId> peers(n);
  std::vector<std::size_t> level(n);
  std::vector<std::size_t> level_begin(n + 1);
  std::vector<topo::NodeId> order(n);
  std::vector<NetworkCoordinate> round_start;

  const auto observe = [&](std::size_t i, const NetworkCoordinate& remote) {
    nodes[i].observe(remote, topology.rtt_ms(static_cast<topo::NodeId>(i), peers[i]));
  };

  for (std::size_t round = 0; round < gossip.rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!neighbor_sets[i].empty() && !rng.bernoulli(kFarProbeProbability)) {
        peers[i] = neighbor_sets[i][rng.below(neighbor_sets[i].size())];
      } else {
        std::size_t p = rng.below(n - 1);
        peers[i] = static_cast<topo::NodeId>(p >= i ? p + 1 : p);
      }
    }

    if (!any_refit_due(nodes)) {
      for (std::size_t i = 0; i < n; ++i) observe(i, nodes[peers[i]].coordinate());
      round_hook(round);
      continue;
    }

    if (round_start.empty()) {
      round_start.reserve(n);
      for (const auto& node : nodes) round_start.push_back(node.coordinate());
    }
    std::size_t levels = 0;
    std::fill(level_begin.begin(), level_begin.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t p = peers[i];
      level[i] = p < i ? level[p] + 1 : 0;
      levels = std::max(levels, level[i] + 1);
      ++level_begin[level[i] + 1];
      if (p > i) round_start[p] = nodes[p].coordinate();
    }
    for (std::size_t l = 0; l < levels; ++l) level_begin[l + 1] += level_begin[l];
    // Counting sort by level, ascending node order within a level;
    // level_begin[L] walks to level L's end and is shifted back below.
    for (std::size_t i = 0; i < n; ++i) {
      order[level_begin[level[i]]++] = static_cast<topo::NodeId>(i);
    }
    for (std::size_t l = levels; l > 0; --l) level_begin[l] = level_begin[l - 1];
    level_begin[0] = 0;

    for (std::size_t l = 0; l < levels; ++l) {
      const topo::NodeId* members = order.data() + level_begin[l];
      const auto observe_members = [&](std::size_t begin, std::size_t end) {
        for (std::size_t m = begin; m < end; ++m) {
          const std::size_t i = members[m];
          const std::size_t p = peers[i];
          observe(i, p > i ? round_start[p] : nodes[p].coordinate());
        }
      };
      parallel_for(level_begin[l + 1] - level_begin[l], std::ref(observe_members));
    }
    round_hook(round);
  }
}

}  // namespace geored::coord::detail
