// Shared gossip loop for decentralized coordinate protocols (implementation
// detail of embedding.cpp and stability.cpp).
//
// Each node keeps a fixed random neighbor set of kNeighborSetSize nodes and,
// once per round, probes either a neighbor or (with kFarProbeProbability) a
// uniformly random node — Vivaldi's recommended mix of stable nearby
// contacts and occasional far pokes. `round_hook(round)` runs after every
// completed round and sees every node's coordinate after that round.
//
// The reference schedule draws every node's peer for a round, then observes
// node 0, node 1, ..., so node i sees peer p's coordinate as it stands after
// p's own observation this round when p < i, and as it stood after the
// previous round when p > i. An observation writes only its own node.
//
// One dataflow region (common/dataflow.h). The whole embedding is one
// parallel_for over lanes, one per pool thread. Lane l owns the nodes
// i = l (mod lanes) and sweeps them in ascending order, again and again:
// in a sweep each node runs its next round r when
//   * its peer p has published the coordinate the reference schedule shows
//     it, p's after round r when p < i and after round r - 1 when p > i;
//   * every lane has finished round r + 1 - kRingDepth, so that no lane
//     still reads the ring slot r's coordinate overwrites;
//   * r's peers are drawn, and, with a hook, the hook has seen round r - 1.
// Otherwise the node waits for the next sweep while the lane's other nodes
// go on. Each node's coordinate after every round is published in a ring of
// kRingDepth slots (CoordinateRing): written, then stamped with a release
// store; a reader checks the stamp with an acquire load before it reads.
// Every observe() so receives exactly the arguments of the reference
// schedule, and the coordinates are bit-identical at any thread count.
//
// Peers come from one RNG stream in the reference order, drawn
// kPeerBlockRounds rounds at a time into a ring of three blocks, so no
// buffer grows with the round count; the lanes take turns drawing a block,
// each once the block before it is drawn.
//
// No deadlock: the smallest unfinished (round, node) item waits only for
// finished items (its peer's earlier publication, rounds before its own,
// draws that need nothing later), and every lane has a pool thread of its
// own and sweeps until its nodes are done, so that item always runs. With
// a hook, lane 0 runs it for round r once every lane has finished r, and no
// node starts round r + 1 before. Nested inside a pool chunk, on a pool of
// one thread, or for Vivaldi nodes (kRefits), the region is a single lane:
// the reference loop.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/dataflow.h"
#include "common/ensure.h"
#include "common/random.h"
#include "netcoord/embedding.h"
#include "netcoord/rnp.h"
#include "topology/topology.h"

namespace geored::coord::detail {

/// Size of each node's fixed neighbor set.
inline constexpr std::size_t kNeighborSetSize = 16;
/// Chance that a round's probe skips the neighbor set for a uniformly
/// random node.
inline constexpr double kFarProbeProbability = 0.25;
/// Rounds of published coordinates the ring keeps per node, and so one
/// more than the rounds a lane may run ahead of the slowest lane.
inline constexpr std::size_t kRingDepth = 4;
/// Rounds of peers drawn at a time. The peer ring holds three blocks: the
/// slowest lane's, and two drawn ahead of it for the lanes that run ahead.
inline constexpr std::size_t kPeerBlockRounds = 8;

/// Whether a node's rounds are worth spreading over lanes. An RNP node
/// refits every refit_every-th observation, hundreds of times the cost of an
/// online step. A Vivaldi observation costs less than moving a peer's
/// coordinate between cores, so Vivaldi runs the reference loop.
template <typename Node>
inline constexpr bool kRefits = std::is_same_v<Node, RnpNode>;

/// The round hook of a run that has none: the lanes never meet.
struct NoRoundHook {
  void operator()(std::size_t /*round*/) const {}
};

/// Every node's fixed neighbor set and the RNG stream that picks each
/// round's peers, in the reference order.
class PeerDraws {
 public:
  PeerDraws(std::size_t nodes, std::uint64_t seed) : nodes_(nodes), rng_(seed) {
    per_node_ = std::min(kNeighborSetSize, nodes - 1);
    neighbors_.reserve(nodes * per_node_);
    for (std::size_t i = 0; i < nodes; ++i) {
      for (const auto idx : rng_.sample_without_replacement(nodes - 1, per_node_)) {
        // Map [0, n-1) onto node ids skipping i.
        neighbors_.push_back(static_cast<topo::NodeId>(idx >= i ? idx + 1 : idx));
      }
    }
  }

  /// Draws one round's peer for every node, in node order, into
  /// peers[0, nodes).
  void draw_round(topo::NodeId* peers) {
    for (std::size_t i = 0; i < nodes_; ++i) {
      if (!rng_.bernoulli(kFarProbeProbability)) {
        peers[i] = neighbors_[i * per_node_ + rng_.below(per_node_)];
      } else {
        const std::size_t p = rng_.below(nodes_ - 1);
        peers[i] = static_cast<topo::NodeId>(p >= i ? p + 1 : p);
      }
    }
  }

 private:
  std::size_t nodes_;
  std::size_t per_node_;
  Rng rng_;
  std::vector<topo::NodeId> neighbors_;  ///< node i's: [i * per_node_, +per_node_)
};

/// Each node's coordinate after each of its last kRingDepth rounds. A slot
/// is one cache line (two from 6 dimensions up): a stamp, then the height,
/// the error and the position. Only the node's lane writes its slots.
class CoordinateRing {
 public:
  CoordinateRing(std::size_t nodes, std::size_t dim)
      : dim_(dim),
        lines_per_slot_((dim + 2 + kWordsPerLine - 1) / kWordsPerLine),
        lines_(nodes * kRingDepth * lines_per_slot_) {}

  /// Writes `coord` as `node`'s coordinate after `rounds` rounds, then
  /// publishes it with a release store of the slot's stamp.
  void publish(std::size_t node, std::size_t rounds, const NetworkCoordinate& coord) {
    Line* slot = slot_of(node, rounds);
    const double* position = coord.position.values().data();
    slot->words[0] = coord.height;
    slot->words[1] = coord.error;
    if (lines_per_slot_ == 1) {
      std::copy_n(position, dim_, slot->words + 2);
    } else {
      for (std::size_t k = 2; k < dim_ + 2; ++k) {
        slot[k / kWordsPerLine].words[k % kWordsPerLine] = position[k - 2];
      }
    }
    slot->stamp.store(rounds + 1, std::memory_order_release);
  }

  /// True once `node`'s coordinate after `rounds` rounds is published
  /// (an acquire load).
  bool published(std::size_t node, std::size_t rounds) const {
    return slot_of(node, rounds)->stamp.load(std::memory_order_acquire) == rounds + 1;
  }

  /// Copies a published coordinate into `out`, which has the ring's
  /// dimension.
  void read(std::size_t node, std::size_t rounds, NetworkCoordinate& out) const {
    const Line* slot = slot_of(node, rounds);
    double* position = &out.position[0];
    out.height = slot->words[0];
    out.error = slot->words[1];
    if (lines_per_slot_ == 1) {
      std::copy_n(slot->words + 2, dim_, position);
    } else {
      for (std::size_t k = 2; k < dim_ + 2; ++k) {
        position[k - 2] = slot[k / kWordsPerLine].words[k % kWordsPerLine];
      }
    }
  }

 private:
  static constexpr std::size_t kWordsPerLine = 7;
  struct alignas(kCacheLineBytes) Line {
    /// rounds + 1 of the coordinate the slot holds; 0 before the first.
    std::atomic<std::uint64_t> stamp{0};
    double words[kWordsPerLine];
  };

  Line* slot_of(std::size_t node, std::size_t rounds) {
    return &lines_[(node * kRingDepth + rounds % kRingDepth) * lines_per_slot_];
  }
  const Line* slot_of(std::size_t node, std::size_t rounds) const {
    return &lines_[(node * kRingDepth + rounds % kRingDepth) * lines_per_slot_];
  }

  std::size_t dim_;
  std::size_t lines_per_slot_;
  std::vector<Line> lines_;
};

template <typename NodeVector, typename RoundHook = NoRoundHook>
void run_gossip(const topo::Topology& topology, NodeVector& nodes,
                const GossipConfig& gossip, std::uint64_t seed,
                RoundHook&& round_hook = RoundHook{}) {
  const std::size_t n = topology.size();
  GEORED_ENSURE(n >= 2, "gossip needs at least two nodes");
  GEORED_ENSURE(nodes.size() == n, "gossip needs one node per topology node");
  const std::size_t rounds = gossip.rounds;
  PeerDraws draws(n, seed);
  const auto rtt = [&](std::size_t i, std::size_t p) {
    return topology.rtt_ms(static_cast<topo::NodeId>(i), static_cast<topo::NodeId>(p));
  };

  const std::size_t lanes = kRefits<typename NodeVector::value_type> ? region_lanes(n) : 1;
  if (lanes == 1) {
    std::vector<topo::NodeId> peers(n);
    for (std::size_t round = 0; round < rounds; ++round) {
      draws.draw_round(peers.data());
      for (std::size_t i = 0; i < n; ++i) {
        nodes[i].observe(nodes[peers[i]].coordinate(), rtt(i, peers[i]));
      }
      round_hook(round);
    }
    return;
  }

  constexpr bool kMeetAfterRounds =
      !std::is_same_v<std::remove_cvref_t<RoundHook>, NoRoundHook>;
  constexpr std::size_t kPeerRingRounds = 3 * kPeerBlockRounds;
  const std::size_t dim = nodes[0].coordinate().position.dim();
  CoordinateRing ring(n, dim);
  std::vector<topo::NodeId> peers(kPeerRingRounds * n);
  std::vector<PaddedCounter> finished(lanes);  // rounds all of a lane's nodes finished
  PaddedCounter drawn;                         // rounds whose peers are drawn
  PaddedCounter hooked;                        // rounds the hook has seen
  std::atomic<bool> stop{false};

  // Draws the peers of rounds [first, first + B) into the peer ring, where
  // `first` is the count of rounds drawn so far.
  const auto draw_block = [&](std::size_t first) {
    const std::size_t last = std::min(rounds, first + kPeerBlockRounds);
    for (std::size_t r = first; r < last; ++r) {
      draws.draw_round(&peers[(r % kPeerRingRounds) * n]);
    }
    drawn.value.store(last, std::memory_order_release);
  };

  const auto run_lane = [&](std::size_t lane) {
    NetworkCoordinate remote(dim);
    // Rounds finished by each of the lane's nodes, node lane + k * lanes at
    // entry k, and by all of them.
    std::vector<std::size_t> node_rounds((n - lane + lanes - 1) / lanes, 0);
    std::size_t lane_rounds = 0;
    std::size_t hooks_run = 0;
    for (std::size_t i = lane; i < n; i += lanes) ring.publish(i, 0, nodes[i].coordinate());
    if (lane == 0) draw_block(0);

    std::size_t idle_polls = 0;
    while (lane_rounds < rounds || (kMeetAfterRounds && lane == 0 && hooks_run < rounds)) {
      if (stop.load(std::memory_order_relaxed)) return;
      std::size_t slowest = rounds;
      for (const PaddedCounter& lane_finished : finished) {
        slowest = std::min<std::size_t>(slowest,
                                        lane_finished.value.load(std::memory_order_acquire));
      }
      const std::size_t rounds_drawn = drawn.value.load(std::memory_order_acquire);
      // Block b + 1 is drawn by lane b mod lanes once block b is drawn and
      // every lane has finished block b - 2, whose ring slot it takes.
      const std::size_t block = rounds_drawn / kPeerBlockRounds;
      if (block > 0 && rounds_drawn < rounds && (block - 1) % lanes == lane &&
          slowest + 2 * kPeerBlockRounds >= rounds_drawn) {
        draw_block(rounds_drawn);
      }
      // A node may run round r once every lane has finished round
      // r + 1 - D, the last to read the slot its coordinate overwrites, once
      // r's peers are drawn, and, with a hook, once the hook has seen round
      // r - 1.
      std::size_t limit = std::min(slowest + kRingDepth - 1, rounds_drawn);
      if constexpr (kMeetAfterRounds) {
        if (lane == 0) {
          for (; hooks_run < slowest; ++hooks_run) {
            round_hook(hooks_run);
            hooked.value.store(hooks_run + 1, std::memory_order_release);
          }
        }
        limit = std::min<std::size_t>(limit,
                                      hooked.value.load(std::memory_order_acquire) + 1);
      }

      // One sweep over the lane's nodes in ascending order: each node runs
      // its next round if that round is allowed and its peer p has
      // published the coordinate the reference loop would show it, after
      // round r when p < i and after round r - 1 when p > i.
      bool progress = false;
      std::size_t least = rounds;
      for (std::size_t k = 0, i = lane; i < n; ++k, i += lanes) {
        std::size_t round = node_rounds[k];
        if (round < limit) {
          const std::size_t p = peers[(round % kPeerRingRounds) * n + i];
          const std::size_t after = p < i ? round + 1 : round;
          if (ring.published(p, after)) {
            ring.read(p, after, remote);
            nodes[i].observe(remote, rtt(i, p));
            ring.publish(i, ++round, nodes[i].coordinate());
            node_rounds[k] = round;
            progress = true;
          }
        }
        least = std::min(least, round);
      }
      if (least > lane_rounds) {
        lane_rounds = least;
        finished[lane].value.store(least, std::memory_order_release);
      }
      idle_polls = progress ? 0 : idle_polls + node_rounds.size();
      if (idle_polls >= kSpinsBeforeYield) std::this_thread::yield();
    }
  };
  run_lanes(lanes, stop, run_lane);
}

}  // namespace geored::coord::detail
