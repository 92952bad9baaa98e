#include "placement/evaluate.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/arena.h"
#include "common/ensure.h"
#include "common/point_set.h"
#include "common/thread_pool.h"
#include "placement/evaluate_detail.h"

namespace geored::place {

namespace detail {

double quorum_latency(std::vector<double>& latencies, std::size_t quorum) {
  GEORED_ENSURE(quorum >= 1 && quorum <= latencies.size(),
                "quorum must be within [1, #replicas]");
  std::nth_element(latencies.begin(), latencies.begin() + static_cast<std::ptrdiff_t>(quorum - 1),
                   latencies.end());
  return latencies[quorum - 1];
}

}  // namespace detail

namespace {

using detail::quorum_latency;

/// Below this many clients the evaluators stay on the sequential path: the
/// pool dispatch would cost more than the loop, and small inputs keep the
/// exact operation order of the scalar reference implementations.
constexpr std::size_t kMinParallelClients = 2048;

/// Per-node quorum delay for a fixed placement: entry `node` is exactly the
/// delay any client at that node would be charged — the same min (or q-th
/// order statistic) over the same RTT doubles in the same replica order as
/// the per-client scalar loop. Clients at the same node share the entry, so
/// evaluation drops from O(clients × k) to O(nodes × k + clients). Worth
/// building once the client population outnumbers the nodes.
void gather_node_delays(const topo::Topology& topology, const Placement& placement,
                        std::size_t quorum, double* node_delay) {
  const std::size_t n_nodes = topology.size();
  const std::size_t k = placement.size();
  parallel_for(
      n_nodes,
      [&](std::size_t begin, std::size_t end) {
        // One scratch buffer per pool chunk, reused across its nodes.
        std::vector<double> latencies(quorum == 1 ? 0 : k);  // lint: alloc-ok (per chunk)
        for (std::size_t node = begin; node < end; ++node) {
          const auto id = static_cast<topo::NodeId>(node);
          if (quorum == 1) {
            double best = topology.rtt_ms(id, placement.front());
            for (std::size_t r = 1; r < k; ++r) {
              best = std::min(best, topology.rtt_ms(id, placement[r]));
            }
            // The read-one cost model charges each client its true nearest
            // replica; anything else silently inflates the reported delay.
            GEORED_DCHECK(
                [&] {
                  for (const auto replica : placement) {
                    if (topology.rtt_ms(id, replica) < best) return false;
                  }
                  return true;
                }(),
                "node not charged its true nearest replica");
            node_delay[node] = best;
          } else {
            for (std::size_t r = 0; r < k; ++r) {
              latencies[r] = topology.rtt_ms(id, placement[r]);
            }
            node_delay[node] = quorum_latency(latencies, quorum);
          }
        }
      },
      kMinParallelClients / 4);
}

}  // namespace

double true_total_delay(const topo::Topology& topology, const Placement& placement,
                        const std::vector<ClientRecord>& clients, std::size_t quorum) {
  GEORED_ENSURE(!placement.empty(), "cannot evaluate an empty placement");
  GEORED_ENSURE(quorum >= 1 && quorum <= placement.size(),
                "quorum must be within [1, #replicas]");
  const std::size_t k = placement.size();
  const std::size_t n_nodes = topology.size();

  // Amortize the per-node table only when the client list rereads nodes
  // often enough to pay for it; otherwise look RTTs up directly (identical
  // doubles either way, so the objective value cannot change).
  if (clients.size() >= n_nodes && clients.size() >= 64) {
    // The per-node table is epoch scratch: arena-backed so repeated
    // evaluations (thousands per epoch under local search) stop paying a
    // heap round trip each call.
    ArenaScope scope;
    double* node_delay = scope.span<double>(n_nodes);
    gather_node_delays(topology, placement, quorum, node_delay);
    return parallel_reduce_sum(
        clients.size(),
        [&](std::size_t begin, std::size_t end) {
          double partial = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            const ClientRecord& client = clients[i];
            GEORED_ENSURE(client.client < n_nodes, "client id outside the topology");
            partial += node_delay[client.client] * static_cast<double>(client.access_count);
          }
          return partial;
        },
        kMinParallelClients);
  }

  return parallel_reduce_sum(
      clients.size(),
      [&](std::size_t begin, std::size_t end) {
        double partial = 0.0;
        std::vector<double> latencies(quorum == 1 ? 0 : k);  // lint: alloc-ok (per chunk)
        for (std::size_t i = begin; i < end; ++i) {
          const ClientRecord& client = clients[i];
          if (quorum == 1) {
            double best = topology.rtt_ms(client.client, placement.front());
            for (std::size_t r = 1; r < k; ++r) {
              best = std::min(best, topology.rtt_ms(client.client, placement[r]));
            }
            GEORED_DCHECK(
                [&] {
                  for (const auto replica : placement) {
                    if (topology.rtt_ms(client.client, replica) < best) return false;
                  }
                  return true;
                }(),
                "client not charged its true nearest replica");
            partial += best * static_cast<double>(client.access_count);
          } else {
            for (std::size_t r = 0; r < k; ++r) {
              latencies[r] = topology.rtt_ms(client.client, placement[r]);
            }
            partial += quorum_latency(latencies, quorum) * static_cast<double>(client.access_count);
          }
        }
        return partial;
      },
      kMinParallelClients);
}

double true_average_delay(const topo::Topology& topology, const Placement& placement,
                          const std::vector<ClientRecord>& clients, std::size_t quorum) {
  double accesses = 0.0;
  for (const auto& client : clients) accesses += static_cast<double>(client.access_count);
  GEORED_ENSURE(accesses > 0.0, "average delay over zero accesses");
  return true_total_delay(topology, placement, clients, quorum) / accesses;
}

double estimated_total_delay(const Placement& placement,
                             const std::vector<CandidateInfo>& candidates,
                             const std::vector<ClientRecord>& clients, std::size_t quorum) {
  GEORED_ENSURE(!placement.empty(), "cannot evaluate an empty placement");
  // Map node ids to candidate indices once instead of a linear find_if per
  // placement entry.
  std::unordered_map<topo::NodeId, std::size_t> candidate_index;
  candidate_index.reserve(candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) candidate_index.emplace(candidates[c].node, c);

  // Replica coordinates as one contiguous k×dim block for the distance
  // kernels below.
  PointSet replicas;
  for (const auto id : placement) {
    const auto it = candidate_index.find(id);
    GEORED_ENSURE(it != candidate_index.end(), "placement references a non-candidate node");
    replicas.push_back(candidates[it->second].coords);
  }
  const std::size_t k = placement.size();
  const std::size_t effective_quorum = std::min(quorum, k);

  return parallel_reduce_sum(
      clients.size(),
      [&](std::size_t begin, std::size_t end) {
        double partial = 0.0;
        // One scratch buffer per chunk, reused across its clients.
        std::vector<double> latencies(effective_quorum == 1 ? 0 : k);  // lint: alloc-ok
        for (std::size_t i = begin; i < end; ++i) {
          const ClientRecord& client = clients[i];
          if (effective_quorum == 1) {
            double best_sq = 0.0;
            replicas.nearest_of(client.coords, &best_sq);
            partial += std::sqrt(best_sq) * static_cast<double>(client.access_count);
          } else {
            replicas.distance_row(client.coords, latencies.data());
            partial += quorum_latency(latencies, effective_quorum) *
                       static_cast<double>(client.access_count);
          }
        }
        return partial;
      },
      kMinParallelClients);
}

void validate_placement(const Placement& placement, const PlacementInput& input) {
  const std::size_t expected = std::min(input.k, input.candidates.size());
  GEORED_ENSURE(placement.size() == expected,
                "placement size must be min(k, #candidates)");
  GEORED_DCHECK(input.k == 0 || !placement.empty(),
                "non-trivial placement request produced an empty replica set");
  std::unordered_set<topo::NodeId> candidate_ids;
  candidate_ids.reserve(input.candidates.size());
  for (const auto& candidate : input.candidates) candidate_ids.insert(candidate.node);
  std::unordered_set<topo::NodeId> seen;
  for (const auto id : placement) {
    GEORED_ENSURE(seen.insert(id).second, "placement contains a duplicate data center");
    GEORED_ENSURE(candidate_ids.contains(id), "placement contains a non-candidate node");
  }
}

}  // namespace geored::place
