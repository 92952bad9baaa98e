// Pre-optimization reference paths: verbatim copies of the evaluators as
// they stood before the performance layer (heap-allocating, pointer-chasing,
// sequential). They define the ground truth the fast paths in
// placement/evaluate.cpp are tested against and the baseline
// bench/micro_perf.cpp reports speedups over. Do not "optimize" these.
#include <algorithm>
#include <vector>

#include "common/ensure.h"
#include "placement/evaluate_detail.h"
#include "reference/scalar.h"

namespace geored::place {

using detail::quorum_latency;

double true_total_delay_scalar(const topo::Topology& topology, const Placement& placement,
                               const std::vector<ClientRecord>& clients, std::size_t quorum) {
  GEORED_ENSURE(!placement.empty(), "cannot evaluate an empty placement");
  double total = 0.0;
  std::vector<double> latencies(placement.size());  // lint: alloc-ok (frozen reference)
  for (const auto& client : clients) {
    if (quorum == 1) {
      double best = topology.rtt_ms(client.client, placement.front());
      for (std::size_t r = 1; r < placement.size(); ++r) {
        best = std::min(best, topology.rtt_ms(client.client, placement[r]));
      }
      total += best * static_cast<double>(client.access_count);
    } else {
      for (std::size_t r = 0; r < placement.size(); ++r) {
        latencies[r] = topology.rtt_ms(client.client, placement[r]);
      }
      total += quorum_latency(latencies, quorum) * static_cast<double>(client.access_count);
    }
  }
  return total;
}

double estimated_total_delay_scalar(const Placement& placement,
                                    const std::vector<CandidateInfo>& candidates,
                                    const std::vector<ClientRecord>& clients,
                                    std::size_t quorum) {
  GEORED_ENSURE(!placement.empty(), "cannot evaluate an empty placement");
  std::vector<const Point*> replica_coords;  // lint: alloc-ok (frozen reference)
  replica_coords.reserve(placement.size());
  for (const auto id : placement) {
    const auto it = std::find_if(candidates.begin(), candidates.end(),
                                 [id](const CandidateInfo& c) { return c.node == id; });
    GEORED_ENSURE(it != candidates.end(), "placement references a non-candidate node");
    replica_coords.push_back(&it->coords);
  }
  double total = 0.0;
  std::vector<double> latencies(placement.size());  // lint: alloc-ok (frozen reference)
  for (const auto& client : clients) {
    for (std::size_t r = 0; r < replica_coords.size(); ++r) {
      latencies[r] = client.coords.distance_to(*replica_coords[r]);
    }
    std::vector<double> scratch = latencies;  // lint: alloc-ok (frozen reference)
    total += quorum_latency(scratch, std::min(quorum, scratch.size())) *
             static_cast<double>(client.access_count);
  }
  return total;
}

}  // namespace geored::place
