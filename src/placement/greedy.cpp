#include "placement/greedy.h"

#include <limits>

#include "common/ensure.h"
#include "common/thread_pool.h"
#include "placement/latency_matrix.h"
#include "placement/random_placement.h"

namespace geored::place {

Placement GreedyPlacement::place(const PlacementInput& input) const {
  GEORED_ENSURE(!input.candidates.empty(), "no candidate data centers");
  if (input.clients.empty()) return random_placement(input.candidates, input.k, input.seed);
  const std::size_t k = std::min(input.k, input.candidates.size());

  // Estimated latency of every (candidate, client) pair, computed once into
  // one contiguous candidate-major block.
  const std::size_t n_cand = input.candidates.size();
  const std::size_t n_client = input.clients.size();
  const LatencyMatrix latency = build_latency_matrix(input.candidates, input.clients);
  const std::vector<double> weight = access_weights(input.clients);

  std::vector<double> current_min(n_client, std::numeric_limits<double>::infinity());
  std::vector<bool> used(n_cand, false);
  std::vector<double> totals(n_cand, std::numeric_limits<double>::infinity());
  Placement placement;
  placement.reserve(k);

  for (std::size_t round = 0; round < k; ++round) {
    // Each candidate's marginal total is an independent sequential pass over
    // the clients, so the candidate loop parallelizes without changing a
    // single rounding: partial sums never cross chunk boundaries.
    parallel_for(
        n_cand,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t c = begin; c < end; ++c) {
            if (used[c]) continue;
            const double* row = latency.row(c);
            double total = 0.0;
            for (std::size_t u = 0; u < n_client; ++u) {
              total += std::min(current_min[u], row[u]) * weight[u];
            }
            totals[c] = total;
          }
        },
        min_parallel_rows(n_client));
    std::size_t best_candidate = 0;
    double best_total = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < n_cand; ++c) {
      if (used[c]) continue;
      if (totals[c] < best_total) {
        best_total = totals[c];
        best_candidate = c;
      }
    }
    used[best_candidate] = true;
    placement.push_back(input.candidates[best_candidate].node);
    const double* row = latency.row(best_candidate);
    for (std::size_t u = 0; u < n_client; ++u) {
      current_min[u] = std::min(current_min[u], row[u]);
    }
  }
  return placement;
}

}  // namespace geored::place
