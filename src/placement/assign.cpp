#include "placement/assign.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/ensure.h"
#include "common/random.h"

namespace geored::place {

Placement assign_centroids_to_candidates(const PointSet& centroids,
                                         const std::vector<double>& priorities,
                                         const std::vector<CandidateInfo>& candidates,
                                         std::size_t k, std::uint64_t seed) {
  GEORED_ENSURE(!candidates.empty(), "no candidate data centers");
  GEORED_ENSURE(centroids.size() == priorities.size(),
                "one priority per centroid required");
  for (const auto& candidate : candidates) {
    GEORED_ENSURE(centroids.empty() || candidate.coords.dim() == centroids.dim(),
                  "centroids and candidates must share one dimension");
  }
  const std::size_t target = std::min(k, candidates.size());

  // Process centroids by descending priority so the heaviest user
  // populations get first pick of the data centers.
  std::vector<std::size_t> order(centroids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return priorities[a] > priorities[b]; });

  std::vector<bool> used(candidates.size(), false);
  std::vector<double> remaining_capacity(candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    remaining_capacity[c] = candidates[c].capacity;
  }

  Placement placement;
  placement.reserve(target);
  for (const std::size_t ci : order) {
    if (placement.size() == target) break;
    const double demand = priorities[ci];

    auto pick_nearest = [&](bool respect_capacity) -> std::ptrdiff_t {
      std::ptrdiff_t best = -1;
      double best_dist = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (used[c]) continue;
        if (respect_capacity && remaining_capacity[c] < demand) continue;
        const double dist =
            centroids.distance_squared(ci, candidates[c].coords.values().data());
        if (dist < best_dist) {
          best_dist = dist;
          best = static_cast<std::ptrdiff_t>(c);
        }
      }
      return best;
    };

    std::ptrdiff_t chosen = pick_nearest(true);
    if (chosen < 0) chosen = pick_nearest(false);  // nobody has capacity: degrade
    GEORED_CHECK(chosen >= 0, "ran out of candidates before reaching k");
    used[static_cast<std::size_t>(chosen)] = true;
    remaining_capacity[static_cast<std::size_t>(chosen)] -= demand;
    placement.push_back(candidates[static_cast<std::size_t>(chosen)].node);
  }

  // Fewer clusters than k (e.g. one user population but a redundancy
  // requirement of several replicas): place the extra replicas at the
  // unused candidates nearest the known populations, cycling through the
  // centroids in priority order. Only with no usage information at all do
  // we fall back to a random fill.
  if (placement.size() < target && !centroids.empty()) {
    std::size_t cursor = 0;
    while (placement.size() < target) {
      const std::size_t ci = order[cursor % order.size()];
      ++cursor;
      std::ptrdiff_t best = -1;
      double best_dist = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (used[c]) continue;
        const double dist =
            centroids.distance_squared(ci, candidates[c].coords.values().data());
        if (dist < best_dist) {
          best_dist = dist;
          best = static_cast<std::ptrdiff_t>(c);
        }
      }
      GEORED_CHECK(best >= 0, "ran out of candidates before reaching k");
      used[static_cast<std::size_t>(best)] = true;
      placement.push_back(candidates[static_cast<std::size_t>(best)].node);
    }
  } else if (placement.size() < target) {
    Rng rng(seed ^ 0xabcdef1234567890ULL);
    std::vector<std::size_t> unused;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (!used[c]) unused.push_back(c);
    }
    const auto fill = rng.sample_without_replacement(unused.size(), target - placement.size());
    for (const auto idx : fill) placement.push_back(candidates[unused[idx]].node);
  }
  GEORED_DCHECK(placement.size() == target,
                "centroid assignment did not produce min(k, #candidates) replicas");
  GEORED_DCHECK(
      [&] {
        std::vector<topo::NodeId> sorted(placement.begin(), placement.end());
        std::sort(sorted.begin(), sorted.end());
        return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
      }(),
      "centroid assignment produced duplicate replicas");
  return placement;
}

}  // namespace geored::place
