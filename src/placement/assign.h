// Shared final step of all clustering-based strategies: map cluster
// centroids to *distinct* candidate data centers (Algorithm 1, lines 3-5),
// respecting per-candidate capacity (load-aware extension).
#pragma once

#include <cstdint>
#include <vector>

#include "common/point_set.h"
#include "placement/types.h"

namespace geored::place {

/// Maps each centroid row, in order of descending `priorities` (at every
/// caller the cluster's access mass), to the nearest not-yet-used
/// candidate.
///
/// A centroid's priority is also its demand: a candidate is only eligible
/// while its remaining capacity covers it; if no candidate has capacity
/// left the nearest unused one is taken anyway (serving degraded beats not
/// serving). With every capacity infinite (the paper's setting, and every
/// shipped caller's), capacity never excludes a candidate.
///
/// If fewer centroids than k are supplied, the remaining slots are filled
/// with unused candidates chosen uniformly at random (seeded) — the
/// information-free fallback.
Placement assign_centroids_to_candidates(const PointSet& centroids,
                                         const std::vector<double>& priorities,
                                         const std::vector<CandidateInfo>& candidates,
                                         std::size_t k, std::uint64_t seed);

}  // namespace geored::place
