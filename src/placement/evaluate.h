// Objective evaluation for replica placements.
//
// The paper's objective (Section II-B): l(o) = sum_u min_{c in R} l(u,c),
// each client access served by the closest replica. `quorum` generalizes
// this to the q-th order statistic for the quorum-read extension: a client
// must reach its q closest replicas, so its perceived delay is the q-th
// smallest latency.
#pragma once

#include <vector>

#include "placement/types.h"

namespace geored::place {

/// Ground-truth total delay (ms, weighted by per-client access counts) of a
/// placement. Requires a non-empty placement and quorum <= placement size.
double true_total_delay(const topo::Topology& topology, const Placement& placement,
                        const std::vector<ClientRecord>& clients, std::size_t quorum = 1);

/// Ground-truth average per-access delay (true_total_delay / total accesses).
double true_average_delay(const topo::Topology& topology, const Placement& placement,
                          const std::vector<ClientRecord>& clients, std::size_t quorum = 1);

/// Coordinate-estimated total delay: distances in the embedding instead of
/// true RTTs. This is what scalable strategies can compute without probing.
double estimated_total_delay(const Placement& placement,
                             const std::vector<CandidateInfo>& candidates,
                             const std::vector<ClientRecord>& clients, std::size_t quorum = 1);

/// Validates that a placement consists of distinct ids drawn from the
/// candidate set and has size min(k, #candidates). Throws on violation.
void validate_placement(const Placement& placement, const PlacementInput& input);

}  // namespace geored::place
