// Baseline 1: uniformly random choice of k candidate data centers — what
// systems that ignore client locations (Dynamo/Cassandra-style hash or rack
// placement) effectively do at WAN scale.
#pragma once

#include "placement/strategy.h"

namespace geored::place {

/// k of `candidates` (fewer when there are fewer), drawn without
/// replacement from Rng(seed): RandomPlacement's rule over candidates read
/// by reference.
Placement random_placement(const std::vector<CandidateInfo>& candidates, std::size_t k,
                           std::uint64_t seed);

class RandomPlacement final : public PlacementStrategy {
 public:
  std::string name() const override { return "random"; }
  Placement place(const PlacementInput& input) const override;
};

}  // namespace geored::place
