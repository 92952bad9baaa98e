#include "placement/random_placement.h"

#include "common/ensure.h"
#include "common/random.h"

namespace geored::place {

Placement random_placement(const std::vector<CandidateInfo>& candidates, std::size_t k,
                           std::uint64_t seed) {
  GEORED_ENSURE(!candidates.empty(), "no candidate data centers");
  Rng rng(seed);
  const std::size_t count = std::min(k, candidates.size());
  Placement placement;
  placement.reserve(count);
  for (const auto idx : rng.sample_without_replacement(candidates.size(), count)) {
    placement.push_back(candidates[idx].node);
  }
  return placement;
}

Placement RandomPlacement::place(const PlacementInput& input) const {
  return random_placement(input.candidates, input.k, input.seed);
}

}  // namespace geored::place
