#include "placement/candidate_table.h"

#include <utility>

#include "common/ensure.h"

namespace geored::place {

CandidateTable::CandidateTable(std::vector<CandidateInfo> candidates)
    : candidates_(std::move(candidates)) {
  GEORED_ENSURE(!candidates_.empty(), "at least one candidate data center is required");
  GEORED_ENSURE(candidates_.size() < kEmpty, "too many candidate data centers");
  const std::size_t dim = candidates_.front().coords.dim();
  coords_ = PointSet(dim);
  coords_.reserve(candidates_.size());
  for (const auto& candidate : candidates_) {
    GEORED_ENSURE(candidate.coords.dim() == dim,
                  "candidate coordinates must share one dimension");
    coords_.push_back(candidate.coords);
  }
  std::size_t slots = 2;
  unsigned bits = 1;
  while (slots < 2 * candidates_.size()) {
    slots *= 2;
    ++bits;
  }
  slots_.resize(slots);
  mask_ = slots - 1;
  shift_ = 64 - bits;
  for (std::size_t position = 0; position < candidates_.size(); ++position) {
    const topo::NodeId node = candidates_[position].node;
    std::size_t slot = home_slot(node);
    while (slots_[slot].position != kEmpty && slots_[slot].node != node) {
      slot = (slot + 1) & mask_;
    }
    // A repeated node keeps its first entry's position.
    if (slots_[slot].position == kEmpty) {
      slots_[slot] = {node, static_cast<std::uint32_t>(position)};
    }
  }
}

}  // namespace geored::place
