// Baseline 2: offline k-means over the recorded coordinates of *every*
// client access. Near-optimal but unscalable — all client coordinates must
// be collected centrally (O(n) bandwidth, O(n^k log n) compute; Table II).
#pragma once

#include "placement/strategy.h"

namespace geored::place {

class OfflineKMeansPlacement final : public PlacementStrategy {
 public:
  std::string name() const override { return "offline k-means"; }
  Placement place(const PlacementInput& input) const override;
};

}  // namespace geored::place
