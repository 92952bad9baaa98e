// HotZone-style cell baseline (Szymaniak, Pierre & van Steen, SAINT'05):
// partition the coordinate space into uniform cells, pick the k most crowded
// cells, and place a replica at the candidate nearest each cell's center of
// mass. The paper's related work notes its inherent limitation — all clients
// outside the chosen cells are ignored — which the benches make visible.
#pragma once

#include "placement/strategy.h"

namespace geored::place {

/// Cells per axis across the widest extent of the client bounding box: a
/// cell's edge is that extent over kHotZoneCellsPerAxis.
inline constexpr double kHotZoneCellsPerAxis = 8.0;

class HotZonePlacement final : public PlacementStrategy {
 public:
  std::string name() const override { return "hotzone"; }
  Placement place(const PlacementInput& input) const override;
};

}  // namespace geored::place
