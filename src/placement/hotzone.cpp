#include "placement/hotzone.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "common/ensure.h"
#include "common/point_set.h"
#include "placement/assign.h"
#include "placement/random_placement.h"

namespace geored::place {

Placement HotZonePlacement::place(const PlacementInput& input) const {
  GEORED_ENSURE(!input.candidates.empty(), "no candidate data centers");
  if (input.clients.empty()) return random_placement(input.candidates, input.k, input.seed);
  const std::size_t k = std::min(input.k, input.candidates.size());
  const std::size_t dim = input.clients.front().coords.dim();

  // The cell edge: an eighth of the widest axis extent of the client cloud.
  double widest = 0.0;
  for (std::size_t d = 0; d < dim; ++d) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const auto& client : input.clients) {
      lo = std::min(lo, client.coords[d]);
      hi = std::max(hi, client.coords[d]);
    }
    widest = std::max(widest, hi - lo);
  }
  const double cell = widest > 0.0 ? widest / kHotZoneCellsPerAxis : 1.0;

  // Bucket clients into cells; track per-cell access mass and center of mass.
  struct Cell {
    double mass = 0.0;
    Point weighted_sum;
  };
  std::map<std::vector<std::int64_t>, Cell> cells;
  for (const auto& client : input.clients) {
    std::vector<std::int64_t> key(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      key[d] = static_cast<std::int64_t>(std::floor(client.coords[d] / cell));
    }
    auto& entry = cells[key];
    const auto weight = static_cast<double>(client.access_count);
    if (entry.weighted_sum.empty()) entry.weighted_sum = Point(dim);
    entry.mass += weight;
    entry.weighted_sum += client.coords * weight;
  }

  // k most crowded cells, represented by their center of mass.
  std::vector<std::pair<double, Point>> ranked;
  ranked.reserve(cells.size());
  for (const auto& [key, entry] : cells) {
    if (entry.mass <= 0.0) continue;
    ranked.emplace_back(entry.mass, entry.weighted_sum / entry.mass);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  ranked.resize(std::min(ranked.size(), k));

  PointSet centroids(dim);
  std::vector<double> priorities;
  for (const auto& [mass, center] : ranked) {
    centroids.push_back(center);
    priorities.push_back(mass);
  }
  return assign_centroids_to_candidates(centroids, priorities, input.candidates, k, input.seed);
}

}  // namespace geored::place
