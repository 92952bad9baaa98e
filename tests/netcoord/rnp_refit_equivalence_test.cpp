// The production RNP refit (rnp_refit, one fused simd::rnp_refit_pass per
// descent step) against the frozen two-walk refit (rnp_refit_scalar), bit
// for bit, at every SIMD level the CPU runs. Random windows cover every
// dimension the vector arm holds in registers (1-8) plus one wider than
// that, window sizes 4-512 both partly filled and full with the ring's
// write position at every slot, the height model on and off, descent_steps
// 0, 1 and 25, and samples whose peer sits within 1e-9 of the point being
// fitted (the branch where a sample adds nothing to the spatial gradient).
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/point_set_simd.h"
#include "common/random.h"
#include "netcoord/rnp.h"
#include "reference/scalar.h"

namespace geored::coord {
namespace {

/// Levels the running CPU can execute.
std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::detected_level() >= simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  if (simd::detected_level() >= simd::Level::kAvx512) levels.push_back(simd::Level::kAvx512);
  return levels;
}

/// A ring window with its own storage, filled with random samples around a
/// random starting coordinate.
struct RandomWindow {
  RnpConfig config;
  std::vector<double> positions, heights, errors, rtts, decay_by_age;
  std::size_t size = 0;
  std::size_t next = 0;
  NetworkCoordinate start;

  RandomWindow(std::size_t dim, std::size_t capacity, std::size_t filled, std::size_t write_at,
               Rng& rng)
      : positions(capacity * dim),
        heights(capacity),
        errors(capacity),
        rtts(capacity),
        decay_by_age(capacity),
        size(filled),
        next(write_at),
        start(dim) {
    config.vivaldi.dimensions = dim;
    config.window_size = capacity;
    for (std::size_t age = 0; age < capacity; ++age) {
      decay_by_age[age] = std::pow(config.recency_decay, static_cast<double>(age));
    }
    for (std::size_t d = 0; d < dim; ++d) start.position[d] = rng.uniform(-150.0, 150.0);
    start.height = rng.uniform(0.0, 8.0);
    start.error = rng.uniform(0.1, 1.5);
    for (std::size_t slot = 0; slot < filled; ++slot) {
      double distance_sq = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double x = rng.uniform(-200.0, 200.0);
        positions[slot * dim + d] = x;
        distance_sq += (x - start.position[d]) * (x - start.position[d]);
      }
      heights[slot] = rng.uniform(0.0, 10.0);
      // Either side of the reliability clamp [0.05, max_error].
      errors[slot] = rng.uniform(0.01, 2.0);
      rtts[slot] = std::sqrt(distance_sq) * rng.uniform(0.7, 1.6) + rng.uniform(0.5, 20.0);
    }
  }

  /// Moves the peer of `slot` to the starting position, nudged by `offset`
  /// in its first component, so the first pass sees it within 1e-9.
  void coincide(std::size_t slot, double offset) {
    const std::size_t dim = start.position.dim();
    for (std::size_t d = 0; d < dim; ++d) positions[slot * dim + d] = start.position[d];
    positions[slot * dim] += offset;
  }

  RnpWindow view() const {
    RnpWindow window;
    window.positions = positions.data();
    window.heights = heights.data();
    window.errors = errors.data();
    window.rtts = rtts.data();
    window.decay_by_age = decay_by_age.data();
    window.dim = start.position.dim();
    window.size = size;
    window.capacity = config.window_size;
    window.next = next;
    return window;
  }
};

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Refits `window` with the frozen reference and with production at every
/// level, and expects every output bit to agree.
void expect_refits_match(const RandomWindow& window, const std::string& label) {
  NetworkCoordinate expected = window.start;
  rnp_refit_scalar(window.config, window.view(), expected);
  for (const simd::Level level : available_levels()) {
    NetworkCoordinate actual = window.start;
    rnp_refit(window.config, window.view(), actual, level);
    const std::string where = label + " at " + simd::level_name(level);
    for (std::size_t d = 0; d < expected.position.dim(); ++d) {
      ASSERT_EQ(bits(actual.position[d]), bits(expected.position[d]))
          << where << ", component " << d << ": " << actual.position[d] << " vs "
          << expected.position[d];
    }
    ASSERT_EQ(bits(actual.height), bits(expected.height)) << where << ", height";
    ASSERT_EQ(bits(actual.error), bits(expected.error)) << where << ", error";
  }
}

constexpr std::size_t kDimensions[] = {1, 2, 3, 4, 5, 6, 7, 8, 11};
constexpr std::size_t kCapacities[] = {4, 16, 20, 64, 512};
constexpr std::size_t kSteps[] = {0, 1, 25};

std::string describe(const RandomWindow& window) {
  return "dim " + std::to_string(window.start.position.dim()) + ", capacity " +
         std::to_string(window.config.window_size) + ", size " +
         std::to_string(window.size) + ", next " + std::to_string(window.next) +
         ", height " + (window.config.vivaldi.use_height ? "on" : "off") + ", steps " +
         std::to_string(window.config.descent_steps);
}

TEST(RnpRefitEquivalence, FullWindowsWithTheWriteAtEverySlot) {
  Rng rng(41);
  for (const std::size_t capacity : kCapacities) {
    for (std::size_t next = 0; next < capacity; ++next) {
      // Each slot takes the next combination of dimension, height model
      // and step count, so every combination recurs at every capacity.
      RandomWindow window(kDimensions[next % std::size(kDimensions)], capacity, capacity, next,
                          rng);
      window.config.vivaldi.use_height = (next / std::size(kDimensions)) % 2 == 1;
      window.config.descent_steps = kSteps[next % std::size(kSteps)];
      expect_refits_match(window, describe(window));
    }
  }
}

TEST(RnpRefitEquivalence, PartlyFilledWindows) {
  Rng rng(43);
  for (const std::size_t capacity : kCapacities) {
    std::vector<std::size_t> fills = {1, 2, 3, capacity / 2 + 1, capacity - 1};
    if (capacity > 16) fills.insert(fills.end(), {7, 8, 9, 15, 16, 17});
    for (const std::size_t dim : kDimensions) {
      for (const bool use_height : {false, true}) {
        for (const std::size_t steps : kSteps) {
          for (const std::size_t filled : fills) {
            // A window that has not wrapped writes its next sample right
            // after the last filled slot.
            RandomWindow window(dim, capacity, filled, filled, rng);
            window.config.vivaldi.use_height = use_height;
            window.config.descent_steps = steps;
            expect_refits_match(window, describe(window));
          }
        }
      }
    }
  }
}

TEST(RnpRefitEquivalence, PeersWithinOneNanoOfThePoint) {
  Rng rng(47);
  for (const std::size_t dim : kDimensions) {
    for (const bool use_height : {false, true}) {
      for (const std::size_t steps : kSteps) {
        // 20 samples: two full blocks of eight and a partial block of four,
        // so the coincident peers land in a vector block and in the tail.
        RandomWindow window(dim, 20, 20, 7, rng);
        window.config.vivaldi.use_height = use_height;
        window.config.descent_steps = steps;
        window.coincide(3, 0.0);
        window.coincide(10, 4e-10);
        window.coincide(18, -9e-10);
        expect_refits_match(window, describe(window) + ", coincident peers");
      }
    }
  }
}

TEST(RnpRefitEquivalence, EveryPeerAtThePoint) {
  // Every distance is below 1e-9 at the start: the spatial gradient is
  // zero, so only the height model can move the fit.
  for (const std::size_t dim : kDimensions) {
    for (const bool use_height : {false, true}) {
      Rng rng(53);
      RandomWindow window(dim, 16, 16, 5, rng);
      window.config.vivaldi.use_height = use_height;
      for (std::size_t slot = 0; slot < 16; ++slot) window.coincide(slot, 0.0);
      expect_refits_match(window, describe(window) + ", all peers coincident");
    }
  }
}

}  // namespace
}  // namespace geored::coord
