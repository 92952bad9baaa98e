// Frozen reference for coord::rnp_refit: RnpNode's refit as it ran before
// the fused refit kernel, moved here verbatim behind the RnpWindow view.
// Each descent step makes two walks over the window, the objective at the
// new point (its distances from the dispatched distance_row) and then the
// gradient there, summed into memory. Do not optimize it.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/ensure.h"
#include "common/point_set_simd.h"
#include "reference/scalar.h"

namespace geored::coord {

namespace {

/// Lower clamp of a peer's error estimate when it is turned into a sample's
/// reliability weight.
constexpr double kReliabilityErrorFloor = 0.05;

/// The refit half of the old RnpNode: its configuration, its window (now a
/// view) and its per-slot refit scratch.
class ScalarRefit {
 public:
  ScalarRefit(const RnpConfig& config, const RnpWindow& window)
      : config_(config.vivaldi),
        rnp_config_(config),
        window_(window),
        weight_(window.capacity),
        distance_(window.capacity),
        position_(window.dim),
        best_position_(window.dim),
        gradient_(window.dim) {}

  void refit(NetworkCoordinate& coord);

 private:
  /// Calls fn(slot, age) for every retained sample, oldest first — the
  /// order every sum over the window runs in.
  template <typename Fn>
  void for_each_sample(Fn&& fn) const;

  /// Weighted mean squared relative error of predicting the window from
  /// (`position`, `height`), given the sum of `weight_`. Leaves each
  /// sample's spatial distance to `position` in `distance_` for the next
  /// gradient step to reuse.
  double objective(const double* position, double height, double weight_sum);

  const VivaldiConfig& config_;
  const RnpConfig& rnp_config_;
  const RnpWindow& window_;
  std::vector<double> weight_;
  std::vector<double> distance_;
  std::vector<double> position_;
  std::vector<double> best_position_;
  std::vector<double> gradient_;
};

template <typename Fn>
void ScalarRefit::for_each_sample(Fn&& fn) const {
  const std::size_t n = window_.size;
  // Until the ring first wraps, slot 0 holds the oldest sample.
  std::size_t slot = n < rnp_config_.window_size ? 0 : window_.next;
  for (std::size_t s = 0; s < n; ++s) {
    fn(slot, n - 1 - s);
    if (++slot == rnp_config_.window_size) slot = 0;
  }
}

double ScalarRefit::objective(const double* position, double height, double weight_sum) {
  // PointSet::distance_row over the window's rows, as the node called it.
  const std::size_t n = window_.size;
  const simd::Level level =
      n >= simd::kMinSimdRows ? simd::active_level() : simd::Level::kScalar;
  simd::distance_row(window_.positions, n, window_.dim, position, distance_.data(), level);
  const bool use_height = config_.use_height;
  double total = 0.0;
  for_each_sample([&](std::size_t slot, std::size_t) {
    const double rtt = window_.rtts[slot];
    const double pred = distance_[slot] + (use_height ? height + window_.heights[slot] : 0.0);
    const double rel = (pred - rtt) / rtt;
    total += weight_[slot] * rel * rel;
  });
  return weight_sum > 0 ? total / weight_sum : 0.0;
}

void ScalarRefit::refit(NetworkCoordinate& coord) {
  const bool use_height = config_.use_height;
  const std::size_t dim = window_.dim;

  // Reliability x recency weight per retained sample. Reliability is the
  // inverse of the peer's own error estimate at observation time — samples
  // from well-converged peers steer the fit more.
  double mean_rtt = 0.0;
  double weight_sum = 0.0;
  for_each_sample([&](std::size_t slot, std::size_t age) {
    const double reliability =
        1.0 / std::clamp(window_.errors[slot], kReliabilityErrorFloor, config_.max_error);
    weight_[slot] = window_.decay_by_age[age] * reliability;
    weight_sum += weight_[slot];
    mean_rtt += window_.rtts[slot];
  });
  mean_rtt /= static_cast<double>(window_.size);

  double* position = position_.data();
  double* best_position = best_position_.data();
  double* grad = gradient_.data();
  std::copy_n(coord.position.values().data(), dim, position);
  double height = coord.height;

  double best_obj = objective(position, height, weight_sum);
  std::copy_n(position, dim, best_position);
  double best_height = height;

  for (std::size_t step = 0; step < rnp_config_.descent_steps; ++step) {
    if (weight_sum <= 0.0) break;
    // Weighted gradient of the relative squared error at `position`, whose
    // per-sample distances the last objective() call left in distance_.
    std::fill_n(grad, dim, 0.0);
    double grad_h = 0.0;
    for_each_sample([&](std::size_t slot, std::size_t) {
      const double spatial = distance_[slot];
      const double rtt = window_.rtts[slot];
      const double pred = spatial + (use_height ? height + window_.heights[slot] : 0.0);
      const double coeff = weight_[slot] * 2.0 * (pred - rtt) / (rtt * rtt);
      if (spatial > 1e-9) {
        const double* remote = window_.positions + slot * dim;
        const double scale = coeff / spatial;
        for (std::size_t i = 0; i < dim; ++i) grad[i] += (position[i] - remote[i]) * scale;
      }
      if (use_height) grad_h += coeff;
    });
    double grad_norm_squared = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      grad[i] /= weight_sum;
      grad_norm_squared += grad[i] * grad[i];
    }
    grad_h /= weight_sum;

    const double grad_norm = std::sqrt(grad_norm_squared + grad_h * grad_h);
    if (grad_norm < 1e-12) break;

    // Diminishing normalized step, scaled to the window's RTT magnitude.
    const double step_size = rnp_config_.learning_rate * mean_rtt /
                             (1.0 + static_cast<double>(step)) / grad_norm;
    for (std::size_t i = 0; i < dim; ++i) position[i] -= grad[i] * step_size;
    if (use_height) height = std::max(0.0, height - grad_h * step_size);

    const double obj = objective(position, height, weight_sum);
    if (obj < best_obj) {
      best_obj = obj;
      std::copy_n(position, dim, best_position);
      best_height = height;
    }
  }

  std::copy_n(best_position, dim, &coord.position[0]);
  coord.height = best_height;
  // The refit objective is the weighted mean squared relative error; its
  // square root is the natural successor of Vivaldi's error estimate.
  coord.error = std::min(config_.max_error, std::sqrt(best_obj));
}

}  // namespace

void rnp_refit_scalar(const RnpConfig& config, const RnpWindow& window,
                      NetworkCoordinate& coord) {
  GEORED_ENSURE(window.size >= 1 && window.size <= window.capacity &&
                    window.capacity == config.window_size &&
                    coord.position.dim() == window.dim,
                "rnp_refit_scalar needs a non-empty window of the configured capacity");
  ScalarRefit(config, window).refit(coord);
}

}  // namespace geored::coord
