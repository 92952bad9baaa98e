#include "netcoord/rnp.h"

#include <algorithm>
#include <cmath>

#include "common/arena.h"
#include "common/ensure.h"

namespace geored::coord {

namespace {
/// Lower clamp of a peer's error estimate when it is turned into a sample's
/// reliability weight.
constexpr double kReliabilityErrorFloor = 0.05;

/// Doubles of arena scratch a refit of `samples` samples in `dim`
/// dimensions takes: the window as columns and as rows, its heights, RTTs,
/// squared RTTs and weights, and the current point, the best point and the
/// gradient.
std::size_t refit_scratch_doubles(std::size_t samples, std::size_t dim) {
  return 2 * samples * dim + 4 * samples + 3 * dim;
}
}  // namespace

RnpNode::RnpNode(const RnpConfig& config, std::uint32_t node_id)
    : VivaldiNode(config.vivaldi, node_id),
      rnp_config_(config),
      window_positions_(config.vivaldi.dimensions) {
  GEORED_ENSURE(config.window_size >= 2, "RNP window must hold at least two samples");
  GEORED_ENSURE(config.refit_every >= 1, "refit_every must be at least 1");
  GEORED_ENSURE(config.recency_decay > 0.0 && config.recency_decay <= 1.0,
                "recency_decay must be in (0,1]");
  GEORED_ENSURE(std::isfinite(config.learning_rate) && config.learning_rate > 0.0,
                "learning_rate must be positive and finite");
  GEORED_ENSURE(config.vivaldi.max_error >= kReliabilityErrorFloor,
                "RNP needs max_error of at least 0.05");
  // The only allocations a node makes: everything below is reused for the
  // node's lifetime.
  const std::size_t window = config.window_size;
  window_positions_.reserve(window);  // lint: alloc-ok
  window_heights_.resize(window);     // lint: alloc-ok
  window_errors_.resize(window);      // lint: alloc-ok
  window_rtts_.resize(window);        // lint: alloc-ok
  decay_by_age_.resize(window);       // lint: alloc-ok
  for (std::size_t age = 0; age < window; ++age) {
    decay_by_age_[age] = std::pow(config.recency_decay, static_cast<double>(age));
  }
  // Sizes this thread's epoch arena for the largest refit the node can run
  // (a no-op once the arena holds that much), so observing on this thread
  // never allocates.
  ArenaScope scope;
  scope.span<double>(refit_scratch_doubles(window, config.vivaldi.dimensions));
}

void RnpNode::observe(const NetworkCoordinate& remote, double rtt_ms) {
  const std::size_t dim = window_positions_.dim();
  GEORED_ENSURE(remote.position.dim() == dim, "remote coordinate has the wrong dimension");
  if (!(rtt_ms > 0.0)) return;
  // Every refit_every-th sample refits, once the window holds at least four
  // samples (counting the one about to be stored).
  const bool refit_after_step =
      (observation_count_ + 1) % rnp_config_.refit_every == 0 &&
      std::min(window_positions_.size() + 1, rnp_config_.window_size) >= 4;
  const double* remote_position = remote.position.values().data();
  if (window_positions_.size() < rnp_config_.window_size) {
    window_positions_.push_back_row(remote_position, dim);  // within the reserve
  } else {
    std::copy_n(remote_position, dim, window_positions_.mutable_row(window_next_));
  }
  window_heights_[window_next_] = remote.height;
  window_errors_[window_next_] = remote.error;
  window_rtts_[window_next_] = rtt_ms;
  if (++window_next_ == rnp_config_.window_size) window_next_ = 0;
  ++observation_count_;

  // Online Vivaldi step keeps the coordinate moving between refits, but its
  // gain shrinks as this node's own error estimate falls: a reliable
  // coordinate should not chase individual samples — the retrospective
  // refit makes the considered adjustments. (This is the stability half of
  // RNP's "consume information according to its reliability".)
  vivaldi_step(remote, rtt_ms, std::clamp(kVivaldiCc * coord_.error, 0.01, kVivaldiCc));
  ++samples_;

  if (refit_after_step) rnp_refit(rnp_config_, window(), coord_, simd::active_level());
}

RnpWindow RnpNode::window() const {
  RnpWindow view;
  view.positions = window_positions_.row(0);
  view.heights = window_heights_.data();
  view.errors = window_errors_.data();
  view.rtts = window_rtts_.data();
  view.decay_by_age = decay_by_age_.data();
  view.dim = window_positions_.dim();
  view.size = window_positions_.size();
  view.capacity = rnp_config_.window_size;
  view.next = window_next_;
  return view;
}

void rnp_refit(const RnpConfig& config, const RnpWindow& window, NetworkCoordinate& coord,
               simd::Level level) {
  const bool use_height = config.vivaldi.use_height;
  const std::size_t n = window.size;
  const std::size_t dim = window.dim;
  GEORED_ENSURE(n >= 1 && n <= window.capacity && window.next < window.capacity,
                "RNP refit needs a non-empty window within its capacity");
  GEORED_ENSURE(coord.position.dim() == dim, "RNP refit coordinate has the wrong dimension");

  ArenaScope scope;
  double* const columns = scope.span<double>(refit_scratch_doubles(n, dim));
  double* const rows = columns + n * dim;
  double* const heights = rows + n * dim;
  double* const rtts = heights + n;
  double* const rtt_squared = rtts + n;
  double* const weights = rtt_squared + n;
  double* const position = weights + n;
  double* const best_position = position + dim;
  double* const grad = best_position + dim;

  // Copy the window oldest sample first, with each sample's reliability x
  // recency weight. Reliability is the inverse of the peer's own error
  // estimate at observation time — samples from well-converged peers steer
  // the fit more. Until the ring first wraps, slot 0 holds the oldest sample.
  double mean_rtt = 0.0;
  double weight_sum = 0.0;
  std::size_t slot = n < window.capacity ? 0 : window.next;
  for (std::size_t s = 0; s < n; ++s) {
    const double reliability = 1.0 / std::clamp(window.errors[slot], kReliabilityErrorFloor,
                                                config.vivaldi.max_error);
    weights[s] = window.decay_by_age[n - 1 - s] * reliability;
    weight_sum += weights[s];
    mean_rtt += window.rtts[slot];
    const double* remote = window.positions + slot * dim;
    std::copy_n(remote, dim, rows + s * dim);
    for (std::size_t d = 0; d < dim; ++d) columns[d * n + s] = remote[d];
    heights[s] = window.heights[slot];
    rtts[s] = window.rtts[slot];
    rtt_squared[s] = rtts[s] * rtts[s];
    if (++slot == window.capacity) slot = 0;
  }
  mean_rtt /= static_cast<double>(n);

  simd::RefitWindow samples;
  samples.n = n;
  samples.dim = dim;
  samples.columns = columns;
  samples.rows = rows;
  samples.heights = heights;
  samples.rtts = rtts;
  samples.rtt_squared = rtt_squared;
  samples.weights = weights;
  // The weighted mean squared relative error at (position, height); every
  // pass but the last also leaves the (unnormalized) gradient there in
  // grad and grad_h, for the step that follows.
  const std::size_t steps = config.descent_steps;
  double grad_h = 0.0;
  const auto evaluate = [&](double at_height, bool gradient) {
    const double total = simd::rnp_refit_pass(samples, position, at_height, use_height,
                                              gradient ? grad : nullptr, &grad_h, level);
    return weight_sum > 0 ? total / weight_sum : 0.0;
  };

  std::copy_n(coord.position.values().data(), dim, position);
  double height = coord.height;
  double best_obj = evaluate(height, steps > 0);
  std::copy_n(position, dim, best_position);
  double best_height = height;

  for (std::size_t step = 0; step < steps; ++step) {
    if (weight_sum <= 0.0) break;
    double grad_norm_squared = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      grad[i] /= weight_sum;
      grad_norm_squared += grad[i] * grad[i];
    }
    grad_h /= weight_sum;

    const double grad_norm = std::sqrt(grad_norm_squared + grad_h * grad_h);
    if (grad_norm < 1e-12) break;

    // Diminishing normalized step, scaled to the window's RTT magnitude.
    const double step_size =
        config.learning_rate * mean_rtt / (1.0 + static_cast<double>(step)) / grad_norm;
    for (std::size_t i = 0; i < dim; ++i) position[i] -= grad[i] * step_size;
    if (use_height) height = std::max(0.0, height - grad_h * step_size);

    const double obj = evaluate(height, step + 1 < steps);
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
  coord.error = std::min(config.vivaldi.max_error, std::sqrt(best_obj));
  GEORED_DCHECK(coord.position.is_finite(), "RNP refit produced a non-finite coordinate");
  GEORED_DCHECK(std::isfinite(coord.height) && coord.height >= 0.0,
                "RNP refit produced an invalid height");
  GEORED_DCHECK(std::isfinite(coord.error) && coord.error >= 0.0,
                "RNP refit produced an invalid error estimate");
}

}  // namespace geored::coord
