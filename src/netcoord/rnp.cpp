#include "netcoord/rnp.h"

#include <algorithm>
#include <cmath>

#include "common/ensure.h"

namespace geored::coord {

namespace {
/// Lower clamp of a peer's error estimate when it is turned into a sample's
/// reliability weight.
constexpr double kReliabilityErrorFloor = 0.05;
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
  const std::size_t dim = config.vivaldi.dimensions;
  window_positions_.reserve(window);  // lint: alloc-ok
  window_heights_.resize(window);     // lint: alloc-ok
  window_errors_.resize(window);      // lint: alloc-ok
  window_rtts_.resize(window);        // lint: alloc-ok
  decay_by_age_.resize(window);       // lint: alloc-ok
  weight_.resize(window);             // lint: alloc-ok
  distance_.resize(window);           // lint: alloc-ok
  position_.resize(dim);              // lint: alloc-ok
  best_position_.resize(dim);         // lint: alloc-ok
  gradient_.resize(dim);              // lint: alloc-ok
  for (std::size_t age = 0; age < window; ++age) {
    decay_by_age_[age] = std::pow(config.recency_decay, static_cast<double>(age));
  }
}

void RnpNode::observe(const NetworkCoordinate& remote, double rtt_ms) {
  const std::size_t dim = window_positions_.dim();
  GEORED_ENSURE(remote.position.dim() == dim, "remote coordinate has the wrong dimension");
  if (!(rtt_ms > 0.0)) return;
  const bool refit_after_step = refit_due();
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
  const double base_cc = config_.cc;
  config_.cc = std::clamp(base_cc * coord_.error, 0.01, base_cc);
  vivaldi_step(remote, rtt_ms);
  config_.cc = base_cc;
  ++samples_;

  if (refit_after_step) refit();
}

bool RnpNode::refit_due() const {
  // Every refit_every-th sample, once the window holds at least four
  // samples (counting the one about to be stored).
  return (observation_count_ + 1) % rnp_config_.refit_every == 0 &&
         std::min(window_positions_.size() + 1, rnp_config_.window_size) >= 4;
}

template <typename Fn>
void RnpNode::for_each_sample(Fn&& fn) const {
  const std::size_t n = window_positions_.size();
  // Until the ring first wraps, slot 0 holds the oldest sample.
  std::size_t slot = n < rnp_config_.window_size ? 0 : window_next_;
  for (std::size_t s = 0; s < n; ++s) {
    fn(slot, n - 1 - s);
    if (++slot == rnp_config_.window_size) slot = 0;
  }
}

double RnpNode::objective(const double* position, double height, double weight_sum) {
  window_positions_.distance_row(position, distance_.data());
  const bool use_height = config_.use_height;
  double total = 0.0;
  for_each_sample([&](std::size_t slot, std::size_t) {
    const double rtt = window_rtts_[slot];
    const double pred = distance_[slot] + (use_height ? height + window_heights_[slot] : 0.0);
    const double rel = (pred - rtt) / rtt;
    total += weight_[slot] * rel * rel;
  });
  return weight_sum > 0 ? total / weight_sum : 0.0;
}

void RnpNode::refit() {
  const bool use_height = config_.use_height;
  const std::size_t dim = window_positions_.dim();

  // Reliability x recency weight per retained sample. Reliability is the
  // inverse of the peer's own error estimate at observation time — samples
  // from well-converged peers steer the fit more.
  double mean_rtt = 0.0;
  double weight_sum = 0.0;
  for_each_sample([&](std::size_t slot, std::size_t age) {
    const double reliability =
        1.0 / std::clamp(window_errors_[slot], kReliabilityErrorFloor, config_.max_error);
    weight_[slot] = decay_by_age_[age] * reliability;
    weight_sum += weight_[slot];
    mean_rtt += window_rtts_[slot];
  });
  mean_rtt /= static_cast<double>(window_positions_.size());

  double* position = position_.data();
  double* best_position = best_position_.data();
  double* grad = gradient_.data();
  std::copy_n(coord_.position.values().data(), dim, position);
  double height = coord_.height;

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
      const double rtt = window_rtts_[slot];
      const double pred = spatial + (use_height ? height + window_heights_[slot] : 0.0);
      const double coeff = weight_[slot] * 2.0 * (pred - rtt) / (rtt * rtt);
      if (spatial > 1e-9) {
        const double* remote = window_positions_.row(slot);
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

  std::copy_n(best_position, dim, &coord_.position[0]);
  coord_.height = best_height;
  // The refit objective is the weighted mean squared relative error; its
  // square root is the natural successor of Vivaldi's error estimate.
  coord_.error = std::min(config_.max_error, std::sqrt(best_obj));
  GEORED_DCHECK(coord_.position.is_finite(),
                "RNP refit produced a non-finite coordinate");
  GEORED_DCHECK(std::isfinite(coord_.height) && coord_.height >= 0.0,
                "RNP refit produced an invalid height");
  GEORED_DCHECK(std::isfinite(coord_.error) && coord_.error >= 0.0,
                "RNP refit produced an invalid error estimate");
}

}  // namespace geored::coord
