#include "netcoord/vivaldi.h"

#include <algorithm>
#include <cmath>

#include "common/ensure.h"

namespace geored::coord {

namespace {
/// Lower clamp of both error estimates in the confidence weight.
constexpr double kErrorFloor = 1e-6;
}  // namespace

VivaldiNode::VivaldiNode(const VivaldiConfig& config, std::uint32_t node_id)
    : config_(config), coord_(config.dimensions), node_id_(node_id) {
  GEORED_ENSURE(config.dimensions >= 1, "Vivaldi needs at least one dimension");
  GEORED_ENSURE(std::isfinite(config.max_error) && config.max_error >= kErrorFloor,
                "max_error must be finite and at least 1e-6");
  coord_.error = kVivaldiInitialError;
  if (config.use_height) coord_.height = kVivaldiInitialHeight;
}

void VivaldiNode::observe(const NetworkCoordinate& remote, double rtt_ms) {
  GEORED_ENSURE(remote.position.dim() == coord_.position.dim(),
                "remote coordinate has the wrong dimension");
  if (!(rtt_ms > 0.0)) return;  // drop non-positive / NaN samples
  vivaldi_step(remote, rtt_ms, kVivaldiCc);
  ++samples_;
}

void VivaldiNode::vivaldi_step(const NetworkCoordinate& remote, double rtt_ms, double cc) {
  const std::size_t dim = coord_.position.dim();
  double* position = &coord_.position[0];
  const double* remote_position = remote.position.values().data();
  double squared = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = position[i] - remote_position[i];
    squared += d * d;
  }
  const double spatial_dist = std::sqrt(squared);
  const double predicted = spatial_dist + (config_.use_height ? coord_.height + remote.height : 0.0);

  // Confidence weight: how much of the blame for the prediction error this
  // node takes, based on the two error estimates.
  const double remote_error = std::clamp(remote.error, kErrorFloor, config_.max_error);
  const double local_error = std::clamp(coord_.error, kErrorFloor, config_.max_error);
  const double w = local_error / (local_error + remote_error);

  // Update the moving relative-error estimate.
  const double sample_error = std::abs(predicted - rtt_ms) / rtt_ms;
  coord_.error =
      std::min(config_.max_error,
               sample_error * kVivaldiCe * w + coord_.error * (1.0 - kVivaldiCe * w));

  // Spring force: positive when the prediction is too short (push apart).
  const double delta = cc * w;
  const double force = delta * (rtt_ms - predicted);

  // Move along the direction away from the remote node; the height axis
  // always participates with the combined-height share of the augmented
  // norm (Vivaldi §5.4).
  double move = force;
  if (config_.use_height) {
    const double combined_height = coord_.height + remote.height;
    const double augmented_norm = spatial_dist + combined_height;
    if (augmented_norm > 1e-9) {
      const double spatial_share = spatial_dist / augmented_norm;
      const double height_share = combined_height / augmented_norm;
      move = force * spatial_share;
      coord_.height = std::max(0.0, coord_.height + force * height_share);
    }
  }
  if (spatial_dist > 1e-12) {
    // The unit vector is (position - remote) / spatial_dist, applied in place.
    for (std::size_t i = 0; i < dim; ++i) {
      position[i] += ((position[i] - remote_position[i]) / spatial_dist) * move;
    }
  } else {
    // Coincident points: a deterministic pseudo-random direction.
    coord_.position += coord_.position.unit_vector_from(remote.position, node_id_) * move;
  }
  // A single bad sample (or a degenerate unit vector) must never corrupt the
  // coordinate: every component, the height, and the error stay finite.
  GEORED_DCHECK(coord_.position.is_finite(),
                "Vivaldi update produced a non-finite coordinate");
  GEORED_DCHECK(std::isfinite(coord_.height) && coord_.height >= 0.0,
                "Vivaldi update produced an invalid height");
  GEORED_DCHECK(std::isfinite(coord_.error) && coord_.error >= 0.0,
                "Vivaldi update produced an invalid error estimate");
}

}  // namespace geored::coord
