// Vivaldi (Dabek et al., SIGCOMM'04): a decentralized spring-relaxation
// network coordinate system. Each node adjusts its own coordinate after every
// RTT sample to a peer, weighting the adjustment by the relative confidence
// of the two nodes. Implemented with the height-vector extension.
#pragma once

#include <cstdint>

#include "netcoord/coordinate.h"

namespace geored::coord {

/// Error-estimate smoothing gain.
inline constexpr double kVivaldiCe = 0.25;
/// Coordinate adjustment gain.
inline constexpr double kVivaldiCc = 0.25;
/// A new node's error estimate.
inline constexpr double kVivaldiInitialError = 1.0;
/// A new node's height (ms) under the height model. Positive: height
/// updates are proportional to the current combined height, so a node
/// starting at exactly zero could never acquire one.
inline constexpr double kVivaldiInitialHeight = 1.0;

struct VivaldiConfig {
  std::size_t dimensions = 5;
  /// Model access links as a height component (Vivaldi §5.4). Helps when
  /// per-node access delay dominates prediction error (DSL-heavy client
  /// populations); on WAN matrices whose error is mostly multiplicative
  /// path inflation the heights soak up that noise instead and *hurt*
  /// accuracy, so the model is opt-in.
  bool use_height = false;
  double max_error = 1.5;   ///< error estimates are clamped to this ceiling
};

/// The per-node state machine of the Vivaldi protocol.
class VivaldiNode {
 public:
  VivaldiNode(const VivaldiConfig& config, std::uint32_t node_id);

  /// Processes one RTT measurement against a peer whose current coordinate is
  /// `remote`. Updates this node's coordinate and error estimate.
  /// `rtt_ms` must be positive; non-positive samples are ignored. `remote`
  /// must have this node's dimensionality (std::invalid_argument otherwise,
  /// with the node unchanged).
  void observe(const NetworkCoordinate& remote, double rtt_ms);

  const NetworkCoordinate& coordinate() const { return coord_; }

  /// Number of samples consumed so far.
  std::uint64_t samples() const { return samples_; }

 protected:
  /// Core spring-relaxation step with coordinate gain `cc`, shared with the
  /// RNP bootstrap phase (which damps the gain). Allocation-free except when
  /// the two positions coincide. `remote` must have this node's
  /// dimensionality (checked by the observe() callers).
  void vivaldi_step(const NetworkCoordinate& remote, double rtt_ms, double cc);

  VivaldiConfig config_;
  NetworkCoordinate coord_;
  std::uint32_t node_id_;
  std::uint64_t samples_ = 0;
};

}  // namespace geored::coord
