// RNP-style Retrospective Network Positioning.
//
// The paper assigns coordinates with RNP (Ping, McConnell & Hwang,
// GridPeer'09), the authors' improvement over Vivaldi. RNP's public
// description: it keeps past measurements and "consumes information
// differently according to the reliability of the information", yielding
// better prediction accuracy and coordinate stability than Vivaldi's
// single-sample updates.
//
// This implementation reconstructs that mechanism: every node retains a
// sliding window of recent samples (peer coordinate, RTT, peer reliability)
// and periodically *re-fits* its own coordinate against the whole window via
// reliability- and recency-weighted gradient descent on the relative
// prediction error. Between refits it applies plain Vivaldi steps so the
// system bootstraps as quickly as Vivaldi does. DESIGN.md documents this as
// a substitution for the (unavailable) original RNP code.
//
// The window is a fixed-capacity ring of flat arrays sized once at
// construction, and the refit runs on member scratch buffers, so a node
// never allocates after it is built (docs/performance.md, "Coordinate
// embedding").
#pragma once

#include <cstdint>
#include <vector>

#include "common/point_set.h"
#include "netcoord/vivaldi.h"

namespace geored::coord {

struct RnpConfig {
  VivaldiConfig vivaldi;          ///< bootstrap / online update parameters
  std::size_t window_size = 64;   ///< retained samples per node
  std::size_t refit_every = 16;   ///< observations between retrospective refits
  std::size_t descent_steps = 25; ///< gradient steps per refit
  double learning_rate = 0.05;    ///< initial step size (fraction of avg RTT)
  double recency_decay = 0.97;    ///< weight multiplier per sample of age
};

/// Per-node state machine of the retrospective positioning protocol.
class RnpNode : public VivaldiNode {
 public:
  RnpNode(const RnpConfig& config, std::uint32_t node_id);

  /// Records the sample, applies an online Vivaldi step, and every
  /// `refit_every` observations re-fits the coordinate against the window.
  /// `remote` must have this node's dimensionality.
  void observe(const NetworkCoordinate& remote, double rtt_ms);

  /// True when the next observation of a positive RTT re-fits the
  /// coordinate. The gossip driver spreads the rounds in which nodes refit
  /// across the thread pool.
  bool refit_due() const;

 private:
  void refit();

  /// Weighted mean squared relative error of predicting the window from
  /// (`position`, `height`), given the sum of `weight_`. Leaves each
  /// sample's spatial distance to `position` in `distance_` for the next
  /// gradient step to reuse.
  double objective(const double* position, double height, double weight_sum);

  /// Calls fn(slot, age) for every retained sample, oldest first — the
  /// order every sum over the window runs in.
  template <typename Fn>
  void for_each_sample(Fn&& fn) const;

  RnpConfig rnp_config_;
  std::uint64_t observation_count_ = 0;

  // Sample window: a ring of up to `window_size` slots, the next write at
  // `window_next_`. Row s of `window_positions_` (one row per filled slot)
  // and element s of the other arrays describe the sample in slot s.
  PointSet window_positions_;
  std::vector<double> window_heights_;
  std::vector<double> window_errors_;
  std::vector<double> window_rtts_;
  std::size_t window_next_ = 0;

  /// recency_decay^age for every age the window can hold.
  std::vector<double> decay_by_age_;

  // Refit scratch; `weight_` and `distance_` are indexed by slot.
  std::vector<double> weight_;
  std::vector<double> distance_;
  std::vector<double> position_;
  std::vector<double> best_position_;
  std::vector<double> gradient_;
};

}  // namespace geored::coord
