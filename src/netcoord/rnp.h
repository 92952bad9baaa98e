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
// construction. A refit copies it, oldest sample first, into scratch taken
// from the calling thread's epoch arena, and evaluates each descent step in
// one fused SIMD pass (simd::rnp_refit_pass). Construction sizes the
// constructing thread's arena for that scratch, so a node observed on the
// thread that built it never allocates; another thread's arena grows once,
// to the largest refit that thread runs (docs/performance.md, "Coordinate
// embedding").
#pragma once

#include <cstdint>
#include <vector>

#include "common/point_set.h"
#include "common/point_set_simd.h"
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

/// Read-only view of an RNP sample window: a ring of `capacity` slots whose
/// first `size` are filled. Until the ring first wraps (size < capacity)
/// slot 0 holds the oldest sample; after that the oldest sits at `next`,
/// the slot the next sample overwrites. Slot s holds the peer position
/// positions[s * dim .. s * dim + dim), and element s of `heights`,
/// `errors` and `rtts`. decay_by_age[a] is recency_decay^a for every age
/// a < capacity.
struct RnpWindow {
  const double* positions = nullptr;
  const double* heights = nullptr;
  const double* errors = nullptr;
  const double* rtts = nullptr;
  const double* decay_by_age = nullptr;
  std::size_t dim = 0;
  std::size_t size = 0;
  std::size_t capacity = 0;
  std::size_t next = 0;
};

/// RNP's retrospective refit: re-fits `coord` (position, height and error
/// estimate) against every sample of `window` by reliability- and
/// recency-weighted gradient descent on the relative prediction error, as
/// configured by `config`. Each descent step is one simd::rnp_refit_pass at
/// `level`; the result is bit-identical at every level. Requires
/// window.size >= 1 and coord of the window's dimension.
void rnp_refit(const RnpConfig& config, const RnpWindow& window, NetworkCoordinate& coord,
               simd::Level level);

/// Per-node state machine of the retrospective positioning protocol.
class RnpNode : public VivaldiNode {
 public:
  RnpNode(const RnpConfig& config, std::uint32_t node_id);

  /// Records the sample, applies an online Vivaldi step, and every
  /// `refit_every` observations re-fits the coordinate against the window.
  /// `remote` must have this node's dimensionality.
  void observe(const NetworkCoordinate& remote, double rtt_ms);

 private:
  RnpWindow window() const;

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
};

}  // namespace geored::coord
