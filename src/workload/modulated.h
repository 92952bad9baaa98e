// Time-profile modulation over any base workload.
//
// The scenario engine expresses demand dynamics — diurnal cycles, flash
// crowds, regional lulls — as declarative rate profiles. ModulatedWorkload
// is the execution form: a decorator that multiplies the base rate of each
// client by the product of every profile that covers it at that instant.
// Because rate() stays an exact closed form and max_rate() stays a true
// upper bound (the product of per-profile maxima), thinning — which accepts
// with probability rate/bound — samples the modulated rate exactly. Nothing
// about the base workload is assumed beyond the Workload interface, so
// profiles stack over static, Zipf, or already-modulated bases.
#pragma once

#include <memory>
#include <vector>

#include "workload/workload.h"

namespace geored::wl {

/// One multiplicative lane of rate modulation applied to a subset of
/// clients. Profiles are closed under composition: the workload multiplies
/// the lanes, so one client may sit under a diurnal envelope and a flash
/// crowd at once.
struct RateProfile {
  enum class Kind {
    kStep,     ///< factor applied during [start_ms, end_ms), 1 outside
    kDiurnal,  ///< sinusoid envelope in [floor_fraction, 1] of period_ms
  };

  Kind kind = Kind::kStep;

  /// Clients the profile covers; empty means every client. Sized to the
  /// base workload's client count otherwise.
  std::vector<bool> affected;

  // kStep: the window and its multiplier (> 0; < 1 models a lull).
  double start_ms = 0.0;
  double end_ms = 0.0;
  double factor = 1.0;

  // kDiurnal: envelope max(floor_fraction, 0.5*(1+cos(2pi*(t/T - phase)))),
  // peaking when t/T mod 1 == phase.
  double period_ms = 86'400'000.0;
  double phase = 0.0;              ///< in [0,1), fraction of the period
  double floor_fraction = 0.1;     ///< in [0,1]

  /// The profile's multiplier for client `i` at `time_ms` (1 when the
  /// client is not covered).
  double multiplier(std::size_t i, double time_ms) const;

  /// Least upper bound of multiplier(i, t) over all t.
  double max_multiplier(std::size_t i) const;
};

/// Applies a stack of RateProfiles to a base workload:
///   rate(i, t) = base.rate(i, t) * prod_p p.multiplier(i, t).
class ModulatedWorkload final : public Workload {
 public:
  /// Validates every profile (ordered windows, positive factors/periods,
  /// affected mask sized to the base population when present).
  ModulatedWorkload(std::unique_ptr<Workload> base, std::vector<RateProfile> profiles);

  std::size_t client_count() const override { return base_->client_count(); }
  double rate(std::size_t i, double time_ms) const override;
  double max_rate(std::size_t i) const override;

  const std::vector<RateProfile>& profiles() const { return profiles_; }

 private:
  std::unique_ptr<Workload> base_;
  std::vector<RateProfile> profiles_;
  /// Product of per-profile maxima per client, precomputed so thinning's
  /// bound lookup stays O(1).
  std::vector<double> max_multiplier_;
};

}  // namespace geored::wl
