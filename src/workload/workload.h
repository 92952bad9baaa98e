// Client access workloads.
//
// A Workload gives every client a (possibly time-varying) access rate.
// Arrivals are sampled per client as individual times by thinning, exact for
// any rate bounded by max_rate: the scenario engine schedules them on the
// simulator, and sample_fleet_arrivals flattens them into one request stream
// for the serving replay. Time profiles (diurnal cycles, flash crowds, lulls)
// layer on top through wl::ModulatedWorkload (workload/modulated.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"

namespace geored::wl {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t client_count() const = 0;

  /// Instantaneous access rate of client `i` at virtual time `time_ms`,
  /// in accesses per millisecond.
  virtual double rate(std::size_t i, double time_ms) const = 0;

  /// An upper bound on rate(i, t) over all t (needed for thinning).
  virtual double max_rate(std::size_t i) const = 0;

  /// Samples individual arrival times of client `i` in [t0, t1) by thinning
  /// (exact for any rate function bounded by max_rate). Sorted ascending.
  std::vector<double> sample_arrival_times(std::size_t i, double t0, double t1,
                                           Rng& rng) const;
};

/// Time-invariant per-client rates.
class StaticWorkload final : public Workload {
 public:
  explicit StaticWorkload(std::vector<double> rates);

  std::size_t client_count() const override { return rates_.size(); }
  double rate(std::size_t i, double time_ms) const override;
  double max_rate(std::size_t i) const override;

 private:
  std::vector<double> rates_;
};

/// Equal mean rate for every client, with multiplicative lognormal spread.
std::unique_ptr<StaticWorkload> make_uniform_workload(std::size_t clients, double mean_rate,
                                                      double lognormal_sigma, std::uint64_t seed);

/// Heavy-tailed client popularity: client rates follow a Zipf law with the
/// given exponent, scaled so they sum to `total_rate`.
std::unique_ptr<StaticWorkload> make_zipf_workload(std::size_t clients, double total_rate,
                                                   double exponent, std::uint64_t seed);

/// One fleet-wide request arrival: which client, and when.
struct Arrival {
  std::size_t client = 0;
  double at_ms = 0.0;
};

/// Samples every client's arrivals over [t0, t1) — one decorrelated fork of
/// `root` per client, so each client's stream is independent of the others
/// and of iteration order — and merges them into a single time-ordered
/// schedule (ties break by client index). This is the request stream the
/// serving data plane replays: the same per-client sampling the scenario
/// engine performs, flattened for callers without a simulator.
std::vector<Arrival> sample_fleet_arrivals(const Workload& workload, double t0, double t1,
                                           const Rng& root);

}  // namespace geored::wl
