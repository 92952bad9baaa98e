#include "workload/workload.h"

#include <algorithm>
#include <cmath>

#include "common/ensure.h"

namespace geored::wl {

std::vector<double> Workload::sample_arrival_times(std::size_t i, double t0, double t1,
                                                   Rng& rng) const {
  GEORED_ENSURE(t1 >= t0, "interval must be ordered");
  std::vector<double> arrivals;
  const double bound = max_rate(i);
  if (bound <= 0.0) return arrivals;
  double t = t0;
  while (true) {
    t += rng.exponential(bound);
    if (t >= t1) break;
    // Thinning: accept with probability rate(t)/bound.
    if (rng.uniform() * bound < rate(i, t)) arrivals.push_back(t);
  }
  return arrivals;
}

StaticWorkload::StaticWorkload(std::vector<double> rates) : rates_(std::move(rates)) {
  GEORED_ENSURE(!rates_.empty(), "workload needs at least one client");
  for (double r : rates_) GEORED_ENSURE(r >= 0.0, "rates must be non-negative");
}

double StaticWorkload::rate(std::size_t i, double) const { return rates_.at(i); }
double StaticWorkload::max_rate(std::size_t i) const { return rates_.at(i); }

std::unique_ptr<StaticWorkload> make_uniform_workload(std::size_t clients, double mean_rate,
                                                      double lognormal_sigma,
                                                      std::uint64_t seed) {
  GEORED_ENSURE(clients >= 1, "workload needs at least one client");
  GEORED_ENSURE(mean_rate >= 0.0, "mean_rate must be non-negative");
  GEORED_ENSURE(lognormal_sigma >= 0.0, "lognormal_sigma must be non-negative");
  Rng rng(seed);
  std::vector<double> rates(clients);
  // exp(N(0, sigma) - sigma^2/2) has mean 1, so the population mean is kept.
  const double mu_correction = -0.5 * lognormal_sigma * lognormal_sigma;
  for (auto& r : rates) {
    r = mean_rate * std::exp(rng.normal(mu_correction, lognormal_sigma));
  }
  return std::make_unique<StaticWorkload>(std::move(rates));
}

std::unique_ptr<StaticWorkload> make_zipf_workload(std::size_t clients, double total_rate,
                                                   double exponent, std::uint64_t seed) {
  GEORED_ENSURE(clients >= 1, "workload needs at least one client");
  GEORED_ENSURE(total_rate >= 0.0, "total_rate must be non-negative");
  GEORED_ENSURE(exponent >= 0.0, "zipf exponent must be non-negative");
  // Assign Zipf ranks to clients in a seeded random order, so the popular
  // clients are not always the low node ids.
  Rng rng(seed);
  const auto order = rng.permutation(clients);
  std::vector<double> rates(clients);
  double norm = 0.0;
  for (std::size_t rank = 0; rank < clients; ++rank) {
    norm += 1.0 / std::pow(static_cast<double>(rank + 1), exponent);
  }
  for (std::size_t rank = 0; rank < clients; ++rank) {
    rates[order[rank]] =
        total_rate / std::pow(static_cast<double>(rank + 1), exponent) / norm;
  }
  return std::make_unique<StaticWorkload>(std::move(rates));
}

std::vector<Arrival> sample_fleet_arrivals(const Workload& workload, double t0, double t1,
                                           const Rng& root) {
  std::vector<Arrival> schedule;
  const std::size_t clients = workload.client_count();
  for (std::size_t c = 0; c < clients; ++c) {
    Rng rng = root.fork(c);
    for (const double at : workload.sample_arrival_times(c, t0, t1, rng)) {
      schedule.push_back({c, at});
    }
  }
  std::sort(schedule.begin(), schedule.end(), [](const Arrival& a, const Arrival& b) {
    return a.at_ms != b.at_ms ? a.at_ms < b.at_ms : a.client < b.client;
  });
  return schedule;
}

}  // namespace geored::wl
