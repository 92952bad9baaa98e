// Ablation A8 — coordinate stability (the paper's second claim for RNP).
//
// "RNP ... improves both the network latency prediction accuracy and
// coordinate stability over Vivaldi." Accuracy is covered by
// ablation_netcoord; this harness measures stability: the mean per-node
// coordinate displacement per gossip round after warmup. Unstable
// coordinates churn everything downstream (summaries drift, placements
// flap), so the paper treats stability as a first-class property.
#include <cstdio>

#include "bench_util.h"
#include "netcoord/stability.h"
#include "topology/planetlab_model.h"

using namespace geored;

int main() {
  bench::print_header(
      "Ablation: coordinate stability — Vivaldi vs RNP",
      "226-node topology; drift = mean per-node displacement per round after warmup");

  const auto topology = topo::generate_planetlab_like(topo::PlanetLabModelConfig{}, 42);

  std::printf("%-10s %12s %14s %14s %16s\n", "protocol", "rounds", "drift mean",
              "drift p90", "final abs p50");
  double vivaldi_drift = 0.0, rnp_drift = 0.0;
  double vivaldi_error = 0.0, rnp_error = 0.0;
  for (const std::size_t rounds : {128ul, 256ul, 512ul}) {
    for (const auto system : {coord::CoordSystem::kVivaldi, coord::CoordSystem::kRnp}) {
      coord::StabilityConfig config;
      config.gossip.rounds = rounds;
      config.warmup_rounds = rounds / 2;
      const auto report = coord::measure_stability(topology, system, config, 7);
      std::printf("%-10s %12zu %12.3fms %12.3fms %14.2fms\n",
                  coord::coord_system_name(system).c_str(), rounds,
                  report.displacement_per_round_ms.mean,
                  report.displacement_per_round_ms.p90, report.final_abs_error_p50_ms);
      if (rounds == 256) {
        if (system == coord::CoordSystem::kVivaldi) {
          vivaldi_drift = report.displacement_per_round_ms.mean;
          vivaldi_error = report.final_abs_error_p50_ms;
        } else {
          rnp_drift = report.displacement_per_round_ms.mean;
          rnp_error = report.final_abs_error_p50_ms;
        }
      }
    }
  }

  std::printf("\npaper-shape checks:\n");
  bench::print_check("RNP coordinates drift less than Vivaldi's", rnp_drift < vivaldi_drift);
  bench::print_check("RNP stability does not cost accuracy", rnp_error <= vivaldi_error);
  return 0;
}
