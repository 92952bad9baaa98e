// Ablation A1 — How much does the coordinate system matter?
//
// The paper builds on RNP and cites its accuracy edge over Vivaldi as an
// enabler. This harness quantifies that edge on the same topology, both as
// raw prediction error and as the end effect on placement quality for the
// coordinate-consuming strategies (online clustering and offline k-means).
// The optimal oracle — which reads true RTTs — is printed as the
// coordinate-free reference.
#include <cstdio>

#include "bench_util.h"
#include "core/evaluation.h"

using namespace geored;

int main() {
  bench::print_header(
      "Ablation: coordinate system vs placement quality",
      "226-node topology, 20 data centers, k=3, 30 runs; RNP vs Vivaldi vs GNP");

  std::printf("%-10s %14s %14s %14s %14s %14s\n", "coords", "abs-err p50", "rel-err p50",
              "online", "offline", "optimal");

  double rnp_err = 0.0, vivaldi_err = 0.0;
  double rnp_online = 0.0, vivaldi_online = 0.0;
  for (const auto system :
       {coord::CoordSystem::kRnp, coord::CoordSystem::kVivaldi, coord::CoordSystem::kGnp}) {
    core::Environment env(topo::PlanetLabModelConfig{}, /*topology_seed=*/42, system,
                          coord::GossipConfig{});
    const auto quality = env.embedding_quality();
    core::ExperimentConfig config;
    config.num_datacenters = 20;
    config.k = 3;
    config.runs = 30;
    const auto result = run_experiment(env, config);
    std::printf("%-10s %11.2fms %13.1f%% %12.2fms %12.2fms %12.2fms\n",
                coord::coord_system_name(system).c_str(), quality.absolute_error_ms.p50,
                100.0 * quality.relative_error.p50,
                result.mean_of(place::StrategyKind::kOnlineClustering),
                result.mean_of(place::StrategyKind::kOfflineKMeans),
                result.mean_of(place::StrategyKind::kOptimal));
    if (system == coord::CoordSystem::kRnp) {
      rnp_err = quality.absolute_error_ms.p50;
      rnp_online = result.mean_of(place::StrategyKind::kOnlineClustering);
    }
    if (system == coord::CoordSystem::kVivaldi) {
      vivaldi_err = quality.absolute_error_ms.p50;
      vivaldi_online = result.mean_of(place::StrategyKind::kOnlineClustering);
    }
  }

  std::printf("\npaper-shape checks:\n");
  bench::print_check("RNP predicts RTTs more accurately than Vivaldi",
                     rnp_err < vivaldi_err);
  bench::print_check("RNP median error under 10 ms (paper's reported regime)",
                     rnp_err < 10.0);
  bench::print_check("better coordinates give equal-or-better online placement",
                     rnp_online <= vivaldi_online * 1.02);
  return 0;
}
