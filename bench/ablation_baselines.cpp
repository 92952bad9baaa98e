// Ablation A3 — Related-work baselines.
//
// The paper's related-work section discusses the greedy placement of Qiu
// et al. (near-optimal but expensive) and the HotZone cell heuristic of
// Szymaniak et al. (fast but "may not perform adequately" because it
// ignores every client outside the most crowded cells). This harness runs
// both beside the paper's four strategies at the paper's 20-DC / k=3
// operating point and across k.
#include <cstdio>

#include "bench_util.h"
#include "core/evaluation.h"

using namespace geored;

int main() {
  bench::print_header(
      "Ablation: all six placement strategies",
      "226-node topology, 20 data centers, 30 runs per point, RNP coordinates");

  core::Environment env(topo::PlanetLabModelConfig{}, /*topology_seed=*/42,
                        coord::CoordSystem::kRnp, coord::GossipConfig{});
  const std::vector<place::StrategyKind> series{
      place::StrategyKind::kRandom,   place::StrategyKind::kHotZone,
      place::StrategyKind::kGreedy,   place::StrategyKind::kOfflineKMeans,
      place::StrategyKind::kOnlineClustering, place::StrategyKind::kLocalSearch,
      place::StrategyKind::kOptimal};
  bench::print_row_header("num replicas (k)", {"random", "hotzone", "greedy", "offline",
                                               "online", "online+ls", "optimal"});

  double hotzone_at_3 = 0.0, online_at_3 = 0.0, greedy_at_3 = 0.0, optimal_at_3 = 0.0,
         random_at_3 = 0.0, local_search_at_3 = 0.0;
  for (std::size_t k = 1; k <= 5; ++k) {
    core::ExperimentConfig config;
    config.num_datacenters = 20;
    config.k = k;
    config.runs = 30;
    config.strategies = series;
    const auto result = run_experiment(env, config);
    std::vector<double> row;
    for (const auto kind : series) row.push_back(result.mean_of(kind));
    bench::print_row(static_cast<double>(k), row);
    if (k == 3) {
      random_at_3 = result.mean_of(place::StrategyKind::kRandom);
      hotzone_at_3 = result.mean_of(place::StrategyKind::kHotZone);
      greedy_at_3 = result.mean_of(place::StrategyKind::kGreedy);
      online_at_3 = result.mean_of(place::StrategyKind::kOnlineClustering);
      local_search_at_3 = result.mean_of(place::StrategyKind::kLocalSearch);
      optimal_at_3 = result.mean_of(place::StrategyKind::kOptimal);
    }
  }

  std::printf("\npaper-shape checks:\n");
  bench::print_check("greedy (full knowledge) is close to optimal at k=3",
                     greedy_at_3 < 1.25 * optimal_at_3);
  bench::print_check("hotzone beats random but trails online clustering",
                     hotzone_at_3 < random_at_3 && online_at_3 < 1.1 * hotzone_at_3);
  bench::print_check("online clustering is competitive with greedy despite O(km) state",
                     online_at_3 < 1.3 * greedy_at_3);
  bench::print_check("local-search refinement closes most of the gap to optimal",
                     local_search_at_3 <= online_at_3 &&
                         local_search_at_3 < 1.1 * optimal_at_3);
  return 0;
}
