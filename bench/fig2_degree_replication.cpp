// Figure 2 — Impact of the degree of replication.
//
// Paper setup (§IV-C): 20 candidate data centers, k swept from 1 to 7,
// 30 runs per point. Series: random, offline k-means, online clustering,
// optimal.
//
// Expected shape: delay falls with k for everyone, with diminishing returns
// after ~4 replicas; online ~= offline, slightly above optimal, and at
// least ~35% below random.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/evaluation.h"
#include "placement/strategy.h"

using namespace geored;

int main() {
  bench::print_header(
      "Figure 2: average access delay vs degree of replication",
      "226-node PlanetLab-like topology, 20 data centers, 30 runs per point");

  core::Environment env(topo::PlanetLabModelConfig{}, /*topology_seed=*/42,
                        coord::CoordSystem::kRnp, coord::GossipConfig{});
  std::vector<place::StrategyKind> series;
  for (const char* name : {"random", "offline_kmeans", "online", "optimal"}) {
    series.push_back(place::strategy_kind(name));
  }
  bench::print_row_header("num replicas (k)",
                          {"random", "offline k-means", "online", "optimal"});

  std::vector<double> online_by_k, optimal_by_k, random_by_k;
  for (std::size_t k = 1; k <= 7; ++k) {
    core::ExperimentConfig config;
    config.num_datacenters = 20;
    config.k = k;
    config.runs = 30;
    config.strategies = series;
    const auto result = run_experiment(env, config);
    std::vector<double> row;
    for (const auto kind : series) row.push_back(result.mean_of(kind));
    bench::print_row(static_cast<double>(k), row);
    random_by_k.push_back(result.mean_of(place::strategy_kind("random")));
    online_by_k.push_back(result.mean_of(place::strategy_kind("online")));
    optimal_by_k.push_back(result.mean_of(place::strategy_kind("optimal")));
  }

  std::printf("\npaper-shape checks:\n");
  bench::print_check("optimal delay decreases monotonically in k",
                     std::is_sorted(optimal_by_k.rbegin(), optimal_by_k.rend()));
  bench::print_check("online delay decreases from k=1 to k=7",
                     online_by_k.back() < online_by_k.front());
  const double early_gain = optimal_by_k[0] - optimal_by_k[3];   // k 1 -> 4
  const double late_gain = optimal_by_k[3] - optimal_by_k[6];    // k 4 -> 7
  bench::print_check("diminishing returns after ~4 replicas", late_gain < early_gain / 2.0);
  bool online_beats_random = true;
  for (std::size_t i = 1; i < online_by_k.size(); ++i) {  // paper states k>=2 margin
    online_beats_random &= online_by_k[i] < 0.75 * random_by_k[i];
  }
  bench::print_check("online >=25% below random for every k >= 2", online_beats_random);
  bool online_near_optimal = true;
  for (std::size_t i = 0; i < online_by_k.size(); ++i) {
    online_near_optimal &= online_by_k[i] < 1.5 * optimal_by_k[i];
  }
  bench::print_check("online within 1.5x of optimal for every k", online_near_optimal);
  return 0;
}
