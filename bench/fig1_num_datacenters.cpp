// Figure 1 — Impact of the number of available data centers.
//
// Paper setup (§IV-B): 226 nodes, degree of replication k = 3, the number
// of candidate data centers swept; results averaged over 30 runs with
// different candidate sets. Series: random, offline k-means, online
// clustering (the paper's technique), optimal.
//
// Expected shape: all informed strategies improve as more candidate
// locations become available, random does not; online ~= offline ~= optimal.
#include <cstdio>

#include "bench_util.h"
#include "core/evaluation.h"
#include "placement/strategy.h"

using namespace geored;

int main() {
  bench::print_header(
      "Figure 1: average access delay vs number of data centers",
      "226-node PlanetLab-like topology, k=3, 30 runs per point, RNP coordinates");

  core::Environment env(topo::PlanetLabModelConfig{}, /*topology_seed=*/42,
                        coord::CoordSystem::kRnp, coord::GossipConfig{});
  const auto quality = env.embedding_quality();
  std::printf("embedding: median abs err %.1f ms, median rel err %.1f%%\n\n",
              quality.absolute_error_ms.p50, 100.0 * quality.relative_error.p50);

  std::vector<place::StrategyKind> series;
  for (const char* name : {"random", "offline_kmeans", "online", "optimal"}) {
    series.push_back(place::strategy_kind(name));
  }
  bench::print_row_header("num data centers",
                          {"random", "offline k-means", "online", "optimal"});

  double first_online = 0.0, last_online = 0.0;
  double first_optimal = 0.0, last_optimal = 0.0;
  double random_at_20 = 0.0, online_at_20 = 0.0, optimal_at_20 = 0.0;
  const std::vector<std::size_t> dc_counts{5, 8, 11, 14, 17, 20, 23, 26, 30};
  for (const std::size_t dcs : dc_counts) {
    core::ExperimentConfig config;
    config.num_datacenters = dcs;
    config.k = 3;
    config.runs = 30;
    config.strategies = series;
    const auto result = run_experiment(env, config);
    std::vector<double> row;
    for (const auto kind : series) row.push_back(result.mean_of(kind));
    bench::print_row(static_cast<double>(dcs), row);

    const double online = result.mean_of(place::strategy_kind("online"));
    const double optimal = result.mean_of(place::strategy_kind("optimal"));
    if (dcs == dc_counts.front()) {
      first_online = online;
      first_optimal = optimal;
    }
    if (dcs == dc_counts.back()) {
      last_online = online;
      last_optimal = optimal;
    }
    if (dcs == 20) {
      random_at_20 = result.mean_of(place::strategy_kind("random"));
      online_at_20 = online;
      optimal_at_20 = optimal;
    }
  }

  std::printf("\npaper-shape checks:\n");
  bench::print_check("online clustering improves with more data centers",
                     last_online < first_online);
  bench::print_check("optimal improves with more data centers", last_optimal < first_optimal);
  bench::print_check("online clustering near optimal at 20 DCs (within 35%)",
                     online_at_20 < 1.35 * optimal_at_20);
  bench::print_check("online clustering >=25% below random at 20 DCs",
                     online_at_20 < 0.75 * random_at_20);
  return 0;
}
