// Figure 3 — Impact of the number of micro-clusters per replica.
//
// Paper setup (§IV-D): 20 data centers, k swept 1..7, one series per
// micro-cluster budget m in {1, 2, 4, 7, 11}; only the online clustering
// strategy is involved.
//
// Expected shape: more micro-clusters summarize the user population at
// finer granularity and reduce delay; the curve is nearly saturated by
// m ~= 4 (the paper: "average access delay was nearly minimized when 4
// micro-clusters are maintained").
#include <cstdio>

#include "bench_util.h"
#include "core/evaluation.h"
#include "placement/strategy.h"

using namespace geored;

int main() {
  bench::print_header(
      "Figure 3: average access delay vs number of micro-clusters",
      "226-node PlanetLab-like topology, 20 data centers, online clustering, 30 runs");

  core::Environment env(topo::PlanetLabModelConfig{}, /*topology_seed=*/42,
                        coord::CoordSystem::kRnp, coord::GossipConfig{});
  const std::vector<std::size_t> micro_budgets{1, 2, 4, 7, 11};
  std::vector<std::string> series_names;
  for (const auto m : micro_budgets) {
    series_names.push_back(std::to_string(m) + " micro");
  }
  bench::print_row_header("num replicas (k)", series_names);

  // delay[m-index][k-index]
  std::vector<std::vector<double>> delay(micro_budgets.size());
  for (std::size_t k = 1; k <= 7; ++k) {
    std::vector<double> row;
    for (std::size_t mi = 0; mi < micro_budgets.size(); ++mi) {
      core::ExperimentConfig config;
      config.num_datacenters = 20;
      config.k = k;
      config.micro_clusters = micro_budgets[mi];
      config.runs = 30;
      config.strategies = {place::strategy_kind("online")};
      const auto result = run_experiment(env, config);
      const double mean = result.mean_of(place::strategy_kind("online"));
      row.push_back(mean);
      delay[mi].push_back(mean);
    }
    bench::print_row(static_cast<double>(k), row);
  }

  // Aggregate each series over k for the shape checks.
  std::vector<double> mean_by_m(micro_budgets.size(), 0.0);
  for (std::size_t mi = 0; mi < micro_budgets.size(); ++mi) {
    for (const double d : delay[mi]) mean_by_m[mi] += d;
    mean_by_m[mi] /= static_cast<double>(delay[mi].size());
  }
  std::printf("\nmean over k per budget:");
  for (std::size_t mi = 0; mi < micro_budgets.size(); ++mi) {
    std::printf("  m=%zu: %.2f", micro_budgets[mi], mean_by_m[mi]);
  }
  std::printf("\n\npaper-shape checks:\n");
  bench::print_check("m=1 is visibly worse than m=4", mean_by_m[0] > 1.05 * mean_by_m[2]);
  bench::print_check("m=4 nearly saturates (within 5% of m=11)",
                     mean_by_m[2] < 1.05 * mean_by_m[4]);
  bench::print_check("quality never degrades much beyond m=4",
                     mean_by_m[3] < 1.05 * mean_by_m[2] && mean_by_m[4] < 1.05 * mean_by_m[2]);
  return 0;
}
