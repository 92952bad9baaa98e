// Ablation A13 — coordinate-space dimensionality.
//
// The paper inherits RNP's coordinate space without discussing its
// dimension. Vivaldi's authors report that a handful of dimensions capture
// internet latencies and more add little; this harness sweeps the dimension
// for both Vivaldi and RNP, reporting prediction error and the end effect
// on online-clustering placement quality.
#include <cstdio>

#include <limits>

#include "bench_util.h"
#include "common/random.h"
#include "core/evaluation.h"
#include "placement/evaluate.h"

using namespace geored;

int main() {
  bench::print_header(
      "Ablation: coordinate dimensionality",
      "226-node topology, 20 DCs, k=3, 30 runs; RNP embeddings of 2..8 dimensions");

  std::printf("%-6s %16s %16s %14s %14s\n", "dims", "rnp abs p50", "rnp rel p50", "online",
              "optimal");

  double err_2d = 0.0, err_5d = 0.0, err_8d = 0.0;
  double online_2d = 0.0, online_5d = 0.0;
  for (const std::size_t dims : {2ul, 3ul, 5ul, 8ul}) {
    // Environment with a dimension-adjusted RNP embedding.
    topo::PlanetLabModelConfig topo_config;
    const auto topology = topo::generate_planetlab_like(topo_config, 42);
    coord::RnpConfig rnp_config;
    rnp_config.vivaldi.dimensions = dims;
    const auto coords =
        coord::run_rnp(topology, rnp_config, coord::GossipConfig{}, 7);
    const auto quality = coord::evaluate_embedding(topology, coords);

    // Reuse the experiment protocol by hand with these coordinates.
    OnlineStats online_delay, optimal_delay;
    for (std::uint64_t run = 0; run < 30; ++run) {
      Rng rng(1000 + run);
      const auto candidate_idx = rng.sample_without_replacement(topology.size(), 20);
      std::vector<bool> is_candidate(topology.size(), false);
      place::PlacementInput input;
      input.k = 3;
      input.seed = 1000 + run;
      input.topology = &topology;
      for (const auto idx : candidate_idx) {
        is_candidate[idx] = true;
        input.candidates.push_back({static_cast<topo::NodeId>(idx), coords[idx].position,
                                    std::numeric_limits<double>::infinity()});
      }
      // One summarizer stands in for the k=3 replicas' summaries, so it
      // gets their combined budget (3 * m = 12 micro-clusters).
      cluster::SummarizerConfig summarizer_config;
      summarizer_config.max_clusters = 12;
      cluster::MicroClusterSummarizer summarizer(summarizer_config);
      for (std::size_t i = 0; i < topology.size(); ++i) {
        if (is_candidate[i]) continue;
        place::ClientRecord record;
        record.client = static_cast<topo::NodeId>(i);
        record.coords = coords[i].position;
        record.access_count = 1 + rng.below(100);
        input.clients.push_back(record);
        for (std::uint64_t a = 0; a < input.clients.back().access_count; ++a) {
          summarizer.add(record.coords);
        }
      }
      input.summaries.append(summarizer.clusters());
      online_delay.add(place::true_average_delay(
          topology,
          place::make_strategy(place::StrategyKind::kOnlineClustering)->place(input),
          input.clients));
      optimal_delay.add(place::true_average_delay(
          topology, place::make_strategy(place::StrategyKind::kOptimal)->place(input),
          input.clients));
    }
    std::printf("%-6zu %13.2fms %15.1f%% %12.2fms %12.2fms\n", dims,
                quality.absolute_error_ms.p50, 100.0 * quality.relative_error.p50,
                online_delay.mean(), optimal_delay.mean());
    if (dims == 2) {
      err_2d = quality.absolute_error_ms.p50;
      online_2d = online_delay.mean();
    }
    if (dims == 5) {
      err_5d = quality.absolute_error_ms.p50;
      online_5d = online_delay.mean();
    }
    if (dims == 8) err_8d = quality.absolute_error_ms.p50;
  }

  std::printf("\npaper-shape checks:\n");
  bench::print_check("going from 2 to 5 dimensions improves prediction", err_5d < err_2d);
  bench::print_check("beyond 5 dimensions the gain is marginal (<20%)",
                     err_8d > 0.8 * err_5d);
  bench::print_check("better embeddings do not hurt placement", online_5d <= online_2d * 1.05);
  return 0;
}
