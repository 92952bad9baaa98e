// A4 — Microbenchmarks of the algorithmic primitives.
//
// google-benchmark timings for the pieces whose costs the paper's Table II
// reasons about: the summarizer's ingest path, (weighted) k-means,
// micro-cluster serialization, and the exhaustive optimal search.
#include <benchmark/benchmark.h>

#include "cluster/kmeans.h"
#include "cluster/summarizer.h"
#include "common/serialize.h"
#include "placement/evaluate.h"
#include "placement/strategy.h"
#include "topology/planetlab_model.h"

using namespace geored;

namespace {

constexpr std::size_t kDim = 5;

Point random_point(Rng& rng, double span = 200.0) {
  Point p(kDim);
  for (std::size_t d = 0; d < kDim; ++d) p[d] = rng.uniform(-span, span);
  return p;
}

void BM_MicroClusterSerialize(benchmark::State& state) {
  // One cluster's summary frame, as a replica holding a single cluster
  // ships it.
  cluster::SummarizerConfig config;
  config.max_clusters = 1;
  cluster::MicroClusterSummarizer summarizer(config);
  summarizer.add(Point(kDim));
  Rng rng(2);
  for (int i = 0; i < 100; ++i) summarizer.add(random_point(rng));
  for (auto _ : state) {
    ByteWriter writer;
    cluster::write_clusters(writer, summarizer.clusters());
    benchmark::DoNotOptimize(writer);
  }
}
BENCHMARK(BM_MicroClusterSerialize);

void BM_SummarizerAddStream(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  cluster::SummarizerConfig config;
  config.max_clusters = m;
  cluster::MicroClusterSummarizer summarizer(config);
  Rng rng(3);
  for (auto _ : state) {
    summarizer.add(random_point(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SummarizerAddStream)->Arg(4)->Arg(11)->Arg(100);

void BM_WeightedKMeans(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  cluster::WeightedPoints points;
  for (std::size_t i = 0; i < n; ++i) {
    points.positions.push_back(random_point(rng));
    points.weights.push_back(rng.uniform(1.0, 100.0));
  }
  cluster::KMeansConfig config;
  config.k = 3;
  for (auto _ : state) {
    Rng kmeans_rng(42);
    benchmark::DoNotOptimize(cluster::weighted_kmeans(points, config, kmeans_rng));
  }
}
BENCHMARK(BM_WeightedKMeans)->Arg(12)->Arg(300)->Arg(3000);

/// End-to-end cost of each placement strategy on the paper's operating
/// point (20 DCs, ~200 clients, k=3).
void BM_PlacementStrategy(benchmark::State& state) {
  topo::PlanetLabModelConfig topo_config;
  static const auto topology = topo::generate_planetlab_like(topo_config, 42);
  Rng rng(5);

  place::PlacementInput input;
  input.k = 3;
  input.seed = 42;
  input.topology = &topology;
  const auto dc_idx = rng.sample_without_replacement(topology.size(), 20);
  std::vector<bool> is_dc(topology.size(), false);
  for (const auto idx : dc_idx) {
    is_dc[idx] = true;
    input.candidates.push_back({static_cast<topo::NodeId>(idx), random_point(rng),
                                std::numeric_limits<double>::infinity()});
  }
  cluster::SummarizerConfig summarizer_config;
  summarizer_config.max_clusters = 4;
  cluster::MicroClusterSummarizer summarizer(summarizer_config);
  for (std::size_t i = 0; i < topology.size(); ++i) {
    if (is_dc[i]) continue;
    place::ClientRecord record;
    record.client = static_cast<topo::NodeId>(i);
    record.coords = random_point(rng);
    record.access_count = 1 + rng.below(100);
    input.clients.push_back(record);
    summarizer.add(input.clients.back().coords);
  }
  input.summaries.append(summarizer.clusters());

  const auto strategy = place::make_strategy(static_cast<place::StrategyKind>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->place(input));
  }
  state.SetLabel(strategy->name());
}
BENCHMARK(BM_PlacementStrategy)
    ->Arg(static_cast<int>(place::StrategyKind::kRandom))
    ->Arg(static_cast<int>(place::StrategyKind::kOfflineKMeans))
    ->Arg(static_cast<int>(place::StrategyKind::kOnlineClustering))
    ->Arg(static_cast<int>(place::StrategyKind::kOptimal))
    ->Arg(static_cast<int>(place::StrategyKind::kGreedy))
    ->Arg(static_cast<int>(place::StrategyKind::kHotZone));

/// Exhaustive search cost growth in k — why "optimal" is impractical.
void BM_OptimalSearchByK(benchmark::State& state) {
  topo::PlanetLabModelConfig topo_config;
  topo_config.node_count = 120;
  static const auto topology = topo::generate_planetlab_like(topo_config, 43);
  Rng rng(6);
  place::PlacementInput input;
  input.k = static_cast<std::size_t>(state.range(0));
  input.seed = 42;
  input.topology = &topology;
  const auto dc_idx = rng.sample_without_replacement(topology.size(), 20);
  std::vector<bool> is_dc(topology.size(), false);
  for (const auto idx : dc_idx) {
    is_dc[idx] = true;
    input.candidates.push_back({static_cast<topo::NodeId>(idx), random_point(rng),
                                std::numeric_limits<double>::infinity()});
  }
  for (std::size_t i = 0; i < topology.size(); ++i) {
    if (is_dc[i]) continue;
    place::ClientRecord record;
    record.client = static_cast<topo::NodeId>(i);
    record.coords = random_point(rng);
    record.access_count = 10;
    input.clients.push_back(record);
  }
  const auto strategy = place::make_strategy(place::StrategyKind::kOptimal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->place(input));
  }
}
BENCHMARK(BM_OptimalSearchByK)->DenseRange(1, 6);

}  // namespace

BENCHMARK_MAIN();
