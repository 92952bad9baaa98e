// Table II — Overhead comparison between online and offline clustering.
//
//                    online                offline
//   bandwidth        O(km)                 O(n)
//   computation      O((km)^k log(km))     O(n^k log n)
//
// Measured concretely here:
//   * bandwidth  — bytes that must reach the central server per placement:
//     per replica, one centroid frame of m micro-clusters every epoch and
//     the moment frame completing it when the epoch adopts a placement
//     (online, the two phases of cluster/summary_frame.h), vs n serialized
//     client coordinate records (offline), for growing access counts n;
//   * computation — google-benchmark timings of the macro-clustering step
//     on k*m pseudo-points (online) vs k-means over all n client
//     coordinates (offline), plus the per-access summarizer cost that the
//     online approach pays at the replicas.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "cluster/kmeans.h"
#include "cluster/summarizer.h"
#include "common/random.h"
#include "common/serialize.h"

using namespace geored;

namespace {

constexpr std::size_t kDim = 5;
constexpr std::size_t kReplicas = 3;  // the paper's k

Point random_point(Rng& rng) {
  Point p(kDim);
  for (std::size_t d = 0; d < kDim; ++d) p[d] = rng.uniform(-200.0, 200.0);
  return p;
}

/// Micro-clusters a replica would hold after summarizing `accesses` hits.
cluster::ClusterBuffer build_summary(std::size_t m, std::size_t accesses, std::uint64_t seed) {
  cluster::SummarizerConfig config;
  config.max_clusters = m;
  cluster::MicroClusterSummarizer summarizer(config);
  Rng rng(seed);
  for (std::size_t i = 0; i < accesses; ++i) summarizer.add(random_point(rng));
  return cluster::ClusterBuffer(summarizer.clusters());
}

void BM_OnlineMacroClustering(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  // k replicas, each shipping m micro-clusters built from 10k accesses.
  cluster::WeightedPoints pseudo_points;
  for (std::size_t r = 0; r < kReplicas; ++r) {
    const cluster::ClusterBuffer summary = build_summary(m, 10000, r + 1);
    for (std::size_t i = 0; i < summary.size(); ++i) {
      pseudo_points.positions.push_back_row(summary.centroid(i), summary.dim());
      pseudo_points.weights.push_back(static_cast<double>(summary.count(i)));
    }
  }
  cluster::KMeansConfig config;
  config.k = kReplicas;
  for (auto _ : state) {
    Rng rng(42);
    benchmark::DoNotOptimize(cluster::weighted_kmeans(pseudo_points, config, rng));
  }
  state.SetLabel("k*m = " + std::to_string(pseudo_points.weights.size()) + " pseudo-points");
}
BENCHMARK(BM_OnlineMacroClustering)->Arg(4)->Arg(25)->Arg(100);

void BM_OfflineKMeans(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  cluster::WeightedPoints points;
  points.positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) points.positions.push_back(random_point(rng));
  points.weights.assign(n, 1.0);
  cluster::KMeansConfig config;
  config.k = kReplicas;
  for (auto _ : state) {
    Rng kmeans_rng(42);
    benchmark::DoNotOptimize(cluster::weighted_kmeans(points, config, kmeans_rng));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OfflineKMeans)->Arg(1000)->Arg(10000)->Arg(100000)->Complexity();

void BM_SummarizerPerAccess(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  cluster::SummarizerConfig config;
  config.max_clusters = m;
  cluster::MicroClusterSummarizer summarizer(config);
  Rng rng(13);
  for (auto _ : state) {
    summarizer.add(random_point(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SummarizerPerAccess)->Arg(4)->Arg(25)->Arg(100);

void print_bandwidth_table() {
  std::printf("\n==============================================================\n");
  std::printf("Table II (measured): bytes shipped to the central server per placement\n");
  std::printf("k = %zu replicas; online ships k*m micro-clusters, offline ships\n",
              kReplicas);
  std::printf("one coordinate record per access (%zu-dim coordinates). Online\n", kDim);
  std::printf("ships centroid frames every epoch, and moment frames only when the\n");
  std::printf("epoch adopts a placement; the ratio is against an adopting epoch.\n");
  std::printf("==============================================================\n");
  std::printf("%-14s %-6s %18s %18s %16s %10s\n", "accesses (n)", "m", "centroid B/epoch",
              "moment B/adoption", "offline bytes", "ratio");

  // Offline record: client id (4) + access count (8) + coords (4 + dim*8).
  const std::size_t offline_record = 4 + 8 + 4 + kDim * 8;
  bool online_always_smaller_beyond_1k = true;
  for (const std::size_t n : {1000ul, 10000ul, 100000ul, 1000000ul}) {
    for (const std::size_t m : {4ul, 100ul}) {
      // What the replicas ship: one centroid frame each, then one moment
      // frame each when the epoch adopts.
      ByteWriter centroids;
      ByteWriter moments;
      for (std::size_t r = 0; r < kReplicas; ++r) {
        const auto summary = build_summary(m, n / kReplicas, r + 17);
        cluster::write_centroid_frame(centroids, summary.view());
        cluster::write_moment_frame(moments, summary.view());
      }
      const std::size_t online_bytes = centroids.size() + moments.size();
      const std::size_t offline_bytes = n * offline_record;
      std::printf("%-14zu %-6zu %18zu %18zu %16zu %9.1fx\n", n, m, centroids.size(),
                  moments.size(), offline_bytes,
                  static_cast<double>(offline_bytes) / static_cast<double>(online_bytes));
      if (n >= 1000 && online_bytes >= offline_bytes) {
        online_always_smaller_beyond_1k = false;
      }
    }
  }
  std::printf("\npaper-shape checks:\n");
  std::printf("  [%s] online bandwidth O(km), not O(n); offline grows linearly\n",
              online_always_smaller_beyond_1k ? "PASS" : "FAIL");
  // Bytes per cluster, read from one replica's two frames (the header
  // varints of each shared among the clusters).
  const auto summary = build_summary(100, 10000, 3);
  ByteWriter centroid_frame;
  cluster::write_centroid_frame(centroid_frame, summary.view());
  ByteWriter moment_frame;
  cluster::write_moment_frame(moment_frame, summary.view());
  const auto clusters = static_cast<double>(summary.size());
  const double centroid_per_cluster = static_cast<double>(centroid_frame.size()) / clusters;
  const double moment_per_cluster = static_cast<double>(moment_frame.size()) / clusters;
  std::printf("  [%s] each micro-cluster under 1 KB on the wire (paper: <1KB): %.1f B in "
              "its centroid frame + %.1f B in its moment frame (%zu-cluster frames of %zu + "
              "%zu B)\n",
              centroid_per_cluster + moment_per_cluster < 1024.0 ? "PASS" : "FAIL",
              centroid_per_cluster, moment_per_cluster, summary.size(), centroid_frame.size(),
              moment_frame.size());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_bandwidth_table();
  return 0;
}
