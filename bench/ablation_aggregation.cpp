// Ablation A10 — flat vs hierarchical summary collection.
//
// With one object and k = 3 replicas, flat collection (Algorithm 1 as
// written) is trivially cheap. With a store managing many object groups,
// the coordinator receives #groups * k summaries per epoch; the two-level
// aggregation tree bounds its inbound bandwidth at the price of one extra
// network hop. This harness sweeps the number of summary sources and
// reports root bandwidth, total bandwidth and collection latency for both.
//
// This harness deliberately drives the aggregation substrate (plan/run)
// below the pipeline's HierarchicalCollector, which wraps exactly this path:
// the collector interface reports only root-inbound bytes, while the
// ablation also needs total bytes, latency and aggregator counts.
#include <cstdio>

#include "bench_util.h"
#include "cluster/summarizer.h"
#include "common/random.h"
#include "core/aggregation.h"
#include "netcoord/embedding.h"
#include "topology/planetlab_model.h"

using namespace geored;

int main() {
  bench::print_header(
      "Ablation: flat vs hierarchical summary collection",
      "226-node topology, 30 DCs; sources hold 4 micro-clusters each (m=4)");

  const auto topology = topo::generate_planetlab_like(topo::PlanetLabModelConfig{}, 42);
  const auto coords =
      coord::run_rnp(topology, coord::RnpConfig{}, coord::GossipConfig{}, 7);
  constexpr std::size_t kDcs = 30;
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < kDcs; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i), coords[i].position,
                          std::numeric_limits<double>::infinity()});
  }

  std::printf("%-10s %6s %14s %14s %12s %12s %12s %12s\n", "sources", "aggs",
              "flat->root B", "tree->root B", "flat tot B", "tree tot B", "flat ms",
              "tree ms");

  // Each micro-cluster summarizes 25 accesses: a summarizer with a budget
  // of one cluster adds every access's moments into it, in arrival order.
  cluster::SummarizerConfig one_cluster;
  one_cluster.max_clusters = 1;

  std::uint64_t flat_root_256 = 0, tree_root_256 = 0;
  for (const std::size_t source_count : {16ul, 64ul, 256ul, 1024ul}) {
    // Synthesize sources: each sits at a data center and summarizes a
    // population near it (4 micro-clusters of 25 accesses).
    Rng rng(source_count);
    // The sources view their clusters in place, so these outlive them.
    std::vector<cluster::ClusterBuffer> populations(source_count);
    std::vector<core::SummarySource> sources;
    for (std::size_t s = 0; s < source_count; ++s) {
      core::SummarySource source;
      source.node = static_cast<topo::NodeId>(s % kDcs);
      const Point& home = coords[source.node].position;
      for (int c = 0; c < 4; ++c) {
        cluster::MicroClusterSummarizer micro(one_cluster);
        for (int p = 0; p < 25; ++p) {
          Point jittered = home;
          for (std::size_t d = 0; d < jittered.dim(); ++d) {
            jittered[d] += rng.normal(0.0, 8.0);
          }
          micro.add(jittered);
        }
        populations[s].append(micro.clusters());
      }
      source.clusters = populations[s].view();
      sources.push_back(source);
    }

    const auto plan = core::plan_aggregation(candidates, sources, 7);

    sim::Simulator tree_sim;
    sim::Network tree_net(tree_sim, topology);
    const auto tree = core::run_aggregation(tree_sim, tree_net, plan, sources, /*root=*/0);

    sim::Simulator flat_sim;
    sim::Network flat_net(flat_sim, topology);
    const auto flat = core::run_flat_collection(flat_sim, flat_net, sources, /*root=*/0);

    std::printf("%-10zu %6zu %14llu %14llu %12llu %12llu %12.1f %12.1f\n", source_count,
                plan.aggregators.size(),
                static_cast<unsigned long long>(flat.bytes_into_root),
                static_cast<unsigned long long>(tree.bytes_into_root),
                static_cast<unsigned long long>(flat.bytes_total),
                static_cast<unsigned long long>(tree.bytes_total), flat.completion_ms,
                tree.completion_ms);
    if (source_count == 256) {
      flat_root_256 = flat.bytes_into_root;
      tree_root_256 = tree.bytes_into_root;
    }
  }

  std::printf("\npaper-shape checks:\n");
  bench::print_check("tree cuts root inbound bandwidth by >=3x at 256 sources",
                     tree_root_256 * 3 <= flat_root_256);
  return 0;
}
