// Ablation A11 — read/write ratio vs placement (Sivasubramanian et al.'s
// axis, which the paper explicitly leaves out by assuming read-dominance).
//
// Sweeps the write fraction f and compares:
//   * the paper's read-only online clustering placement, and
//   * the write-aware refinement of it,
// both scored with the ground-truth combined objective
// (1-f)*closest + f*farthest replica per access. Expect: identical at
// f ~ 0 (validating the paper's assumption for read-heavy objects), with a
// widening gap and shrinking replica spread as writes take over.
#include <cstdio>

#include <memory>

#include "bench_util.h"
#include "common/random.h"
#include "core/evaluation.h"
#include "placement/spread.h"
#include "placement/strategy.h"
#include "placement/write_aware.h"

using namespace geored;

int main() {
  bench::print_header(
      "Ablation: write fraction vs placement — read-only vs write-aware",
      "226-node topology, 20 DCs, k=3, 30 runs; objective (1-f)*nearest + f*farthest");

  core::Environment env(topo::PlanetLabModelConfig{}, /*topology_seed=*/42,
                        coord::CoordSystem::kRnp, coord::GossipConfig{});
  const auto& topology = env.topology();
  const auto& coords = env.coordinates();

  std::printf("%-10s %16s %16s %12s %18s\n", "write f", "read-only plc", "write-aware plc",
              "gap", "aware spread (ms)");

  double gap_at_0 = 0.0, gap_at_60 = 0.0;
  double spread_at_0 = 0.0, spread_at_60 = 0.0;
  for (const double f : {0.0, 0.1, 0.3, 0.6, 0.9}) {
    OnlineStats read_only_delay, aware_delay, aware_spread;
    for (std::uint64_t run = 0; run < 30; ++run) {
      Rng rng(2000 + run);
      const auto candidate_idx = rng.sample_without_replacement(topology.size(), 20);
      std::vector<bool> is_candidate(topology.size(), false);
      place::PlacementInput input;
      input.k = 3;
      input.seed = 2000 + run;
      input.topology = &topology;
      for (const auto idx : candidate_idx) {
        is_candidate[idx] = true;
        input.candidates.push_back({static_cast<topo::NodeId>(idx), coords[idx].position,
                                    std::numeric_limits<double>::infinity()});
      }
      cluster::SummarizerConfig summarizer_config;
      summarizer_config.max_clusters = 12;
      cluster::MicroClusterSummarizer summarizer(summarizer_config);
      double total_accesses = 0.0;
      for (std::size_t i = 0; i < topology.size(); ++i) {
        if (is_candidate[i]) continue;
        place::ClientRecord record;
        record.client = static_cast<topo::NodeId>(i);
        record.coords = coords[i].position;
        record.access_count = 1 + rng.below(100);
        total_accesses += static_cast<double>(record.access_count);
        input.clients.push_back(record);
        for (std::uint64_t a = 0; a < input.clients.back().access_count; ++a) {
          summarizer.add(record.coords);
        }
      }
      input.summaries.append(summarizer.clusters());

      const auto read_only = place::make_strategy("online")->place(input);
      place::WriteAwareConfig aware_config;
      aware_config.write_fraction = f;
      const auto aware = place::WriteAwarePlacement(aware_config).place(input);

      read_only_delay.add(
          place::true_write_aware_delay(topology, read_only, input.clients, f) /
          total_accesses);
      aware_delay.add(place::true_write_aware_delay(topology, aware, input.clients, f) /
                      total_accesses);
      aware_spread.add(place::min_pairwise_spread(aware, input.candidates));
    }
    const double gap = read_only_delay.mean() - aware_delay.mean();
    std::printf("%-10.2f %14.2fms %14.2fms %10.2fms %16.1f\n", f, read_only_delay.mean(),
                aware_delay.mean(), gap, aware_spread.mean());
    if (f == 0.0) {
      gap_at_0 = gap;
      spread_at_0 = aware_spread.mean();
    }
    if (f == 0.6) {
      gap_at_60 = gap;
      spread_at_60 = aware_spread.mean();
    }
  }

  std::printf("\npaper-shape checks:\n");
  bench::print_check(
      "at f=0 write-awareness adds (almost) nothing — the paper's read-heavy "
      "assumption is safe",
      gap_at_0 < 2.0);
  bench::print_check("ignoring a 60% write ratio costs real latency", gap_at_60 > 5.0);
  bench::print_check("write-heavy placements huddle (smaller replica spread)",
                     spread_at_60 < 0.7 * spread_at_0);
  return 0;
}
