// Ablation A7 — availability vs latency (paper future work: "taking into
// account ... data availability").
//
// Latency-optimal placements co-locate replicas inside the dominant client
// region; a regional outage then takes out several replicas at once. The
// spread decorator forces pairwise replica distance >= S. This harness
// sweeps S and reports, for each setting:
//   * normal-operation average delay (the price paid), and
//   * worst-case single-replica-loss delay: the average delay when the most
//     load-bearing replica is down and its clients fail over (the benefit).
#include <cstdio>

#include <limits>
#include <memory>

#include "bench_util.h"
#include "common/random.h"
#include "core/evaluation.h"
#include "placement/evaluate.h"
#include "placement/spread.h"
#include "placement/strategy.h"

using namespace geored;

namespace {

/// A regional outage takes down a replica *and every other replica within
/// kBlastRadius of it* (co-located copies share the failure domain). Returns
/// the worst case over all outage epicentres: whether the object survives at
/// all, and the failover delay when it does.
struct OutageImpact {
  bool total_loss = false;   ///< some regional outage killed every replica
  double failover_delay = 0.0;  ///< worst surviving-case average delay
};

constexpr double kBlastRadiusMs = 40.0;

OutageImpact worst_regional_outage(const topo::Topology& topology,
                                   const place::Placement& placement,
                                   const std::vector<place::ClientRecord>& clients) {
  OutageImpact impact;
  for (std::size_t epicentre = 0; epicentre < placement.size(); ++epicentre) {
    place::Placement survivors;
    for (std::size_t i = 0; i < placement.size(); ++i) {
      if (topology.rtt_ms(placement[i], placement[epicentre]) >= kBlastRadiusMs &&
          i != epicentre) {
        survivors.push_back(placement[i]);
      }
    }
    if (survivors.empty()) {
      impact.total_loss = true;
      continue;
    }
    impact.failover_delay = std::max(
        impact.failover_delay, place::true_average_delay(topology, survivors, clients));
  }
  return impact;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: replica spread constraint — normal vs failure delay",
      "226-node topology, 20 DCs, k=3, 30 runs; online clustering +spread(S);\n"
      "clients concentrated in North America, so the unconstrained optimum\n"
      "co-locates all replicas there");

  core::Environment env(topo::PlanetLabModelConfig{}, /*topology_seed=*/42,
                        coord::CoordSystem::kRnp, coord::GossipConfig{});
  const auto& topology = env.topology();
  const auto& coords = env.coordinates();
  // Region mask: only North-American nodes act as clients.
  std::vector<bool> is_na_node(topology.size(), false);
  for (topo::NodeId i = 0; i < topology.size(); ++i) {
    is_na_node[i] = topology.region_names()[topology.node(i).region].starts_with("na-");
  }

  std::printf("%-16s %14s %18s %20s %16s\n", "min spread (ms)", "normal delay",
              "total-loss runs", "worst failover delay", "actual spread");

  double normal_at_0 = 0.0, normal_wide = 0.0;
  std::size_t losses_at_0 = 0, losses_wide = 0;
  for (const double spread_ms : {0.0, 30.0, 80.0, 150.0}) {
    OnlineStats normal_delay, loss_delay, achieved_spread;
    std::size_t total_losses = 0;
    for (std::uint64_t run = 0; run < 30; ++run) {
      // Reuse the evaluation harness's protocol by hand so we can decorate
      // the strategy: candidates, clients and summaries come from one run.
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
      cluster::SummarizerConfig summarizer_config;
      summarizer_config.max_clusters = 12;
      cluster::MicroClusterSummarizer summarizer(summarizer_config);
      for (std::size_t i = 0; i < topology.size(); ++i) {
        if (is_candidate[i] || !is_na_node[i]) continue;
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

      place::SpreadConfig spread_config;
      spread_config.min_spread_ms = spread_ms;
      const place::SpreadConstrainedPlacement strategy(place::make_strategy("online"),
                                                       spread_config);
      const auto placement = strategy.place(input);
      normal_delay.add(place::true_average_delay(topology, placement, input.clients));
      const auto impact = worst_regional_outage(topology, placement, input.clients);
      if (impact.total_loss) {
        ++total_losses;
      } else {
        loss_delay.add(impact.failover_delay);
      }
      achieved_spread.add(place::min_pairwise_spread(placement, input.candidates));
    }
    std::printf("%-16.0f %12.2fms %15zu/30 %18.2fms %14.1fms\n", spread_ms,
                normal_delay.mean(), total_losses,
                loss_delay.count() > 0 ? loss_delay.mean() : 0.0, achieved_spread.mean());
    if (spread_ms == 0.0) {
      normal_at_0 = normal_delay.mean();
      losses_at_0 = total_losses;
    }
    if (spread_ms == 150.0) {
      normal_wide = normal_delay.mean();
      losses_wide = total_losses;
    }
  }

  std::printf("\npaper-shape checks:\n");
  bench::print_check("spreading replicas costs normal-case latency",
                     normal_wide > normal_at_0);
  bench::print_check(
      "unconstrained placement can lose every replica to one regional outage",
      losses_at_0 > 0);
  bench::print_check("spread >= blast radius eliminates total-loss outages",
                     losses_wide == 0);
  return 0;
}
