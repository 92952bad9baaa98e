// Ablation A9 — replica budget allocation across object groups.
//
// The paper adjusts one object's degree of replication with its demand
// (§III-C). At fleet scale the question becomes: given B replicas total
// across G groups of very different popularity, who gets how many? This
// harness builds per-group delay-vs-degree curves from the placement
// machinery (three regional populations, Zipf-skewed demand) and compares
// the demand-aware marginal-gain allocator against the uniform split.
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "core/degree_allocator.h"
#include "core/evaluation.h"
#include "placement/evaluate.h"

using namespace geored;

namespace {

/// Per-access delay of the optimal placement for one client population, at
/// every degree in [1, max_degree].
std::vector<double> per_access_delay_curve(const core::Environment& env,
                                           const std::vector<place::ClientRecord>& clients,
                                           const std::vector<place::CandidateInfo>& candidates,
                                           std::size_t max_degree) {
  std::vector<double> curve;
  for (std::size_t k = 1; k <= max_degree; ++k) {
    place::PlacementInput input;
    input.candidates = candidates;
    input.k = k;
    input.clients = clients;
    input.topology = &env.topology();
    input.seed = 99;
    const auto placement = place::make_strategy("optimal")->place(input);
    curve.push_back(place::true_average_delay(env.topology(), placement, clients));
  }
  return curve;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: replica budget across object groups — uniform vs demand-aware",
      "226-node topology, 20 DCs, 18 groups over 3 regional populations, Zipf demand");

  core::Environment env(topo::PlanetLabModelConfig{}, /*topology_seed=*/42,
                        coord::CoordSystem::kRnp, coord::GossipConfig{});
  const auto& topology = env.topology();
  const auto& coords = env.coordinates();

  // Candidates: 20 seeded-random nodes; populations: the three macro-regions.
  Rng rng(1);
  const auto candidate_idx = rng.sample_without_replacement(topology.size(), 20);
  std::vector<bool> is_candidate(topology.size(), false);
  std::vector<place::CandidateInfo> candidates;
  for (const auto idx : candidate_idx) {
    is_candidate[idx] = true;
    candidates.push_back({static_cast<topo::NodeId>(idx), coords[idx].position,
                          std::numeric_limits<double>::infinity()});
  }
  std::vector<std::vector<place::ClientRecord>> populations(3);
  for (topo::NodeId i = 0; i < topology.size(); ++i) {
    if (is_candidate[i]) continue;
    const auto& name = topology.region_names()[topology.node(i).region];
    std::size_t bucket = 2;
    if (name.starts_with("na-") || name == "south-america") bucket = 0;
    if (name.starts_with("eu-")) bucket = 1;
    place::ClientRecord record;
    record.client = static_cast<topo::NodeId>(i);
    record.coords = coords[i].position;
    record.access_count = 10;
    populations[bucket].push_back(record);
  }

  constexpr std::size_t kMaxDegree = 7;
  std::vector<std::vector<double>> per_access(3);
  for (std::size_t p = 0; p < 3; ++p) {
    per_access[p] = per_access_delay_curve(env, populations[p], candidates, kMaxDegree);
  }

  // 18 groups: population p = g % 3, demand Zipf over g.
  constexpr std::size_t kGroups = 18;
  std::vector<core::GroupDemand> demands;
  std::vector<double> group_demand(kGroups);
  for (std::size_t g = 0; g < kGroups; ++g) {
    group_demand[g] = 10000.0 / static_cast<double>(g + 1);
    core::GroupDemand demand;
    for (std::size_t k = 1; k <= kMaxDegree; ++k) {
      demand.delay_by_degree.push_back(group_demand[g] * per_access[g % 3][k - 1]);
    }
    demands.push_back(std::move(demand));
  }

  std::printf("%-10s %22s %22s %14s\n", "budget B", "uniform total delay",
              "demand-aware delay", "improvement");
  double improvement_at_54 = 0.0;
  for (const std::size_t budget : {18ul, 36ul, 54ul, 90ul, 126ul}) {
    core::AllocatorConfig config;
    config.min_degree = 1;
    config.max_degree = kMaxDegree;
    config.budget = budget;
    const auto uniform = core::allocate_uniform(demands, config);
    const auto aware = core::allocate_replica_budget(demands, config);
    const double improvement =
        1.0 - aware.estimated_total_delay / uniform.estimated_total_delay;
    std::printf("%-10zu %20.0f %22.0f %13.1f%%\n", budget, uniform.estimated_total_delay,
                aware.estimated_total_delay, 100.0 * improvement);
    if (budget == 54) improvement_at_54 = improvement;
  }

  // Show the allocation shape at B = 54 (3 per group uniform).
  core::AllocatorConfig config;
  config.min_degree = 1;
  config.max_degree = kMaxDegree;
  config.budget = 54;
  const auto aware = core::allocate_replica_budget(demands, config);
  std::printf("\ndemand-aware degrees at B=54 (groups ordered hot -> cold):\n  ");
  for (const auto degree : aware.degree_per_group) std::printf("%zu ", degree);
  std::printf("\n\npaper-shape checks:\n");
  bench::print_check("demand-aware allocation beats the uniform split at B=54",
                     improvement_at_54 > 0.0);
  bench::print_check("hot groups get more replicas than cold groups",
                     aware.degree_per_group.front() > aware.degree_per_group.back());
  return 0;
}
