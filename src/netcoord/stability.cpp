#include "netcoord/stability.h"

#include "common/ensure.h"
#include "netcoord/embedding.h"
#include "netcoord/gossip_detail.h"
#include "netcoord/rnp.h"
#include "netcoord/vivaldi.h"

namespace geored::coord {

namespace {

template <typename NodeVector>
StabilityReport measure(const topo::Topology& topology, NodeVector& nodes,
                        const StabilityConfig& config, std::uint64_t seed) {
  std::vector<Point> previous(nodes.size());
  std::vector<double> displacements;
  const auto hook = [&](std::size_t round) {
    if (round + 1 == config.warmup_rounds) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        previous[i] = nodes[i].coordinate().position;
      }
      return;
    }
    if (round + 1 > config.warmup_rounds) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Point& current = nodes[i].coordinate().position;
        displacements.push_back(current.distance_to(previous[i]));
        previous[i] = current;
      }
    }
  };
  detail::run_gossip(topology, nodes, config.gossip, seed, hook);

  StabilityReport report;
  report.displacement_per_round_ms = summarize(std::move(displacements));
  std::vector<NetworkCoordinate> coords;
  coords.reserve(nodes.size());
  for (const auto& node : nodes) coords.push_back(node.coordinate());
  report.final_abs_error_p50_ms =
      evaluate_embedding(topology, coords).absolute_error_ms.p50;
  return report;
}

}  // namespace

StabilityReport measure_stability(const topo::Topology& topology, CoordSystem system,
                                  const StabilityConfig& config, std::uint64_t seed) {
  GEORED_ENSURE(system != CoordSystem::kGnp, "GNP does not gossip; its coordinates are fixed");
  GEORED_ENSURE(config.warmup_rounds < config.gossip.rounds,
                "warmup must leave rounds to measure");
  if (system == CoordSystem::kVivaldi) {
    std::vector<VivaldiNode> nodes;
    nodes.reserve(topology.size());
    for (std::size_t i = 0; i < topology.size(); ++i) {
      nodes.emplace_back(VivaldiConfig{}, static_cast<std::uint32_t>(i));
    }
    return measure(topology, nodes, config, seed);
  }
  std::vector<RnpNode> nodes;
  nodes.reserve(topology.size());
  for (std::size_t i = 0; i < topology.size(); ++i) {
    nodes.emplace_back(RnpConfig{}, static_cast<std::uint32_t>(i));
  }
  return measure(topology, nodes, config, seed);
}

}  // namespace geored::coord
