#include "netcoord/embedding.h"

#include <cmath>
#include <sstream>

#include "common/ensure.h"
#include "common/random.h"
#include "netcoord/gossip_detail.h"

namespace geored::coord {

std::vector<NetworkCoordinate> run_vivaldi(const topo::Topology& topology,
                                           const VivaldiConfig& config,
                                           const GossipConfig& gossip, std::uint64_t seed) {
  std::vector<VivaldiNode> nodes;
  nodes.reserve(topology.size());
  for (std::size_t i = 0; i < topology.size(); ++i) {
    nodes.emplace_back(config, static_cast<std::uint32_t>(i));
  }
  detail::run_gossip(topology, nodes, gossip, seed);
  std::vector<NetworkCoordinate> coords;
  coords.reserve(nodes.size());
  for (const auto& node : nodes) coords.push_back(node.coordinate());
  return coords;
}

std::vector<NetworkCoordinate> run_rnp(const topo::Topology& topology, const RnpConfig& config,
                                       const GossipConfig& gossip, std::uint64_t seed) {
  std::vector<RnpNode> nodes;
  nodes.reserve(topology.size());
  for (std::size_t i = 0; i < topology.size(); ++i) {
    nodes.emplace_back(config, static_cast<std::uint32_t>(i));
  }
  detail::run_gossip(topology, nodes, gossip, seed);
  std::vector<NetworkCoordinate> coords;
  coords.reserve(nodes.size());
  for (const auto& node : nodes) coords.push_back(node.coordinate());
  return coords;
}

std::string coord_system_name(CoordSystem system) {
  switch (system) {
    case CoordSystem::kRnp:
      return "rnp";
    case CoordSystem::kVivaldi:
      return "vivaldi";
    case CoordSystem::kGnp:
      return "gnp";
  }
  throw InternalError("unknown coordinate system");
}

CoordSystem coord_system_from_name(const std::string& name) {
  for (const auto system : {CoordSystem::kRnp, CoordSystem::kVivaldi, CoordSystem::kGnp}) {
    if (name == coord_system_name(system)) return system;
  }
  throw std::invalid_argument("unknown coordinate system: " + name +
                              " (expected rnp|vivaldi|gnp)");
}

std::vector<NetworkCoordinate> embed(const topo::Topology& topology, CoordSystem system,
                                     const GossipConfig& gossip, std::uint64_t seed) {
  switch (system) {
    case CoordSystem::kRnp:
      return run_rnp(topology, RnpConfig{}, gossip, seed);
    case CoordSystem::kVivaldi:
      return run_vivaldi(topology, VivaldiConfig{}, gossip, seed);
    case CoordSystem::kGnp:
      return run_gnp(topology, GnpConfig{});
  }
  throw InternalError("unknown coordinate system");
}

EmbeddingQuality evaluate_embedding(const topo::Topology& topology,
                                    const std::vector<NetworkCoordinate>& coords) {
  GEORED_ENSURE(coords.size() == topology.size(),
                "coordinate count must match topology size");
  std::vector<double> abs_errors, rel_errors;
  const std::size_t n = topology.size();
  abs_errors.reserve(n * (n - 1) / 2);
  rel_errors.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double actual =
          topology.rtt_ms(static_cast<topo::NodeId>(i), static_cast<topo::NodeId>(j));
      const double predicted = predicted_rtt_ms(coords[i], coords[j]);
      abs_errors.push_back(std::abs(predicted - actual));
      if (actual > 0.0) rel_errors.push_back(std::abs(predicted - actual) / actual);
    }
  }
  EmbeddingQuality quality;
  quality.absolute_error_ms = summarize(std::move(abs_errors));
  quality.relative_error = summarize(std::move(rel_errors));
  return quality;
}

std::string EmbeddingQuality::to_string() const {
  std::ostringstream os;
  os << "abs error (ms): " << absolute_error_ms.to_string() << '\n'
     << "rel error: " << relative_error.to_string();
  return os.str();
}

}  // namespace geored::coord
