// The Topology is the ground-truth latency substrate for all experiments:
// a set of nodes with (synthetic) geographic positions and a full pairwise
// RTT matrix. The simulator samples all message delays from it; network
// coordinate systems try to embed it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/sym_matrix.h"
#include "topology/geo.h"

namespace geored::topo {

using NodeId = std::uint32_t;

/// NodeInfo::region of a node with no known region.
inline constexpr std::uint32_t kUnknownRegion = 0xffffffffu;

struct NodeInfo {
  GeoLocation location;
  /// Index into Topology::region_names, or kUnknownRegion (e.g. for
  /// matrices loaded from disk without geography).
  std::uint32_t region = kUnknownRegion;
  /// Per-node access-link latency contribution (one way, ms).
  double access_ms = 0.0;
};

class Topology {
 public:
  Topology() = default;
  Topology(std::vector<NodeInfo> nodes, SymMatrix rtt_ms,
           std::vector<std::string> region_names);

  std::size_t size() const { return nodes_.size(); }

  /// Ground-truth round-trip time between two nodes, milliseconds.
  double rtt_ms(NodeId a, NodeId b) const { return rtt_.at(a, b); }

  const NodeInfo& node(NodeId id) const { return nodes_.at(id); }
  const std::vector<NodeInfo>& nodes() const { return nodes_; }
  const SymMatrix& rtt_matrix() const { return rtt_; }
  const std::vector<std::string>& region_names() const { return region_names_; }

  /// Writes the topology as a plain-text file: node count, node lines
  /// (lat lon region access_ms), then the upper-triangle RTTs.
  void save(std::ostream& os) const;

  /// Parses the format written by save(). Throws std::invalid_argument on a
  /// malformed stream, including a node whose region is neither an index
  /// into the region list nor kUnknownRegion. Storage grows with the
  /// entries actually parsed, so a header's counts alone never size an
  /// allocation.
  static Topology load(std::istream& is);

  /// Builds a topology from a bare RTT matrix (no geography), e.g. a real
  /// PlanetLab measurement file: first token n, then n*n row-major entries in
  /// milliseconds (diagonal ignored; asymmetric entries are averaged).
  /// Throws std::invalid_argument on a malformed stream; like load(), it
  /// never sizes storage from the header alone.
  static Topology from_rtt_matrix_stream(std::istream& is);

  /// New topology containing only `nodes` (reindexed in the given order,
  /// duplicates rejected); region names are preserved. Useful for running
  /// experiments on sub-populations of a measured matrix.
  Topology subset(const std::vector<NodeId>& nodes) const;

 private:
  std::vector<NodeInfo> nodes_;
  SymMatrix rtt_;
  std::vector<std::string> region_names_;
};

}  // namespace geored::topo
