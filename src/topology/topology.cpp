#include "topology/topology.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "common/ensure.h"
#include "common/serialize.h"

namespace geored::topo {

namespace {
/// Slots to reserve for the strict upper triangle of an n-node matrix:
/// n*(n-1)/2, capped at kMaxHeaderReserve (tested first, so the product
/// cannot overflow).
std::size_t triangle_reserve(std::size_t n) {
  if (n >= kMaxHeaderReserve) return kMaxHeaderReserve;
  return std::min(n * (n - 1) / 2, kMaxHeaderReserve);
}
}  // namespace

Topology::Topology(std::vector<NodeInfo> nodes, SymMatrix rtt_ms,
                   std::vector<std::string> region_names)
    : nodes_(std::move(nodes)),
      rtt_(std::move(rtt_ms)),
      region_names_(std::move(region_names)) {
  GEORED_ENSURE(nodes_.size() == rtt_.size(),
                "node list and RTT matrix must have the same size");
}

void Topology::save(std::ostream& os) const {
  os << nodes_.size() << ' ' << region_names_.size() << '\n';
  for (const auto& name : region_names_) os << name << '\n';
  for (const auto& node : nodes_) {
    os << node.location.lat_deg << ' ' << node.location.lon_deg << ' ' << node.region << ' '
       << node.access_ms << '\n';
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes_.size(); ++j) {
      os << rtt_.at(i, j) << (j + 1 == nodes_.size() ? '\n' : ' ');
    }
  }
}

Topology Topology::load(std::istream& is) {
  std::size_t n = 0, region_count = 0;
  GEORED_ENSURE(static_cast<bool>(is >> n >> region_count), "malformed topology header");
  std::vector<std::string> region_names;
  region_names.reserve(std::min(region_count, kMaxHeaderReserve));
  for (std::size_t r = 0; r < region_count; ++r) {
    std::string name;
    GEORED_ENSURE(static_cast<bool>(is >> name), "malformed region name");
    region_names.push_back(std::move(name));
  }
  std::vector<NodeInfo> nodes;
  nodes.reserve(std::min(n, kMaxHeaderReserve));
  for (std::size_t i = 0; i < n; ++i) {
    NodeInfo node;
    GEORED_ENSURE(static_cast<bool>(is >> node.location.lat_deg >> node.location.lon_deg >>
                                    node.region >> node.access_ms),
                  "malformed node line");
    GEORED_ENSURE(node.region < region_count || node.region == kUnknownRegion,
                  "node " + std::to_string(i) + " has region " + std::to_string(node.region) +
                      " but the file lists " + std::to_string(region_count) + " region(s)");
    nodes.push_back(node);
  }
  std::vector<double> upper;
  upper.reserve(triangle_reserve(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double value = 0.0;
      GEORED_ENSURE(static_cast<bool>(is >> value), "malformed RTT entry");
      GEORED_ENSURE(value >= 0.0, "RTT entries must be non-negative");
      upper.push_back(value);
    }
  }
  return Topology(std::move(nodes), SymMatrix(n, std::move(upper)), std::move(region_names));
}

Topology Topology::subset(const std::vector<NodeId>& node_ids) const {
  GEORED_ENSURE(node_ids.size() >= 2, "a topology subset needs at least two nodes");
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeInfo> selected;
  selected.reserve(node_ids.size());
  for (const auto id : node_ids) {
    GEORED_ENSURE(id < nodes_.size(), "subset references an unknown node");
    GEORED_ENSURE(!seen[id], "subset contains a duplicate node");
    seen[id] = true;
    selected.push_back(nodes_[id]);
  }
  SymMatrix rtt(node_ids.size());
  for (std::size_t i = 0; i < node_ids.size(); ++i) {
    for (std::size_t j = i + 1; j < node_ids.size(); ++j) {
      rtt.set(i, j, rtt_.at(node_ids[i], node_ids[j]));
    }
  }
  return Topology(std::move(selected), std::move(rtt), region_names_);
}

Topology Topology::from_rtt_matrix_stream(std::istream& is) {
  std::size_t n = 0;
  GEORED_ENSURE(static_cast<bool>(is >> n), "malformed matrix header");
  GEORED_ENSURE(n >= 2, "RTT matrix needs at least two nodes");
  // sums holds entry (i, j) + entry (j, i) for every pair i < j, in the
  // triangle's row-major order: row i appends its entries right of the
  // diagonal and adds those left of it to the pairs rows j < i appended.
  std::vector<double> sums;
  sums.reserve(triangle_reserve(n));
  for (std::size_t i = 0; i < n; ++i) {
    // Pair (j, i) sits in slot i - 1 for j = 0, then n - j - 2 further on
    // for each next j (row 0 has no entries left of the diagonal).
    std::size_t slot = i - 1;
    for (std::size_t j = 0; j < n; ++j) {
      double value = 0.0;
      GEORED_ENSURE(static_cast<bool>(is >> value), "malformed matrix entry");
      if (j > i) {
        sums.push_back(value);
      } else if (j < i) {
        sums[slot] += value;
        slot += n - j - 2;
      }
    }
  }
  for (double& sum : sums) {
    sum *= 0.5;
    GEORED_ENSURE(sum >= 0.0, "RTT entries must be non-negative");
  }
  return Topology(std::vector<NodeInfo>(n), SymMatrix(n, std::move(sums)), {});
}

}  // namespace geored::topo
