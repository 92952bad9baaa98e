#include "topology/analysis.h"

#include <sstream>
#include <vector>

#include "common/random.h"

namespace geored::topo {

MetricProperties analyze(const Topology& topology, std::size_t max_triangles,
                         std::uint64_t seed) {
  MetricProperties props;
  const std::size_t n = topology.size();
  std::vector<double> all, intra, inter;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double rtt = topology.rtt_ms(static_cast<NodeId>(i), static_cast<NodeId>(j));
      all.push_back(rtt);
      const auto ri = topology.node(static_cast<NodeId>(i)).region;
      const auto rj = topology.node(static_cast<NodeId>(j)).region;
      if (ri != kUnknownRegion && rj != kUnknownRegion) {
        (ri == rj ? intra : inter).push_back(rtt);
      }
    }
  }
  props.all_pairs_rtt = summarize(std::move(all));
  props.intra_region_rtt = summarize(std::move(intra));
  props.inter_region_rtt = summarize(std::move(inter));

  if (n >= 3 && max_triangles > 0) {
    Rng rng(seed);
    std::size_t violations = 0;
    for (std::size_t t = 0; t < max_triangles; ++t) {
      const auto i = static_cast<NodeId>(rng.below(n));
      auto j = static_cast<NodeId>(rng.below(n));
      auto k = static_cast<NodeId>(rng.below(n));
      if (i == j || j == k || i == k) continue;
      ++props.triangles_sampled;
      if (topology.rtt_ms(i, j) > topology.rtt_ms(i, k) + topology.rtt_ms(k, j)) {
        ++violations;
      }
    }
    if (props.triangles_sampled > 0) {
      props.triangle_violation_rate =
          static_cast<double>(violations) / static_cast<double>(props.triangles_sampled);
    }
  }
  return props;
}

std::string MetricProperties::to_string() const {
  std::ostringstream os;
  os << "all-pairs RTT: " << all_pairs_rtt.to_string() << '\n';
  if (intra_region_rtt.count > 0) {
    os << "intra-region RTT: " << intra_region_rtt.to_string() << '\n'
       << "inter-region RTT: " << inter_region_rtt.to_string() << '\n';
  }
  os << "triangle-inequality violation rate: " << triangle_violation_rate << " over "
     << triangles_sampled << " triangles";
  return os.str();
}

}  // namespace geored::topo
