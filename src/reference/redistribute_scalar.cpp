// Frozen scalar reference for redistribute_to_nearest: the historical
// per-summary linear scans over the placement and the candidate list, kept
// verbatim as the equivalence baseline and the epoch_end_to_end bench arm.
// Never optimize this file.
#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "common/ensure.h"
#include "reference/scalar.h"

namespace geored::core {

namespace {

const place::CandidateInfo& find_candidate(const std::vector<place::CandidateInfo>& candidates,
                                           topo::NodeId node) {
  const auto it = std::find_if(candidates.begin(), candidates.end(),
                               [node](const place::CandidateInfo& c) { return c.node == node; });
  GEORED_ENSURE(it != candidates.end(), "node is not a candidate data center");
  return *it;
}

}  // namespace

std::map<topo::NodeId, cluster::MicroClusterSummarizer> redistribute_to_nearest_scalar(
    const place::Placement& next, const std::vector<cluster::MicroCluster>& summaries,
    const std::vector<place::CandidateInfo>& candidates,
    const cluster::SummarizerConfig& summarizer_config) {
  GEORED_ENSURE(!next.empty(), "cannot adopt an empty placement");
  std::map<topo::NodeId, cluster::MicroClusterSummarizer> summarizers;
  for (const auto node : next) {
    summarizers.emplace(node, cluster::MicroClusterSummarizer(summarizer_config));
  }
  for (const auto& micro : summaries) {
    if (micro.count() == 0) continue;
    const Point centroid = micro.centroid();
    topo::NodeId best = next.front();
    double best_dist = std::numeric_limits<double>::infinity();
    for (const auto node : next) {
      const double dist = centroid.distance_squared_to(find_candidate(candidates, node).coords);
      if (dist < best_dist) {
        best_dist = dist;
        best = node;
      }
    }
    summarizers.at(best).merge_cluster(micro);
  }
  return summarizers;
}

}  // namespace geored::core
