// Frozen scalar references for the free functions the production paths
// replaced: the full-scan k-means solvers, the Point-loop delay evaluators,
// the linear-scan summary redistribution and the two-walk RNP refit. Each
// is the slow, obviously correct arbiter its production counterpart is
// pinned against (bit-identical results in the equivalence suites, the
// baselines of bench/micro_perf); do not optimize them. Part of the
// test-only geored_reference library (see reference/CMakeLists.txt).
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/microcluster.h"
#include "cluster/summarizer.h"
#include "common/point.h"
#include "common/random.h"
#include "netcoord/rnp.h"
#include "placement/types.h"
#include "topology/topology.h"

namespace geored::cluster {

/// Scalar reference solver for weighted_kmeans: identical validation and
/// seeding (same rng consumption) and plain full-scan Lloyd iterations.
KMeansResult weighted_kmeans_scalar(const std::vector<WeightedPoint>& points,
                                    const KMeansConfig& config, Rng& rng);

/// Scalar reference warm-start solver for weighted_kmeans_from.
KMeansResult weighted_kmeans_from_scalar(const std::vector<WeightedPoint>& points,
                                         std::vector<Point> initial_centroids,
                                         const KMeansConfig& config);

}  // namespace geored::cluster

namespace geored::place {

/// Pre-optimization scalar references for true_total_delay and
/// estimated_total_delay (byte-identical totals at one thread, 1e-9
/// relative agreement across thread counts). Same contracts as the
/// evaluators in placement/evaluate.h.
double true_total_delay_scalar(const topo::Topology& topology, const Placement& placement,
                               const std::vector<ClientRecord>& clients,
                               std::size_t quorum = 1);
double estimated_total_delay_scalar(const Placement& placement,
                                    const std::vector<CandidateInfo>& candidates,
                                    const std::vector<ClientRecord>& clients,
                                    std::size_t quorum = 1);

}  // namespace geored::place

namespace geored::core {

/// Scalar reference for redistribute_to_nearest (core/epoch_pipeline.h):
/// the historical per-summary linear scans, O(summaries x k x candidates).
std::map<topo::NodeId, cluster::MicroClusterSummarizer> redistribute_to_nearest_scalar(
    const place::Placement& next, const std::vector<cluster::MicroCluster>& summaries,
    const std::vector<place::CandidateInfo>& candidates,
    const cluster::SummarizerConfig& summarizer_config);

}  // namespace geored::core

namespace geored::coord {

/// Scalar reference for rnp_refit (netcoord/rnp.h): RnpNode's refit before
/// the fused pass, an objective walk and a separate gradient walk per
/// descent step. Same contract as rnp_refit, and bit-identical to it at
/// every SIMD level. Requires window.capacity == config.window_size.
void rnp_refit_scalar(const RnpConfig& config, const RnpWindow& window,
                      NetworkCoordinate& coord);

}  // namespace geored::coord
