// The experiment harness of the paper's evaluation (Section IV).
//
// Protocol per run, mirroring §IV-A: from a 226-node topology, a seeded
// subset of nodes becomes the candidate data centers, the remainder become
// clients; clients access the object (closest replica first) during an
// observation phase that feeds the per-replica summarizers; every placement
// strategy then proposes replica locations from the information it is
// allowed to see; finally each proposal is scored by the ground-truth
// average access delay over the same client population. Results are
// averaged over `runs` independent runs (the paper uses 30).
//
// The topology and its coordinate embedding are computed once per
// Environment and shared across runs and parameter sweeps, exactly as the
// paper reuses its one PlanetLab matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/summarizer.h"
#include "common/stats.h"
#include "net/rpc_config.h"
#include "netcoord/embedding.h"
#include "placement/strategy.h"
#include "topology/planetlab_model.h"

namespace geored::core {

/// Shared, immutable per-experiment state: ground-truth topology plus the
/// coordinate embedding every node would carry in the running system.
/// Building one runs the world build on the global thread pool.
class Environment {
 public:
  Environment(const topo::PlanetLabModelConfig& topology_config, std::uint64_t topology_seed,
              coord::CoordSystem coord_system, const coord::GossipConfig& gossip,
              std::uint64_t embedding_seed = 7);

  const topo::Topology& topology() const { return topology_; }
  const std::vector<coord::NetworkCoordinate>& coordinates() const { return coords_; }
  coord::CoordSystem coord_system() const { return coord_system_; }

  /// Prediction quality of the embedding (for reporting).
  coord::EmbeddingQuality embedding_quality() const;

 private:
  topo::Topology topology_;
  coord::CoordSystem coord_system_;
  std::vector<coord::NetworkCoordinate> coords_;
};

/// Run r of an experiment uses seed kExperimentBaseSeed + r.
inline constexpr std::uint64_t kExperimentBaseSeed = 1000;

/// Observation-phase workload: per-client access counts are Poisson with a
/// lognormal-spread mean.
inline constexpr double kMeanAccessesPerClient = 100.0;
inline constexpr double kAccessSpreadSigma = 0.5;

/// Absorb-radius floor handed to the per-replica summarizers.
inline constexpr double kSummarizerMinRadiusMs = 5.0;

struct ExperimentConfig {
  std::size_t num_datacenters = 20;  ///< candidate replica locations
  std::size_t k = 3;                 ///< target degree of replication
  std::size_t micro_clusters = 4;    ///< m, per replica
  std::size_t runs = 30;             ///< independent runs to average over

  /// Number of replicas a client must reach (1 = the paper's model).
  std::size_t quorum = 1;

  /// How observation-phase summaries reach the placement decision point:
  /// "direct" (in-process concatenation, the paper's central server),
  /// "hierarchical" (two-level aggregation tree), "decentralized"
  /// (all-to-all agreement), or "rpc" (real localhost sockets). See
  /// core::collector_names(). The simulated-protocol collectors may merge
  /// summaries along the way, so the summary-driven strategies may differ —
  /// that comparison is the point of the sweep. "rpc" with faults disabled
  /// is byte-identical to "direct".
  std::string collector = "direct";

  /// Transport knobs consulted when collector == "rpc" (fault schedule,
  /// retry budget). Defaults give a clean wire.
  net::RpcCollectorConfig rpc;

  std::vector<place::StrategyKind> strategies = {
      place::StrategyKind::kRandom, place::StrategyKind::kOfflineKMeans,
      place::StrategyKind::kOnlineClustering, place::StrategyKind::kOptimal};
};

struct StrategyOutcome {
  place::StrategyKind kind{};
  std::string name;
  std::vector<double> per_run_delay_ms;  ///< true average delay, one per run
  Summary average_delay_ms;              ///< summary over the runs
};

struct ExperimentResult {
  std::vector<StrategyOutcome> outcomes;

  /// Mean average-delay of a strategy; throws if it was not part of the run.
  double mean_of(place::StrategyKind kind) const;
  const StrategyOutcome& outcome_of(place::StrategyKind kind) const;
};

/// Runs the full multi-run experiment. Deterministic in (env, config): the
/// runs fan out over the global thread pool (parallel_for), run r always
/// uses kExperimentBaseSeed + r, and its results land in slot r, so every
/// thread count gives the same bits. Pool work inside a run runs inline.
ExperimentResult run_experiment(const Environment& env, const ExperimentConfig& config);

/// Convenience overload that builds a default RNP environment internally.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace geored::core
