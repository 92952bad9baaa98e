#include "core/evaluation.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/ensure.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/collector.h"
#include "placement/evaluate.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/access_stream.h"

namespace geored::core {

Environment::Environment(const topo::PlanetLabModelConfig& topology_config,
                         std::uint64_t topology_seed, coord::CoordSystem coord_system,
                         const coord::GossipConfig& gossip, std::uint64_t embedding_seed)
    : topology_(topo::generate_planetlab_like(topology_config, topology_seed)),
      coord_system_(coord_system),
      coords_(coord::embed(topology_, coord_system, gossip, embedding_seed)) {}

coord::EmbeddingQuality Environment::embedding_quality() const {
  return coord::evaluate_embedding(topology_, coords_);
}

namespace {

/// One run of the paper's protocol; returns the true average access delay
/// achieved by each requested strategy.
std::vector<double> run_once(const Environment& env, const ExperimentConfig& config,
                             std::uint64_t seed) {
  const auto& topology = env.topology();
  const auto& coords = env.coordinates();
  const std::size_t n = topology.size();
  GEORED_ENSURE(config.num_datacenters >= 1 && config.num_datacenters < n,
                "need at least one data center and one client");
  Rng rng(seed);

  // 1. Candidate data centers: a seeded random subset of nodes (each run
  //    "begins with different candidate replica locations", §IV-A).
  const auto candidate_idx = rng.sample_without_replacement(n, config.num_datacenters);
  std::vector<bool> is_candidate(n, false);
  std::vector<place::CandidateInfo> candidates;
  candidates.reserve(candidate_idx.size());
  for (const auto idx : candidate_idx) {
    is_candidate[idx] = true;
    candidates.push_back(
        {static_cast<topo::NodeId>(idx), coords[idx].position,
         std::numeric_limits<double>::infinity()});
  }

  // 2. Clients: every other node, with Poisson access counts around a
  //    lognormal-spread per-client mean.
  std::vector<place::ClientRecord> clients;
  clients.reserve(n - candidates.size());
  const double mu_correction = -0.5 * kAccessSpreadSigma * kAccessSpreadSigma;
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (is_candidate[idx]) continue;
    place::ClientRecord record;
    record.client = static_cast<topo::NodeId>(idx);
    record.coords = coords[idx].position;
    const double mean =
        kMeanAccessesPerClient * std::exp(rng.normal(mu_correction, kAccessSpreadSigma));
    record.access_count = std::max<std::uint64_t>(1, rng.poisson(mean));
    clients.push_back(std::move(record));
  }

  // 3. Observation phase: the object starts on k random candidates; every
  //    access goes to the client's true-closest initial replica, which
  //    summarizes it (Section III-B).
  const std::size_t k = std::min(config.k, candidates.size());
  const auto initial_idx = rng.sample_without_replacement(candidates.size(), k);
  std::vector<topo::NodeId> initial_placement;
  for (const auto idx : initial_idx) initial_placement.push_back(candidates[idx].node);

  std::vector<std::size_t> closest_initial(clients.size());
  for (std::size_t u = 0; u < clients.size(); ++u) {
    std::size_t best = 0;
    double best_rtt = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < initial_placement.size(); ++r) {
      const double rtt = topology.rtt_ms(clients[u].client, initial_placement[r]);
      if (rtt < best_rtt) {
        best_rtt = rtt;
        best = r;
      }
    }
    closest_initial[u] = best;
  }

  cluster::SummarizerConfig summarizer_config;
  summarizer_config.max_clusters = config.micro_clusters;
  summarizer_config.min_absorb_radius = kSummarizerMinRadiusMs;
  std::vector<cluster::MicroClusterSummarizer> summarizers(
      initial_placement.size(), cluster::MicroClusterSummarizer(summarizer_config));

  // Interleave accesses across clients so cluster formation sees arrivals in
  // a realistic order rather than one client at a time, then regroup the
  // stream into one contiguous batch per replica. Each summarizer ingests
  // its own subsequence in stream order, so the batched path reproduces the
  // per-access loop byte for byte.
  std::vector<std::uint64_t> access_counts;
  std::vector<Point> client_points;
  access_counts.reserve(clients.size());
  client_points.reserve(clients.size());
  for (const auto& client : clients) {
    access_counts.push_back(client.access_count);
    client_points.push_back(client.coords);
  }
  const auto access_stream = wl::interleave_access_stream(access_counts, rng);
  const auto batches = wl::batch_by_server(access_stream, closest_initial, client_points,
                                           initial_placement.size());
  // Sequential per-replica ingest: run_experiment parallelizes across runs.
  for (std::size_t r = 0; r < batches.size(); ++r) {
    summarizers[r].add_batch(batches[r]);
  }

  // Collect the per-replica summaries through the configured collection
  // path. "direct" concatenates in source order — byte-identical to the
  // historical manual flatten; the protocol collectors run over a per-run
  // simulated network and merge along the way.
  std::vector<SummarySource> sources;
  sources.reserve(initial_placement.size());
  for (std::size_t r = 0; r < initial_placement.size(); ++r) {
    sources.push_back({initial_placement[r], summarizers[r].clusters()});
  }
  cluster::ClusterBuffer summaries;
  if (config.collector == "direct") {
    summaries = DirectCollector().collect(sources, {candidates, k, seed}).summaries;
  } else if (config.collector == "rpc") {
    // Real sockets, no simulator. Each run stands up its own ephemeral-port
    // server, so concurrent runs do not collide. Sources that exhaust their
    // retries have no prior epoch to fall back to here (one round per run),
    // so under heavy fault injection some sources simply contribute nothing.
    CollectorConfig collector_config;
    collector_config.rpc = config.rpc;
    summaries = make_collector("rpc", collector_config)
                    ->collect(sources, {candidates, k, seed})
                    .summaries;
  } else {
    sim::Simulator simulator;
    sim::Network network(simulator, topology);
    CollectorConfig collector_config;
    collector_config.simulator = &simulator;
    collector_config.network = &network;
    collector_config.aggregation_root = initial_placement.front();
    summaries = make_collector(config.collector, collector_config)
                    ->collect(sources, {candidates, k, seed})
                    .summaries;
  }

  // 4. Every strategy proposes from the information it may see; proposals
  //    are scored with the ground truth. Only the seed differs between them.
  place::PlacementInput input;
  input.candidates = std::move(candidates);
  input.k = k;
  input.clients = std::move(clients);
  input.summaries = std::move(summaries);
  input.topology = &topology;
  input.quorum = config.quorum;
  std::vector<double> delays;
  delays.reserve(config.strategies.size());
  for (std::size_t s = 0; s < config.strategies.size(); ++s) {
    input.seed = seed ^ (0xc2b2ae3d27d4eb4fULL * (s + 1));

    const auto strategy = place::make_strategy(config.strategies[s]);
    const auto placement = strategy->place(input);
    place::validate_placement(placement, input);
    delays.push_back(place::true_average_delay(topology, placement, input.clients,
                                               std::min(config.quorum, placement.size())));
  }
  return delays;
}

}  // namespace

ExperimentResult run_experiment(const Environment& env, const ExperimentConfig& config) {
  GEORED_ENSURE(config.runs >= 1, "experiment needs at least one run");
  GEORED_ENSURE(!config.strategies.empty(), "experiment needs at least one strategy");
  // Validate the collector name up front: an unknown name must throw here,
  // on the caller's thread, not inside a worker.
  {
    const auto names = collector_names();
    GEORED_ENSURE(std::find(names.begin(), names.end(), config.collector) != names.end(),
                  "unknown collector '" + config.collector + "'");
  }
  ExperimentResult result;
  result.outcomes.resize(config.strategies.size());
  for (std::size_t s = 0; s < config.strategies.size(); ++s) {
    result.outcomes[s].kind = config.strategies[s];
    result.outcomes[s].name = place::strategy_name(config.strategies[s]);
  }
  // The runs fan out over the pool. Each lands in its own slot, and pool
  // work inside a run (k-means, the rpc collector's fetches) runs inline, so
  // any thread count produces the identical outcome.
  std::vector<std::vector<double>> per_run(config.runs);
  const auto run = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      per_run[r] = run_once(env, config, kExperimentBaseSeed + r);
    }
  };
  parallel_for(config.runs, std::ref(run));
  for (std::size_t r = 0; r < config.runs; ++r) {
    for (std::size_t s = 0; s < per_run[r].size(); ++s) {
      result.outcomes[s].per_run_delay_ms.push_back(per_run[r][s]);
    }
  }
  for (auto& outcome : result.outcomes) {
    outcome.average_delay_ms = summarize(outcome.per_run_delay_ms);
  }
  return result;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const Environment env(topo::PlanetLabModelConfig{}, /*topology_seed=*/42,
                        coord::CoordSystem::kRnp, coord::GossipConfig{});
  return run_experiment(env, config);
}

double ExperimentResult::mean_of(place::StrategyKind kind) const {
  return outcome_of(kind).average_delay_ms.mean;
}

const StrategyOutcome& ExperimentResult::outcome_of(place::StrategyKind kind) const {
  const auto it = std::find_if(outcomes.begin(), outcomes.end(),
                               [kind](const StrategyOutcome& o) { return o.kind == kind; });
  GEORED_ENSURE(it != outcomes.end(), "strategy was not part of the experiment");
  return *it;
}

}  // namespace geored::core
