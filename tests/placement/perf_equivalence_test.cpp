// Equivalence of the optimized hot paths against the scalar reference
// implementations (see docs/performance.md):
//   * evaluators are byte-identical to the scalar paths at one thread and
//     within 1e-9 relative at higher thread counts;
//   * greedy and local-search placements are identical at any thread count
//     (their parallel loops never reassociate a floating-point sum);
//   * local search's incremental best/second-best deltas select exactly the
//     swaps a naive full re-evaluation selects;
//   * k-means is bitwise deterministic across thread counts.
// Input sizes sit above the kMinParallelClients grain so the parallel and
// gather fast paths are actually exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/kmeans.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "placement/evaluate.h"
#include "placement/greedy.h"
#include "placement/local_search.h"
#include "reference/scalar.h"
#include "topology/topology.h"

namespace geored::place {
namespace {

struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::set_global_thread_count(0); }
};

constexpr std::size_t kNodes = 192;
constexpr std::size_t kDim = 5;

struct World {
  topo::Topology topology;
  std::vector<CandidateInfo> candidates;
  std::vector<ClientRecord> clients;
  Placement placement;

  World(std::uint64_t seed, std::size_t n_clients, std::size_t n_candidates, std::size_t k)
      : topology(topo::Topology(std::vector<topo::NodeInfo>(0), SymMatrix(0), {})) {
    Rng rng(seed);
    std::vector<Point> positions;
    positions.reserve(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      Point p(kDim);
      for (std::size_t d = 0; d < kDim; ++d) p[d] = rng.uniform(-300.0, 300.0);
      positions.push_back(p);
    }
    SymMatrix rtt(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      for (std::size_t j = i + 1; j < kNodes; ++j) {
        rtt.set(i, j, std::max(0.01, positions[i].distance_to(positions[j]) +
                                         rng.uniform(-5.0, 5.0)));
      }
    }
    topology = topo::Topology(std::vector<topo::NodeInfo>(kNodes), std::move(rtt), {});

    for (std::size_t c = 0; c < n_candidates; ++c) {
      candidates.push_back({static_cast<topo::NodeId>(c), positions[c], 0.0});
    }
    clients.reserve(n_clients);
    for (std::size_t u = 0; u < n_clients; ++u) {
      ClientRecord record;
      record.client = static_cast<topo::NodeId>(rng.below(kNodes));
      record.coords = positions[record.client];
      record.access_count = 1 + rng.below(50);
      record.data_weight = static_cast<double>(record.access_count);
      clients.push_back(record);
    }
    for (std::size_t r = 0; r < k; ++r) {
      placement.push_back(candidates[(r * 7) % n_candidates].node);
    }
  }
};

TEST(PerfEquivalence, EvaluatorsByteIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const World world(17, 4096, 32, 8);
  for (const std::size_t quorum : {1u, 3u}) {
    // The reductions walk a fixed chunk grid, so the optimized evaluators
    // return the same bits at every thread count; the scalar references use
    // a single sequential accumulator, so they agree to rounding, not bits.
    ThreadPool::set_global_thread_count(1);
    const double fast_one = true_total_delay(world.topology, world.placement,
                                             world.clients, quorum);
    const double est_one = estimated_total_delay(world.placement, world.candidates,
                                                 world.clients, quorum);
    ThreadPool::set_global_thread_count(4);
    EXPECT_EQ(true_total_delay(world.topology, world.placement, world.clients, quorum),
              fast_one)
        << "true, quorum=" << quorum;
    EXPECT_EQ(estimated_total_delay(world.placement, world.candidates, world.clients,
                                    quorum),
              est_one)
        << "estimated, quorum=" << quorum;

    const double scalar = true_total_delay_scalar(world.topology, world.placement,
                                                  world.clients, quorum);
    const double est_scalar = estimated_total_delay_scalar(
        world.placement, world.candidates, world.clients, quorum);
    EXPECT_NEAR(fast_one, scalar, 1e-9 * scalar) << "true, quorum=" << quorum;
    EXPECT_NEAR(est_one, est_scalar, 1e-9 * est_scalar) << "estimated, quorum=" << quorum;
  }
}

TEST(PerfEquivalence, EvaluatorsAgreeAndReproduceAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const World world(29, 4096, 32, 8);
  ThreadPool::set_global_thread_count(1);
  const double true_ref = true_total_delay_scalar(world.topology, world.placement,
                                                  world.clients);
  const double est_ref = estimated_total_delay_scalar(world.placement, world.candidates,
                                                      world.clients);
  ThreadPool::set_global_thread_count(4);
  const double true_fast = true_total_delay(world.topology, world.placement, world.clients);
  const double est_fast = estimated_total_delay(world.placement, world.candidates,
                                                world.clients);
  EXPECT_NEAR(true_fast, true_ref, 1e-9 * true_ref);
  EXPECT_NEAR(est_fast, est_ref, 1e-9 * est_ref);
  // Bit-reproducible run-to-run at a fixed thread count.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(true_total_delay(world.topology, world.placement, world.clients), true_fast);
    EXPECT_EQ(estimated_total_delay(world.placement, world.candidates, world.clients),
              est_fast);
  }
}

PlacementInput search_input(std::uint64_t seed) {
  const World world(seed, 600, 40, 0);
  PlacementInput input;
  input.candidates = world.candidates;
  input.clients = world.clients;
  input.k = 6;
  input.seed = seed;
  return input;
}

TEST(PerfEquivalence, GreedyPlacementIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const auto input = search_input(37);
  ThreadPool::set_global_thread_count(1);
  const Placement at_one = GreedyPlacement().place(input);
  validate_placement(at_one, input);
  ThreadPool::set_global_thread_count(4);
  EXPECT_EQ(GreedyPlacement().place(input), at_one);
}

TEST(PerfEquivalence, LocalSearchPlacementIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const auto input = search_input(41);
  const LocalSearchPlacement search(std::make_unique<GreedyPlacement>());
  ThreadPool::set_global_thread_count(1);
  const Placement at_one = search.place(input);
  validate_placement(at_one, input);
  ThreadPool::set_global_thread_count(4);
  EXPECT_EQ(search.place(input), at_one);
}

/// The pre-optimization local search: full O(clients * k) re-evaluation of
/// every candidate swap, kept here as the behavioral reference for the
/// incremental best/second-best delta maintenance.
Placement naive_local_search(const PlacementInput& input, const LocalSearchConfig& config) {
  Placement placement = GreedyPlacement().place(input);
  if (input.clients.empty() || placement.size() == input.candidates.size()) {
    return placement;
  }
  const std::size_t n_cand = input.candidates.size();
  const std::size_t n_client = input.clients.size();
  std::vector<std::vector<double>> latency(n_cand, std::vector<double>(n_client));
  for (std::size_t c = 0; c < n_cand; ++c) {
    for (std::size_t u = 0; u < n_client; ++u) {
      latency[c][u] = input.candidates[c].coords.distance_to(input.clients[u].coords);
    }
  }
  std::vector<std::size_t> chosen;
  std::vector<bool> in_placement(n_cand, false);
  for (const auto node : placement) {
    for (std::size_t c = 0; c < n_cand; ++c) {
      if (input.candidates[c].node == node) {
        chosen.push_back(c);
        in_placement[c] = true;
        break;
      }
    }
  }
  const auto total_delay = [&](const std::vector<std::size_t>& members) {
    double total = 0.0;
    for (std::size_t u = 0; u < n_client; ++u) {
      double best = std::numeric_limits<double>::infinity();
      for (const std::size_t c : members) best = std::min(best, latency[c][u]);
      total += best * static_cast<double>(input.clients[u].access_count);
    }
    return total;
  };
  double current = total_delay(chosen);
  for (std::size_t round = 0; round < config.max_rounds; ++round) {
    double best_delta = 0.0;
    std::size_t best_slot = 0, best_replacement = 0;
    bool improved = false;
    for (std::size_t slot = 0; slot < chosen.size(); ++slot) {
      auto trial = chosen;
      for (std::size_t c = 0; c < n_cand; ++c) {
        if (in_placement[c]) continue;
        trial[slot] = c;
        const double delta = current - total_delay(trial);
        if (delta > best_delta + config.tolerance * std::max(1.0, current)) {
          best_delta = delta;
          best_slot = slot;
          best_replacement = c;
          improved = true;
        }
      }
    }
    if (!improved) break;
    in_placement[chosen[best_slot]] = false;
    in_placement[best_replacement] = true;
    chosen[best_slot] = best_replacement;
    current -= best_delta;
  }
  Placement result;
  for (const std::size_t c : chosen) result.push_back(input.candidates[c].node);
  return result;
}

TEST(PerfEquivalence, IncrementalLocalSearchMatchesNaiveReference) {
  GlobalPoolGuard guard;
  ThreadPool::set_global_thread_count(1);
  for (const std::uint64_t seed : {3u, 53u, 97u}) {
    const auto input = search_input(seed);
    const LocalSearchConfig config;
    const Placement naive = naive_local_search(input, config);
    const Placement incremental =
        LocalSearchPlacement(std::make_unique<GreedyPlacement>(), config).place(input);
    EXPECT_EQ(incremental, naive) << "seed=" << seed;
  }
}

TEST(PerfEquivalence, KMeansBitwiseDeterministicAcrossThreadCounts) {
  GlobalPoolGuard guard;
  Rng points_rng(71);
  std::vector<cluster::WeightedPoint> points;
  points.reserve(3000);
  for (std::size_t i = 0; i < 3000; ++i) {
    Point p(kDim);
    for (std::size_t d = 0; d < kDim; ++d) p[d] = points_rng.uniform(-200.0, 200.0);
    points.push_back({p, points_rng.uniform(0.5, 10.0)});
  }
  cluster::KMeansConfig config;
  config.k = 8;
  config.restarts = 2;

  ThreadPool::set_global_thread_count(1);
  Rng rng_one(5);
  const auto at_one = cluster::weighted_kmeans(points, config, rng_one);
  ThreadPool::set_global_thread_count(4);
  Rng rng_four(5);
  const auto at_four = cluster::weighted_kmeans(points, config, rng_four);

  EXPECT_EQ(at_four.objective, at_one.objective);  // bitwise
  EXPECT_EQ(at_four.assignment, at_one.assignment);
  ASSERT_EQ(at_four.centroids.size(), at_one.centroids.size());
  for (std::size_t c = 0; c < at_one.centroids.size(); ++c) {
    ASSERT_EQ(at_four.centroids[c].dim(), at_one.centroids[c].dim());
    for (std::size_t d = 0; d < at_one.centroids[c].dim(); ++d) {
      EXPECT_EQ(at_four.centroids[c][d], at_one.centroids[c][d]);
    }
  }
}

}  // namespace
}  // namespace geored::place
