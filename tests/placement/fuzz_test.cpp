// Randomized robustness sweep: every strategy must produce a valid
// placement — and the oracle must dominate — on arbitrary generated inputs:
// degenerate candidate layouts, coincident nodes, zero-access clients, huge
// weights, tiny and large k, with and without summaries.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "cluster/summarizer.h"
#include "common/random.h"
#include "placement/evaluate.h"
#include "placement/strategy.h"
#include "topology/topology.h"

namespace geored::place {
namespace {

struct FuzzWorld {
  topo::Topology topology;
  PlacementInput input;

  explicit FuzzWorld(std::uint64_t seed)
      : topology(topo::Topology(std::vector<topo::NodeInfo>(0), SymMatrix(0), {})) {
    Rng rng(seed);
    const std::size_t candidates = 2 + rng.below(12);
    const std::size_t clients = 1 + rng.below(50);
    const std::size_t n = candidates + clients;
    const std::size_t dim = 1 + rng.below(4);

    std::vector<Point> positions;
    for (std::size_t i = 0; i < n; ++i) {
      Point p(dim);
      // Occasionally coincident nodes and extreme coordinates.
      if (i > 0 && rng.bernoulli(0.1)) {
        p = positions[rng.below(i)];
      } else {
        for (std::size_t d = 0; d < dim; ++d) {
          p[d] = rng.bernoulli(0.05) ? rng.uniform(-1e5, 1e5) : rng.uniform(-300, 300);
        }
      }
      positions.push_back(p);
    }
    SymMatrix rtt(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        rtt.set(i, j, std::max(0.01, positions[i].distance_to(positions[j])));
      }
    }
    topology = topo::Topology(std::vector<topo::NodeInfo>(n), std::move(rtt), {});

    for (std::size_t c = 0; c < candidates; ++c) {
      input.candidates.push_back({static_cast<topo::NodeId>(c), positions[c],
                                  rng.bernoulli(0.2)
                                      ? rng.uniform(1.0, 100.0)
                                      : std::numeric_limits<double>::infinity()});
    }
    cluster::SummarizerConfig summarizer_config;
    summarizer_config.max_clusters = 1 + rng.below(10);
    cluster::MicroClusterSummarizer summarizer(summarizer_config);
    for (std::size_t u = candidates; u < n; ++u) {
      ClientRecord record;
      record.client = static_cast<topo::NodeId>(u);
      record.coords = positions[u];
      record.access_count =
          rng.bernoulli(0.1) ? 0 : 1 + rng.below(rng.bernoulli(0.05) ? 100000 : 50);
      input.clients.push_back(record);
      for (std::uint64_t a = 0; a < std::min<std::uint64_t>(record.access_count, 200);
           ++a) {
        summarizer.add(record.coords);
      }
    }
    if (rng.bernoulli(0.15)) {
      input.summaries.clear();  // no usage info at all
    } else {
      input.summaries = cluster::ClusterBuffer(summarizer.clusters());
    }
    input.k = 1 + rng.below(candidates + 2);  // sometimes > |C|
    input.seed = seed;
    input.topology = &topology;
  }
};

void run_fuzz_case(std::uint64_t seed) {
  const FuzzWorld world(seed);
  // Ensure at least one client has accesses (the oracle requires records;
  // the all-zero case is covered by dedicated tests).
  bool any_access = false;
  for (const auto& client : world.input.clients) any_access |= client.access_count > 0;

  const std::vector<StrategyKind> kinds{
      StrategyKind::kRandom,       StrategyKind::kOfflineKMeans,
      StrategyKind::kOnlineClustering, StrategyKind::kGreedy,
      StrategyKind::kHotZone,      StrategyKind::kLocalSearch};

  double optimal_delay = -1.0;
  if (any_access) {
    const auto optimal = make_strategy(StrategyKind::kOptimal)->place(world.input);
    ASSERT_NO_THROW(validate_placement(optimal, world.input));
    optimal_delay = true_total_delay(world.topology, optimal, world.input.clients);
  }
  for (const auto kind : kinds) {
    const auto placement = make_strategy(kind)->place(world.input);
    ASSERT_NO_THROW(validate_placement(placement, world.input))
        << strategy_name(kind) << " seed " << seed;
    if (any_access) {
      const double delay = true_total_delay(world.topology, placement, world.input.clients);
      EXPECT_GE(delay + 1e-6, optimal_delay) << strategy_name(kind);
    }
  }
}

class PlacementFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacementFuzz, EveryStrategyStaysValidAndOracleDominates) {
  run_fuzz_case(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementFuzz,
                         ::testing::Range<std::uint64_t>(1, 41));

// Extended sweep with a runtime-tunable budget: CI's sanitizer job sets
// GEORED_FUZZ_ITERS high to hunt for rare inputs; the default adds a light
// extra pass beyond the fixed seed range above. Seeds start at 1000 so the
// two sweeps never overlap.
TEST(PlacementFuzzBudget, ExtendedRandomSweep) {
  std::uint64_t iters = 10;
  if (const char* env = std::getenv("GEORED_FUZZ_ITERS")) {
    iters = std::strtoull(env, nullptr, 10);
  }
  for (std::uint64_t seed = 1000; seed < 1000 + iters; ++seed) {
    run_fuzz_case(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace geored::place
