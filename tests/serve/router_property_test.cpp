// Property tests for the request router, in the style of
// cluster/summarizer_fuzz_test.cpp: a seeded parameterized sweep for CI plus
// a GEORED_FUZZ_ITERS-scaled extended budget.
//
// Invariants checked against an independent brute-force model per request:
//   1. An admitted (non-spilled) request is served by the nearest up replica
//      by squared coordinate distance, ties to the lowest NodeId.
//   2. Admission never exceeds queue_cap at any replica, and a request is
//      never routed to a down replica.
//   3. RequestRouter (SoA + SIMD batch kernels) and the frozen ScalarRouter
//      produce byte-identical decisions, counters, and histogram buckets,
//      and route_batch reproduces a route() loop bit for bit, at batch
//      sizes on both sides of its tile boundaries and in both the in-order
//      and the indices form.
//   4. Histogram merge across shards equals a single-pass histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "common/point.h"
#include "common/point_set.h"
#include "common/random.h"
#include "reference/router_scalar.h"
#include "serve/request_router.h"

namespace geored::serve {
namespace {

struct FuzzWorld {
  ServeConfig config;
  std::vector<ReplicaSpec> replicas;  // ascending NodeId
  std::size_t dim = 0;
};

FuzzWorld make_world(Rng& rng) {
  FuzzWorld world;
  world.config.service_ms = rng.uniform(0.1, 5.0);
  world.config.queue_cap = 1 + static_cast<std::size_t>(rng.uniform(0.0, 8.0));
  world.config.policy = rng.uniform() < 0.5 ? ServeConfig::Policy::kSpill
                                            : ServeConfig::Policy::kReject;
  world.dim = 2 + static_cast<std::size_t>(rng.uniform(0.0, 4.0));
  const std::size_t replica_count = 1 + static_cast<std::size_t>(rng.uniform(0.0, 11.0));
  topo::NodeId node = 0;
  for (std::size_t i = 0; i < replica_count; ++i) {
    node += 1 + static_cast<topo::NodeId>(rng.uniform(0.0, 3.0));  // id gaps
    Point coords(world.dim);
    for (std::size_t d = 0; d < world.dim; ++d) coords[d] = rng.uniform(-50.0, 50.0);
    // Occasionally duplicate an earlier replica's coordinates to force
    // distance ties — the lowest-NodeId winner must be deterministic.
    if (!world.replicas.empty() && rng.uniform() < 0.2) {
      const auto& twin =
          world.replicas[static_cast<std::size_t>(rng.uniform(0.0, 0.999) *
                                                  static_cast<double>(world.replicas.size()))];
      coords = twin.coords;
    }
    world.replicas.push_back({node, coords});
  }
  return world;
}

/// Independent model: nearest up replica by squared distance, first winner
/// (lowest NodeId) on ties. Returns replicas.size() when everything is down.
std::size_t brute_force_nearest(const FuzzWorld& world, const std::set<topo::NodeId>& down,
                                const Point& query) {
  std::size_t best = world.replicas.size();
  double best_sq = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < world.replicas.size(); ++i) {
    if (down.count(world.replicas[i].node) != 0) continue;
    double sq = 0.0;
    for (std::size_t d = 0; d < world.dim; ++d) {
      const double delta = query[d] - world.replicas[i].coords[d];
      sq += delta * delta;
    }
    if (sq < best_sq) {
      best_sq = sq;
      best = i;
    }
  }
  return best;
}

void expect_same_decision(const RouteDecision& got, const RouteDecision& want,
                          std::size_t request) {
  ASSERT_EQ(static_cast<int>(got.outcome), static_cast<int>(want.outcome))
      << "request " << request;
  if (got.admitted()) {
    ASSERT_EQ(got.replica, want.replica) << "request " << request;
    ASSERT_EQ(got.wait_ms, want.wait_ms) << "request " << request;
    ASSERT_EQ(got.dist_sq, want.dist_sq) << "request " << request;
  }
}

void expect_same_state(const RequestRouter& router, const ScalarRouter& scalar) {
  ASSERT_EQ(router.stats().requests, scalar.stats().requests);
  ASSERT_EQ(router.stats().admitted, scalar.stats().admitted);
  ASSERT_EQ(router.stats().rejected, scalar.stats().rejected);
  ASSERT_EQ(router.stats().spilled, scalar.stats().spilled);
  ASSERT_EQ(router.stats().lost, scalar.stats().lost);
  ASSERT_EQ(router.histogram().total(), scalar.histogram().total());
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    ASSERT_EQ(router.histogram().bucket_count(b), scalar.histogram().bucket_count(b))
        << "bucket " << b;
  }
}

void run_router_sweep(std::uint64_t seed) {
  Rng rng(seed);
  FuzzWorld world = make_world(rng);

  RequestRouter router(world.config);
  ScalarRouter scalar(world.config);
  router.set_replicas(world.replicas);
  scalar.set_replicas(world.replicas);

  // Shard the latency stream into two histograms on the side; their merge
  // must equal the router's single-pass histogram.
  LatencyHistogram shard_a;
  LatencyHistogram shard_b;

  std::set<topo::NodeId> down;
  double now = 0.0;
  const std::size_t requests = 400;
  for (std::size_t r = 0; r < requests; ++r) {
    if (r % 50 == 0) {
      // Re-roll the down set (sometimes everything: the kLost path).
      down.clear();
      const double down_probability = rng.uniform() < 0.1 ? 1.0 : rng.uniform(0.0, 0.6);
      for (const auto& replica : world.replicas) {
        if (rng.uniform() < down_probability) down.insert(replica.node);
      }
      router.set_down(down);
      scalar.set_down(down);
    }
    now += rng.exponential(1.0 / world.config.service_ms);
    Point query(world.dim);
    for (std::size_t d = 0; d < world.dim; ++d) query[d] = rng.uniform(-60.0, 60.0);

    const RouteDecision decision = router.route(query, now);
    const RouteDecision reference = scalar.route(query, now);
    expect_same_decision(decision, reference, r);
    if (::testing::Test::HasFatalFailure()) return;

    const std::size_t nearest = brute_force_nearest(world, down, query);
    if (nearest == world.replicas.size()) {
      ASSERT_EQ(static_cast<int>(decision.outcome),
                static_cast<int>(RouteDecision::Outcome::kLost));
    } else if (decision.outcome == RouteDecision::Outcome::kAdmitted) {
      // Invariant 1: admitted-at-primary == brute-force nearest up replica.
      ASSERT_EQ(decision.replica, world.replicas[nearest].node) << "request " << r;
    }
    if (decision.admitted()) {
      // Invariant 2: never a down replica, never beyond the cap.
      ASSERT_EQ(down.count(decision.replica), 0u) << "request " << r;
      const double rtt = rng.uniform(1.0, 200.0);
      const double latency = router.complete(decision, rtt);
      const double scalar_latency = scalar.complete(reference, rtt);
      ASSERT_EQ(latency, scalar_latency);
      ASSERT_EQ(latency, rtt + decision.wait_ms + world.config.service_ms);
      (r % 2 == 0 ? shard_a : shard_b).record(latency);
    }
    for (const auto& replica : world.replicas) {
      ASSERT_LE(router.resident_at(replica.node, now), world.config.queue_cap)
          << "request " << r << " node " << replica.node;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  expect_same_state(router, scalar);
  if (::testing::Test::HasFatalFailure()) return;

  // Invariant 4: sharded histograms merge to the single-pass histogram.
  LatencyHistogram merged = shard_a;
  merged.merge(shard_b);
  ASSERT_EQ(merged.total(), router.histogram().total());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    ASSERT_EQ(merged.quantile(q), router.histogram().quantile(q)) << "q=" << q;
  }

  // Invariant 3 (batch): replay the same world through route_batch in
  // down-set-stable segments; decisions must be bit-identical to a fresh
  // route() loop. Fresh routers so queue state starts equal.
  RequestRouter batch_router(world.config);
  RequestRouter loop_router(world.config);
  batch_router.set_replicas(world.replicas);
  loop_router.set_replicas(world.replicas);
  // Four short batches of rows in order come first. Then each size around
  // the kernel tile (route_batch scans kRouteTile requests at a time) runs
  // twice: as rows in order (indices == nullptr), and in the indices form
  // as a permuted subset of a pool twice as large.
  constexpr std::size_t kTile = RequestRouter::kRouteTile;
  const std::size_t tile_sizes[] = {kTile - 1, kTile, kTile + 1, 3 * kTile + 5};
  constexpr std::size_t kShortSegments = 4;
  Rng replay = rng.fork(1);
  double batch_now = 0.0;
  for (std::size_t segment = 0; segment < kShortSegments + 2 * std::size(tile_sizes);
       ++segment) {
    std::set<topo::NodeId> segment_down;
    for (const auto& replica : world.replicas) {
      if (replay.uniform() < 0.3) segment_down.insert(replica.node);
    }
    batch_router.set_down(segment_down);
    loop_router.set_down(segment_down);

    const bool tiled = segment >= kShortSegments;
    const bool indexed = tiled && (segment - kShortSegments) % 2 == 1;
    const std::size_t batch_size =
        tiled ? tile_sizes[(segment - kShortSegments) / 2]
              : 1 + static_cast<std::size_t>(replay.uniform(0.0, 96.0));
    const std::size_t pool = indexed ? 2 * batch_size : batch_size;
    PointSet queries(world.dim);
    for (std::size_t j = 0; j < pool; ++j) {
      Point query(world.dim);
      for (std::size_t d = 0; d < world.dim; ++d) query[d] = replay.uniform(-60.0, 60.0);
      queries.push_back(query);
    }
    std::vector<std::size_t> rows(pool);
    for (std::size_t j = 0; j < pool; ++j) rows[j] = j;
    if (indexed) {
      for (std::size_t j = pool - 1; j > 0; --j) std::swap(rows[j], rows[replay.below(j + 1)]);
      rows.resize(batch_size);
    }
    std::vector<double> nows;
    for (std::size_t j = 0; j < batch_size; ++j) {
      batch_now += replay.exponential(2.0 / world.config.service_ms);
      nows.push_back(batch_now);
    }
    std::vector<RouteDecision> batch_decisions(batch_size);
    batch_router.route_batch(queries, indexed ? rows.data() : nullptr, batch_size, nows.data(),
                             batch_decisions.data());
    for (std::size_t j = 0; j < batch_size; ++j) {
      const RouteDecision looped = loop_router.route(queries.row(rows[j]), nows[j]);
      expect_same_decision(batch_decisions[j], looped, j);
      if (::testing::Test::HasFatalFailure()) return;
      if (looped.admitted()) {
        const double rtt = 1.0 + batch_decisions[j].dist_sq;
        batch_router.complete(batch_decisions[j], rtt);
        loop_router.complete(looped, rtt);
      }
    }
  }
  ASSERT_EQ(batch_router.stats().requests, loop_router.stats().requests);
  ASSERT_EQ(batch_router.stats().admitted, loop_router.stats().admitted);
  ASSERT_EQ(batch_router.stats().spilled, loop_router.stats().spilled);
  ASSERT_EQ(batch_router.stats().rejected, loop_router.stats().rejected);
  ASSERT_EQ(batch_router.stats().lost, loop_router.stats().lost);
  ASSERT_EQ(batch_router.histogram().total(), loop_router.histogram().total());
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    ASSERT_EQ(batch_router.histogram().bucket_count(b),
              loop_router.histogram().bucket_count(b));
  }
}

class RouterFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouterFuzz, InvariantsHoldOnSeededWorlds) { run_router_sweep(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, RouterFuzz, ::testing::Range<std::uint64_t>(1, 17));

// Extended sweep whose budget scales with GEORED_FUZZ_ITERS (default keeps
// CI fast; nightly runs crank it up).
TEST(RouterFuzzBudget, ExtendedRandomSweep) {
  std::uint64_t iters = 5;
  if (const char* env = std::getenv("GEORED_FUZZ_ITERS")) {
    iters = std::strtoull(env, nullptr, 10);
  }
  for (std::uint64_t seed = 1000; seed < 1000 + iters; ++seed) {
    run_router_sweep(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Deterministic tie-break: two replicas at the same coordinates — the lower
// NodeId must win regardless of spec order.
TEST(RouterProperty, TiesGoToTheLowestNodeId) {
  ServeConfig config;
  config.queue_cap = 4;
  RequestRouter router(config);
  const Point shared{1.0, 2.0};
  router.set_replicas({{9, shared}, {3, shared}, {7, {40.0, 40.0}}});
  const RouteDecision decision = router.route(Point{1.0, 2.0}, 0.0);
  ASSERT_TRUE(decision.admitted());
  EXPECT_EQ(decision.replica, 3u);
}

// A full primary under kSpill serves from the second-nearest; under kReject
// it rejects. Either way the cap holds exactly.
TEST(RouterProperty, FullQueueSpillsOrRejectsAtTheCap) {
  for (const auto policy : {ServeConfig::Policy::kSpill, ServeConfig::Policy::kReject}) {
    ServeConfig config;
    config.service_ms = 10.0;
    config.queue_cap = 2;
    config.policy = policy;
    RequestRouter router(config);
    router.set_replicas({{1, {0.0, 0.0}}, {2, {5.0, 0.0}}});
    const Point near_one{0.1, 0.0};
    ASSERT_EQ(router.route(near_one, 0.0).replica, 1u);
    ASSERT_EQ(router.route(near_one, 0.0).replica, 1u);
    EXPECT_EQ(router.resident_at(1, 0.0), 2u);
    const RouteDecision third = router.route(near_one, 0.0);
    if (policy == ServeConfig::Policy::kSpill) {
      EXPECT_EQ(static_cast<int>(third.outcome),
                static_cast<int>(RouteDecision::Outcome::kSpilled));
      EXPECT_EQ(third.replica, 2u);
    } else {
      EXPECT_EQ(static_cast<int>(third.outcome),
                static_cast<int>(RouteDecision::Outcome::kRejected));
    }
    EXPECT_EQ(router.resident_at(1, 0.0), 2u);  // cap never exceeded
  }
}

}  // namespace
}  // namespace geored::serve
