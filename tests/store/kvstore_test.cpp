#include "store/kvstore.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "common/random.h"
#include "topology/topology.h"

namespace geored::store {
namespace {

/// The value "v<n>", built by appending: GCC 12 at -O3 reports a false
/// -Wrestrict overlap inside libstdc++ for "v" + std::to_string(n).
std::string value_for(std::uint64_t n) {
  std::string value = "v";
  value += std::to_string(n);
  return value;
}

/// Deterministic world: explicit 1-D positions, RTT = |distance| (min 0.1).
struct StoreWorld {
  topo::Topology topology;
  std::vector<place::CandidateInfo> candidates;
  std::vector<Point> positions;

  explicit StoreWorld(std::vector<double> xs, std::size_t dc_count)
      : topology(topo::Topology(std::vector<topo::NodeInfo>(0), SymMatrix(0), {})) {
    const std::size_t n = xs.size();
    SymMatrix rtt(n);
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back(Point{xs[i]});
      for (std::size_t j = i + 1; j < n; ++j) {
        rtt.set(i, j, std::max(0.1, std::abs(xs[i] - xs[j])));
      }
    }
    topology = topo::Topology(std::vector<topo::NodeInfo>(n), std::move(rtt), {});
    for (std::size_t i = 0; i < dc_count; ++i) {
      candidates.push_back({static_cast<topo::NodeId>(i), positions[i],
                            std::numeric_limits<double>::infinity()});
    }
  }
};

StoreConfig config_with(std::size_t n, std::size_t r, std::size_t w,
                        std::size_t groups = 4) {
  StoreConfig config;
  config.quorum = {n, r, w};
  config.groups = groups;
  config.manager.summarizer.max_clusters = 4;
  return config;
}

TEST(KvStore, RejectsInvalidConfig) {
  StoreWorld world({0, 100, 200, 300}, 3);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  EXPECT_THROW(ReplicatedKvStore(simulator, network, world.candidates,
                                 config_with(4, 1, 1), 1),
               std::invalid_argument);  // n > #DCs
  EXPECT_THROW(ReplicatedKvStore(simulator, network, world.candidates,
                                 config_with(3, 0, 1), 1),
               std::invalid_argument);
  EXPECT_THROW(ReplicatedKvStore(simulator, network, world.candidates,
                                 config_with(3, 1, 4), 1),
               std::invalid_argument);
  EXPECT_THROW(ReplicatedKvStore(simulator, network, {}, config_with(1, 1, 1), 1),
               std::invalid_argument);
}

TEST(KvStore, GroupHashIsStableAndInRange) {
  StoreWorld world({0, 100, 200}, 3);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  ReplicatedKvStore store(simulator, network, world.candidates, config_with(2, 1, 1, 8), 1);
  for (ObjectId id = 0; id < 1000; ++id) {
    const auto group = store.group_of(id);
    EXPECT_LT(group, 8u);
    EXPECT_EQ(group, store.group_of(id));
    EXPECT_EQ(store.placement_of_group(group).size(), 2u);
  }
  EXPECT_THROW(store.placement_of_group(8), std::invalid_argument);
}

TEST(KvStore, PutThenGetRoundTrip) {
  StoreWorld world({0, 100, 200, 50, 150}, 3);  // nodes 3,4 are clients
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  ReplicatedKvStore store(simulator, network, world.candidates, config_with(3, 2, 2), 1);

  std::optional<PutResult> put_result;
  store.put(3, world.positions[3], /*id=*/7, "hello",
            [&](const PutResult& r) { put_result = r; });
  simulator.run();
  ASSERT_TRUE(put_result.has_value());
  EXPECT_GT(put_result->latency_ms, 0.0);
  EXPECT_GT(put_result->version, Version::zero());

  std::optional<GetResult> get_result;
  store.get(4, world.positions[4], 7, [&](const GetResult& r) { get_result = r; });
  simulator.run();
  ASSERT_TRUE(get_result.has_value());
  EXPECT_TRUE(get_result->value.exists());
  EXPECT_EQ(get_result->value.data, "hello");
  EXPECT_FALSE(get_result->stale);
  EXPECT_EQ(store.reads(), 1u);
  EXPECT_EQ(store.writes(), 1u);
  EXPECT_EQ(store.stale_reads(), 0u);
  // Every completed operation lands in the tail-latency histograms, in the
  // bucket of its measured latency.
  EXPECT_EQ(store.put_latency_histogram().total(), 1u);
  EXPECT_EQ(store.get_latency_histogram().total(), 1u);
  EXPECT_DOUBLE_EQ(store.put_latency_histogram().mean_ms(), put_result->latency_ms);
  EXPECT_LE(store.get_latency_histogram().quantile(0.99), get_result->latency_ms);
}

TEST(KvStore, MissingKeyIsNotFound) {
  StoreWorld world({0, 100, 200, 50}, 3);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  ReplicatedKvStore store(simulator, network, world.candidates, config_with(3, 1, 1), 1);
  std::optional<GetResult> result;
  store.get(3, world.positions[3], 12345, [&](const GetResult& r) { result = r; });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->value.exists());
  EXPECT_EQ(store.not_found_reads(), 1u);
}

TEST(KvStore, QuorumIntersectionGivesReadYourWrites) {
  // r + w > n: a read issued after a put completes always sees it, from any
  // client, under any replica placement. Sweep several object ids so the
  // test covers multiple groups/placements.
  StoreWorld world({0, 80, 160, 240, 40, 200}, 4);  // clients at nodes 4, 5
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  ReplicatedKvStore store(simulator, network, world.candidates, config_with(3, 2, 2, 4),
                          7);
  for (ObjectId id = 0; id < 20; ++id) {
    bool done = false;
    store.put(4, world.positions[4], id, value_for(id), [&](const PutResult&) {
      // Issue the read the instant the write commits.
      store.get(5, world.positions[5], id, [&, id](const GetResult& r) {
        EXPECT_EQ(r.value.data, value_for(id));
        EXPECT_FALSE(r.stale);
        done = true;
      });
    });
    simulator.run();
    EXPECT_TRUE(done);
  }
  EXPECT_EQ(store.stale_reads(), 0u);
}

TEST(KvStore, WeakQuorumProducesStaleReads) {
  // n=3, r=1, w=1: the writer's nearby replica acks instantly, the far
  // replicas learn late; a distant reader hitting its local replica right
  // after the commit sees the old (here: no) value.
  // Geometry: writer at 0 next to DC0; reader at 1000 next to DC2; DC1 in
  // the middle so placements always straddle the gap.
  StoreWorld world({0, 500, 1000, 1, 999}, 3);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  StoreConfig config = config_with(3, 1, 1, 1);
  ReplicatedKvStore store(simulator, network, world.candidates, config, 7);

  std::uint64_t observed_stale = 0;
  for (ObjectId id = 0; id < 10; ++id) {
    store.put(3, world.positions[3], id, "fresh-" + std::to_string(id),
              [&](const PutResult&) {
                store.get(4, world.positions[4], id, [&](const GetResult& r) {
                  observed_stale += r.stale ? 1 : 0;
                });
              });
    simulator.run();
  }
  EXPECT_GT(observed_stale, 0u);
  EXPECT_EQ(store.stale_reads(), observed_stale);
}

TEST(KvStore, LastWriterWinsConvergesAllReplicas) {
  // Two clients write the same key concurrently; once the dust settles all
  // replicas of the group hold the same winning version.
  StoreWorld world({0, 100, 200, 10, 190}, 3);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  ReplicatedKvStore store(simulator, network, world.candidates, config_with(3, 1, 1, 1),
                          3);
  constexpr ObjectId kId = 99;
  store.put(3, world.positions[3], kId, "from-west", [](const PutResult&) {});
  store.put(4, world.positions[4], kId, "from-east", [](const PutResult&) {});
  simulator.run();

  const std::uint32_t group = store.group_of(kId);
  const auto& placement = store.placement_of_group(group);
  const VersionedValue reference = store.storage_at(placement.front()).read(group, kId);
  ASSERT_TRUE(reference.exists());
  for (const auto node : placement) {
    const VersionedValue value = store.storage_at(node).read(group, kId);
    EXPECT_EQ(value.version, reference.version);
    EXPECT_EQ(value.data, reference.data);
  }
  // Same Lamport counter from both writers: the higher writer id wins.
  EXPECT_EQ(reference.data, "from-east");
}

TEST(KvStore, PlacementEpochMigratesGroupData) {
  // All traffic comes from clients clustered at x~0 while the store may
  // have started anywhere; after an epoch every group's placement includes
  // the candidates near 0 and the data is present at the new replicas.
  StoreWorld world({0, 20, 400, 600, 800, 5, 8, 11}, 5);  // clients at 5..7
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  StoreConfig config = config_with(2, 1, 2, 2);
  config.manager.migration.min_relative_gain = 0.01;
  config.manager.migration.min_absolute_gain_ms = 0.1;
  ReplicatedKvStore store(simulator, network, world.candidates, config, 12345);

  Rng rng(5);
  for (int round = 0; round < 200; ++round) {
    const auto client = static_cast<topo::NodeId>(5 + rng.below(3));
    store.put(client, world.positions[client], rng.below(40), "payload",
              [](const PutResult&) {});
  }
  simulator.run();

  const auto reports = store.run_placement_epochs();
  simulator.run();  // let migration transfers land
  ASSERT_EQ(reports.size(), 2u);

  for (ObjectId id = 0; id < 40; ++id) {
    const auto group = store.group_of(id);
    const auto& placement = store.placement_of_group(group);
    // New placements sit near the client cluster.
    for (const auto node : placement) {
      EXPECT_LT(world.positions[node][0], 450.0) << "group " << group;
    }
    // Every current replica can serve every object that was written.
    bool was_written = false;
    for (const auto node : placement) {
      if (store.storage_at(node).read(group, id).exists()) was_written = true;
    }
    if (was_written) {
      for (const auto node : placement) {
        EXPECT_TRUE(store.storage_at(node).read(group, id).exists())
            << "object " << id << " missing at dc" << node;
      }
    }
  }
  // Traffic accounting saw the migrations.
  EXPECT_GT(network.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kMigration)],
            0u);
}

TEST(KvStore, ReadRepairConvergesStaleReplicas) {
  // Writer at x=5 (next to the replica at 0), reader at x=599 (next to the
  // replica at 600). A w=1 write commits in ~5 ms; the replication to the
  // far replicas needs ~150-300 ms more. A reader triggered at commit time
  // with r = n reaches the far replicas first, observes the divergence,
  // returns the newest version, and repairs the stale copies.
  StoreWorld world({0, 300, 600, 5, 599}, 3);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  StoreConfig config = config_with(3, 3, 1, 1);
  config.read_repair = true;
  ReplicatedKvStore store(simulator, network, world.candidates, config, 1);

  // Seed and drain: every replica holds "fresh".
  store.put(3, world.positions[3], 42, "fresh", [](const PutResult&) {});
  simulator.run();

  bool read_done = false;
  store.put(3, world.positions[3], 42, "fresher", [&](const PutResult&) {
    // w=1 commit: the far replicas still hold "fresh". Read from the east.
    store.get(4, world.positions[4], 42, [&](const GetResult& r) {
      EXPECT_EQ(r.value.data, "fresher");  // newest among the r = 3 replies
      read_done = true;
    });
  });
  simulator.run();
  ASSERT_TRUE(read_done);
  EXPECT_GT(store.read_repairs(), 0u);
  // After the dust settles every replica holds the repaired value.
  const auto& placement = store.placement_of_group(store.group_of(42));
  for (const auto node : placement) {
    EXPECT_EQ(store.storage_at(node).read(store.group_of(42), 42).data, "fresher");
  }
}

TEST(KvStore, ReadRepairOffByDefault) {
  StoreWorld world({0, 300, 600, 5}, 3);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  ReplicatedKvStore store(simulator, network, world.candidates, config_with(3, 3, 1), 1);
  store.put(3, world.positions[3], 1, "x", [](const PutResult&) {});
  simulator.run();
  store.get(3, world.positions[3], 1, [](const GetResult&) {});
  simulator.run();
  EXPECT_EQ(store.read_repairs(), 0u);
}

TEST(KvStore, RejectedCallsLeaveNoTrace) {
  // A put/get with a client outside the topology or coordinates of the
  // wrong dimension is rejected before it records an access, mints a
  // version, sends a message or touches storage.
  StoreWorld world({0, 100, 200, 50}, 3);
  const auto fresh_version = [&] {
    sim::Simulator simulator;
    sim::Network network(simulator, world.topology);
    ReplicatedKvStore store(simulator, network, world.candidates, config_with(3, 1, 1, 1), 1);
    Version version;
    store.put(3, world.positions[3], 1, "x", [&](const PutResult& r) { version = r.version; });
    simulator.run();
    return version;
  };

  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  ReplicatedKvStore store(simulator, network, world.candidates, config_with(3, 1, 1, 1), 1);
  const Point wrong_dim{50.0, 0.0};
  const auto put_cb = [](const PutResult&) {};
  const auto get_cb = [](const GetResult&) {};
  EXPECT_THROW(store.put(99, world.positions[3], 1, "x", put_cb), std::invalid_argument);
  EXPECT_THROW(store.get(99, world.positions[3], 1, get_cb), std::invalid_argument);
  EXPECT_THROW(store.put(3, wrong_dim, 1, "x", put_cb), std::invalid_argument);
  EXPECT_THROW(store.get(3, wrong_dim, 1, get_cb), std::invalid_argument);

  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_EQ(store.manager_of_group(0).epoch_accesses(), 0u);
  EXPECT_EQ(network.stats().total_bytes(), 0u);
  EXPECT_EQ(store.reads() + store.writes(), 0u);
  for (const auto& candidate : world.candidates) {
    EXPECT_EQ(store.storage_at(candidate.node).object_count(), 0u);
  }
  // Client 3's clock minted nothing: its next put gets a fresh store's version.
  Version version;
  store.put(3, world.positions[3], 1, "x", [&](const PutResult& r) { version = r.version; });
  simulator.run();
  EXPECT_EQ(version, fresh_version());
  EXPECT_EQ(store.manager_of_group(0).epoch_accesses(), 1u);
}

TEST(KvStore, LatencyReflectsQuorumSize) {
  // Reads that must hear from 3 replicas are slower than reads needing 1.
  StoreWorld world({0, 300, 600, 10}, 3);
  const ObjectId id = 4;
  const auto measure = [&](std::size_t r) {
    sim::Simulator simulator;
    sim::Network network(simulator, world.topology);
    ReplicatedKvStore store(simulator, network, world.candidates,
                            config_with(3, r, 3, 1), 1);
    store.put(3, world.positions[3], id, "v", [](const PutResult&) {});
    simulator.run();
    double latency = 0.0;
    store.get(3, world.positions[3], id,
              [&](const GetResult& res) { latency = res.latency_ms; });
    simulator.run();
    return latency;
  };
  EXPECT_LT(measure(1), measure(3));
}

}  // namespace
}  // namespace geored::store
