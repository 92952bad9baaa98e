#include "core/replication_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"

namespace geored::core {
namespace {

/// Candidates on a 1-D line at x = 0, 100, 200, ..., 900.
std::vector<place::CandidateInfo> line_candidates(std::size_t count = 10) {
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < count; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i),
                          Point{100.0 * static_cast<double>(i)},
                          std::numeric_limits<double>::infinity()});
  }
  return candidates;
}

ManagerConfig small_config(std::size_t k = 2) {
  ManagerConfig config;
  config.replication_degree = k;
  config.summarizer.max_clusters = 4;
  config.summarizer.min_absorb_radius = 10.0;
  config.migration.min_relative_gain = 0.05;
  config.migration.min_absolute_gain_ms = 1.0;
  return config;
}

TEST(Manager, InitialPlacementIsValidRandomSubset) {
  ReplicationManager manager(line_candidates(), small_config(3), 1);
  EXPECT_EQ(manager.degree(), 3u);
  const auto& placement = manager.placement();
  ASSERT_EQ(placement.size(), 3u);
  std::set<topo::NodeId> unique(placement.begin(), placement.end());
  EXPECT_EQ(unique.size(), 3u);
  for (const auto node : placement) EXPECT_LT(node, 10u);
}

TEST(Manager, RejectsBadConfig) {
  EXPECT_THROW(ReplicationManager({}, small_config(), 1), std::invalid_argument);
  ManagerConfig config = small_config();
  config.replication_degree = 0;
  EXPECT_THROW(ReplicationManager(line_candidates(), config, 1), std::invalid_argument);
  config = small_config();
  config.min_degree = 5;
  config.max_degree = 2;
  EXPECT_THROW(ReplicationManager(line_candidates(), config, 1), std::invalid_argument);
}

TEST(Manager, ServeRoutesToNearestReplica) {
  ReplicationManager manager(line_candidates(), small_config(2), 7);
  const auto& placement = manager.placement();
  // A client exactly at a replica's coordinate is served by it.
  for (const auto node : placement) {
    EXPECT_EQ(manager.serve(Point{100.0 * node}), node);
  }
  EXPECT_EQ(manager.epoch_accesses(), placement.size());
}

TEST(Manager, RecordAccessRejectsNonReplica) {
  ReplicationManager manager(line_candidates(), small_config(2), 7);
  topo::NodeId not_a_replica = 0;
  while (std::find(manager.placement().begin(), manager.placement().end(),
                   not_a_replica) != manager.placement().end()) {
    ++not_a_replica;
  }
  EXPECT_THROW(manager.record_access(not_a_replica, Point{0.0}), std::invalid_argument);
  EXPECT_THROW(manager.summary_of(not_a_replica), std::invalid_argument);
}

TEST(Manager, RejectsBadClientCoordinatesWithoutSideEffects) {
  // A non-finite component would poison a replica's centroids, and a
  // foreign dimension would wedge every later epoch, so every entry point
  // that routes or records throws before staging or counting anything.
  ReplicationManager manager(line_candidates(), small_config(2), 7);
  const auto placement = manager.placement();
  for (int i = 0; i < 10; ++i) manager.record_access(placement[0], Point{10.0 * i});
  const std::uint64_t accesses = manager.epoch_accesses();
  const auto checkpoint = [&manager] {
    ByteWriter writer;
    manager.save(writer);  // carries the counters and the serialized summaries
    return writer.bytes();
  };
  const auto before = checkpoint();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Point& bad : {Point{nan}, Point{inf}, Point{-inf}, Point{1.0, 2.0}}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(manager.serve(bad), std::invalid_argument);
    EXPECT_THROW(manager.route(bad), std::invalid_argument);
    // placement[0] has staged rows; placement[1] has none, so nothing but
    // the entry check stops a foreign dimension from becoming its staging
    // dimension.
    for (const auto replica : placement) {
      EXPECT_THROW(manager.record_access(replica, bad), std::invalid_argument);
      // A good row ahead of the bad one: the whole batch is rejected.
      PointSet batch(bad.dim());
      if (bad.dim() == 1) batch.push_back(Point{50.0});
      batch.push_back(bad);
      EXPECT_THROW(manager.record_access_batch(replica, batch), std::invalid_argument);
    }
    EXPECT_EQ(manager.epoch_accesses(), accesses);
  }
  EXPECT_EQ(checkpoint(), before);

  // Finite coordinates whose squared distance to every replica overflows
  // leave route nothing to choose; serve throws instead of dereferencing.
  EXPECT_FALSE(manager.route(Point{1e300}).has_value());
  EXPECT_THROW(manager.serve(Point{1e300}), std::invalid_argument);
  EXPECT_EQ(manager.epoch_accesses(), accesses);
  EXPECT_EQ(checkpoint(), before);

  // Not wedged: the next epoch runs on exactly the good accesses.
  EXPECT_EQ(manager.run_epoch().epoch_accesses, accesses);
}

// Named apart from `Manager` so the tsan CI tier (which runs suites by
// name) picks it up: the whole point of this suite is what the sanitizer
// sees when many threads hit the staging paths at once.
TEST(IngestConcurrency, ConcurrentRecordPathsLoseNothing) {
  ReplicationManager manager(line_candidates(), small_config(2), 7);
  const auto placement = manager.placement();  // copy: threads use it freely
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBatchesPerThread = 32;
  constexpr std::size_t kRowsPerBatch = 16;
  // Every thread records batches and single accesses against both replicas
  // concurrently — the manager's ingest mutex must serialize the staging so
  // the total is exact (no torn batch, no lost bump).
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t b = 0; b < kBatchesPerThread; ++b) {
        const topo::NodeId replica = placement[(t + b) % placement.size()];
        PointSet batch;
        for (std::size_t r = 0; r < kRowsPerBatch; ++r) {
          batch.push_back(Point{100.0 * static_cast<double>((t + r) % 10)});
        }
        manager.record_access_batch(replica, batch);
        manager.record_access(placement[t % placement.size()],
                              Point{50.0 * static_cast<double>(t)});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(manager.epoch_accesses(),
            kThreads * kBatchesPerThread * (kRowsPerBatch + 1));
  // The staged accesses must all reach summarizers and the epoch must run
  // cleanly on them.
  const EpochReport report = manager.run_epoch();
  EXPECT_EQ(report.epoch_accesses, kThreads * kBatchesPerThread * (kRowsPerBatch + 1));
  EXPECT_EQ(manager.epoch_accesses(), 0u);
}

TEST(IngestConcurrency, RecordsDuringFlushAreNotTorn) {
  // Readers (flush_ingest via epoch_accesses/summary_of) interleave with
  // writers; under tsan this is the schedule that catches a forgotten lock
  // on the flush path.
  ReplicationManager manager(line_candidates(), small_config(2), 11);
  const auto placement = manager.placement();
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      manager.flush_ingest();
      std::this_thread::yield();
    }
  });
  constexpr std::size_t kAccesses = 512;
  for (std::size_t i = 0; i < kAccesses; ++i) {
    manager.record_access(placement[i % placement.size()],
                          Point{100.0 * static_cast<double>(i % 10)});
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(manager.epoch_accesses(), kAccesses);
}

TEST(Manager, EpochMigratesTowardsClientPopulation) {
  // All clients sit near x=0; wherever the seeded initial replicas landed,
  // after one epoch the placement must include candidate 0 or 1.
  ReplicationManager manager(line_candidates(), small_config(2), 12345);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    manager.serve(Point{rng.normal(0.0, 20.0)});
  }
  const auto report = manager.run_epoch();
  EXPECT_EQ(report.epoch_accesses, 2000u);
  EXPECT_GT(report.summary_bytes, 0u);
  const auto& placement = manager.placement();
  const bool near_population =
      std::find(placement.begin(), placement.end(), 0u) != placement.end() ||
      std::find(placement.begin(), placement.end(), 1u) != placement.end();
  EXPECT_TRUE(near_population);
  // The adopted placement is what the manager now serves from.
  EXPECT_EQ(report.adopted_placement, placement);
}

TEST(Manager, EpochReportsEstimatedDelays) {
  ReplicationManager manager(line_candidates(), small_config(2), 99);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) manager.serve(Point{rng.normal(450.0, 30.0)});
  const auto report = manager.run_epoch();
  EXPECT_GE(report.old_estimated_delay_ms, 0.0);
  EXPECT_GE(report.new_estimated_delay_ms, 0.0);
  if (report.decision.migrate) {
    EXPECT_LT(report.new_estimated_delay_ms, report.old_estimated_delay_ms);
  }
}

TEST(Manager, StablePlacementIsNotChurned) {
  // Once the placement matches the population, further epochs must not move
  // replicas (the migration gate rejects no-gain proposals).
  ReplicationManager manager(line_candidates(), small_config(2), 3);
  Rng rng(5);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 1000; ++i) {
      manager.serve(Point{rng.normal(0.0, 15.0)});
      manager.serve(Point{rng.normal(900.0, 15.0)});
    }
    manager.run_epoch();
  }
  const auto stable = manager.placement();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 1000; ++i) {
      manager.serve(Point{rng.normal(0.0, 15.0)});
      manager.serve(Point{rng.normal(900.0, 15.0)});
    }
    const auto report = manager.run_epoch();
    EXPECT_FALSE(report.decision.migrate) << report.decision.reason;
    EXPECT_EQ(manager.placement(), stable);
  }
}

TEST(Manager, SummariesSurviveMigrationByRedistribution) {
  ReplicationManager manager(line_candidates(), small_config(2), 12345);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) manager.serve(Point{rng.normal(0.0, 10.0)});
  const auto report = manager.run_epoch();
  if (report.decision.migrate) {
    // Knowledge of the population was handed to the new replicas.
    std::uint64_t retained = 0;
    for (const auto node : manager.placement()) {
      for (const auto& micro : manager.summary_of(node)) retained += micro.count();
    }
    EXPECT_EQ(retained, 1000u);
  }
}

TEST(Manager, DynamicDegreeGrowsAndShrinksWithDemand) {
  ManagerConfig config = small_config(2);
  config.dynamic_degree = true;
  config.grow_accesses_per_replica = 100.0;
  config.shrink_accesses_per_replica = 10.0;
  config.min_degree = 1;
  config.max_degree = 4;
  ReplicationManager manager(line_candidates(), config, 21);
  Rng rng(9);

  // Heavy demand: degree grows 2 -> 3.
  for (int i = 0; i < 500; ++i) manager.serve(Point{rng.uniform(0.0, 900.0)});
  auto report = manager.run_epoch();
  EXPECT_EQ(report.degree, 3u);
  EXPECT_EQ(manager.placement().size(), 3u);

  // Light demand: degree shrinks.
  for (int i = 0; i < 5; ++i) manager.serve(Point{rng.uniform(0.0, 900.0)});
  report = manager.run_epoch();
  EXPECT_EQ(report.degree, 2u);
  EXPECT_EQ(manager.placement().size(), 2u);

  // Demand bounds are respected.
  report = manager.run_epoch();
  EXPECT_GE(report.degree, config.min_degree);
}

TEST(Manager, DeterministicAcrossIdenticalRuns) {
  const auto run = [] {
    ReplicationManager manager(line_candidates(), small_config(3), 77);
    Rng rng(13);
    for (int i = 0; i < 800; ++i) manager.serve(Point{rng.uniform(0.0, 900.0)});
    manager.run_epoch();
    return manager.placement();
  };
  EXPECT_EQ(run(), run());
}

TEST(Manager, ExcludedCandidatesAreNeverChosen) {
  ReplicationManager manager(line_candidates(), small_config(3), 7);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) manager.serve(Point{rng.uniform(0.0, 900.0)});
  std::set<topo::NodeId> excluded{0, 1, 2, 3, 4};
  const auto report = manager.run_epoch(excluded);
  for (const auto node : report.adopted_placement) {
    EXPECT_FALSE(excluded.contains(node)) << "dc" << node;
  }
}

TEST(Manager, FailedReplicaForcesReplacement) {
  ReplicationManager manager(line_candidates(), small_config(2), 7);
  Rng rng(5);
  // Converge to a stable placement first.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 500; ++i) manager.serve(Point{rng.uniform(0.0, 900.0)});
    manager.run_epoch();
  }
  const auto stable = manager.placement();
  // Fail one of the current replicas: the epoch must move off it even though
  // the proposal's quality gain alone would not clear the migration gate.
  for (int i = 0; i < 500; ++i) manager.serve(Point{rng.uniform(0.0, 900.0)});
  const std::set<topo::NodeId> excluded{stable.front()};
  const auto report = manager.run_epoch(excluded);
  EXPECT_EQ(report.adopted_placement.size(), stable.size());
  for (const auto node : report.adopted_placement) {
    EXPECT_NE(node, stable.front());
  }
}

TEST(Manager, AllCandidatesExcludedThrows) {
  ReplicationManager manager(line_candidates(2), small_config(1), 7);
  EXPECT_THROW(manager.run_epoch({0, 1}), std::invalid_argument);
}

TEST(Manager, WarmStartKeepsProposalsStableAcrossEpochSeeds) {
  // Same three-population workload every epoch: proposals must not churn
  // even though each epoch's k-means uses a fresh seed.
  ManagerConfig config = small_config(3);
  config.warm_start_macro_clusters = true;
  ReplicationManager manager(line_candidates(), config, 7);
  Rng rng(5);
  const auto feed = [&] {
    for (int i = 0; i < 900; ++i) {
      manager.serve(Point{rng.normal(0.0, 15.0)});
      manager.serve(Point{rng.normal(430.0, 15.0)});
      manager.serve(Point{rng.normal(900.0, 15.0)});
    }
  };
  feed();
  manager.run_epoch();
  const auto settled = manager.placement();
  for (int epoch = 0; epoch < 5; ++epoch) {
    feed();
    const auto report = manager.run_epoch();
    EXPECT_EQ(report.proposed_placement.size(), settled.size());
    // The proposal itself (not just the gated outcome) stays put.
    std::set<topo::NodeId> proposed(report.proposed_placement.begin(),
                                    report.proposed_placement.end());
    std::set<topo::NodeId> expected(settled.begin(), settled.end());
    EXPECT_EQ(proposed, expected) << "epoch " << epoch;
  }
}

TEST(Manager, CheckpointRestoreResumesIdentically) {
  // A coordinator checkpoints mid-epoch; a stand-by restores and must
  // produce the exact same epoch outcome as the original would have.
  ReplicationManager primary(line_candidates(), small_config(2), 7);
  Rng rng(5);
  for (int i = 0; i < 800; ++i) primary.serve(Point{rng.normal(100.0, 40.0)});

  ByteWriter writer;
  primary.save(writer);

  ReplicationManager standby(line_candidates(), small_config(2), 7);
  ByteReader reader(writer.bytes());
  standby.restore(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(standby.placement(), primary.placement());
  EXPECT_EQ(standby.epoch_accesses(), primary.epoch_accesses());

  const auto primary_report = primary.run_epoch();
  const auto standby_report = standby.run_epoch();
  EXPECT_EQ(standby_report.adopted_placement, primary_report.adopted_placement);
  EXPECT_EQ(standby_report.decision.migrate, primary_report.decision.migrate);
  EXPECT_DOUBLE_EQ(standby_report.new_estimated_delay_ms,
                   primary_report.new_estimated_delay_ms);
}

TEST(Manager, RestoreRejectsForeignPlacementAndKeepsState) {
  ReplicationManager primary(line_candidates(), small_config(2), 7);
  ByteWriter writer;
  primary.save(writer);

  // A manager over a *different* candidate set cannot adopt the checkpoint.
  std::vector<place::CandidateInfo> other_candidates;
  for (topo::NodeId id = 100; id < 105; ++id) {
    other_candidates.push_back({id, Point{10.0 * id},
                                std::numeric_limits<double>::infinity()});
  }
  ReplicationManager other(other_candidates, small_config(2), 7);
  const auto before = other.placement();
  ByteReader reader(writer.bytes());
  EXPECT_THROW(other.restore(reader), std::invalid_argument);
  EXPECT_EQ(other.placement(), before);  // unchanged after the failed restore
}

TEST(Manager, CheckpointLeadsWithMagicAndVersion) {
  ReplicationManager manager(line_candidates(), small_config(2), 7);
  ByteWriter writer;
  manager.save(writer);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u32(), kCheckpointMagic);
  EXPECT_EQ(reader.read_u32(), kCheckpointVersion);
}

TEST(Manager, CheckpointRoundTripsThroughHeader) {
  ReplicationManager primary(line_candidates(), small_config(2), 7);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) primary.serve(Point{rng.normal(100.0, 40.0)});
  ByteWriter writer;
  primary.save(writer);

  ReplicationManager standby(line_candidates(), small_config(2), 7);
  ByteReader reader(writer.bytes());
  standby.restore(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(standby.placement(), primary.placement());
  EXPECT_EQ(standby.epoch_accesses(), primary.epoch_accesses());
}

TEST(Manager, RestoreRejectsBadMagicAndKeepsState) {
  ReplicationManager primary(line_candidates(), small_config(2), 7);
  ByteWriter writer;
  primary.save(writer);

  // A buffer that never came from save(): not a checkpoint at all.
  std::vector<std::uint8_t> corrupted = writer.bytes();
  corrupted[0] ^= 0xFF;
  ReplicationManager standby(line_candidates(), small_config(2), 7);
  const auto before = standby.placement();
  ByteReader reader(corrupted);
  EXPECT_THROW(standby.restore(reader), std::invalid_argument);
  EXPECT_EQ(standby.placement(), before);
}

TEST(Manager, RestoreRejectsFutureFormatVersion) {
  ReplicationManager primary(line_candidates(), small_config(2), 7);
  ByteWriter writer;
  primary.save(writer);

  // Same magic, but a format version this build does not understand.
  std::vector<std::uint8_t> future = writer.bytes();
  const std::uint32_t bad_version = kCheckpointVersion + 1;
  std::memcpy(future.data() + sizeof(std::uint32_t), &bad_version, sizeof bad_version);
  ReplicationManager standby(line_candidates(), small_config(2), 7);
  const auto before = standby.placement();
  ByteReader reader(future);
  EXPECT_THROW(standby.restore(reader), std::invalid_argument);
  EXPECT_EQ(standby.placement(), before);
}

/// The manager's checkpoint bytes: unchanged by a call iff its state is.
std::vector<std::uint8_t> checkpoint_of(const ReplicationManager& manager) {
  ByteWriter writer;
  manager.save(writer);
  return writer.bytes();
}

/// A v2 checkpoint in save()'s layout with empty summaries: magic, version,
/// epoch index, accesses, degree, budget flag and weight, placement,
/// per-replica cluster lists, warm centroids.
std::vector<std::uint8_t> handmade_checkpoint(const place::Placement& placement,
                                              const std::vector<Point>& warm_centroids) {
  ByteWriter writer;
  writer.write_u32(kCheckpointMagic);
  writer.write_u32(2);
  for (const std::uint64_t field : {0, 0, 3}) writer.write_u64(field);
  writer.write_u32(0);
  writer.write_f64(1.0);
  writer.write_u32(static_cast<std::uint32_t>(placement.size()));
  for (const auto node : placement) writer.write_u32(node);
  for (std::size_t i = 0; i < placement.size(); ++i) writer.write_u32(0);
  writer.write_u32(static_cast<std::uint32_t>(warm_centroids.size()));
  for (const auto& centroid : warm_centroids) writer.write_f64_vector(centroid.values());
  return writer.bytes();
}

/// Restoring `blob` must throw std::invalid_argument and change nothing.
void expect_rejected(ReplicationManager& manager, const std::vector<std::uint8_t>& blob) {
  const std::vector<std::uint8_t> before = checkpoint_of(manager);
  ByteReader reader(blob);
  EXPECT_THROW(manager.restore(reader), std::invalid_argument);
  EXPECT_EQ(checkpoint_of(manager), before);
}

TEST(Manager, RestoreRejectsCheckpointOfAnotherDimension) {
  // line_candidates() lifted into the plane and into 3-D space.
  auto lifted = [](std::size_t dim) {
    auto candidates = line_candidates();
    for (auto& c : candidates) {
      std::vector<double> coords(dim, 0.0);
      coords[0] = c.coords[0];
      c.coords = Point(coords);
    }
    return candidates;
  };
  ReplicationManager planar(lifted(2), small_config(3), 7);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) planar.serve(Point{rng.normal(300.0, 40.0), 0.0});
  planar.run_epoch();  // 2-D warm centroids
  for (int i = 0; i < 300; ++i) planar.serve(Point{rng.normal(300.0, 40.0), 0.0});

  ReplicationManager manager(lifted(3), small_config(3), 7);
  expect_rejected(manager, checkpoint_of(planar));
  expect_rejected(manager, handmade_checkpoint({0, 4, 8}, {Point{0.0, 0.0}}));
  for (int i = 0; i < 100; ++i) manager.serve(Point{rng.normal(300.0, 40.0), 0.0, 0.0});
  EXPECT_EQ(manager.run_epoch().epoch_accesses, 100u);
}

TEST(Manager, RestoreRejectsPlacementThatRepeatsANode) {
  ReplicationManager manager(line_candidates(), small_config(3), 7);
  expect_rejected(manager, handmade_checkpoint({0, 0, 2}, {}));
}

TEST(Manager, RestoreRejectsEmptyPlacement) {
  ReplicationManager manager(line_candidates(), small_config(3), 7);
  expect_rejected(manager, handmade_checkpoint({}, {}));
  EXPECT_NO_THROW(manager.serve(Point{250.0}));
}

TEST(Manager, EpochWithNoAccessesIsSafe) {
  ReplicationManager manager(line_candidates(), small_config(2), 31);
  const auto before = manager.placement();
  const auto report = manager.run_epoch();
  EXPECT_EQ(report.epoch_accesses, 0u);
  EXPECT_EQ(manager.placement().size(), before.size());
}

}  // namespace
}  // namespace geored::core
