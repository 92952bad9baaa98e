#include "core/replication_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "reference/microcluster.h"

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

TEST(Manager, MovedManagerKeepsItsAccessesAndIngestLock) {
  // The ingest lock is heap-held so a manager stays movable: the moved-to
  // manager keeps the recorded accesses and records on.
  static_assert(std::is_move_constructible_v<ReplicationManager>);
  static_assert(std::is_move_assignable_v<ReplicationManager>);
  ReplicationManager source(line_candidates(), small_config(2), 7);
  for (int i = 0; i < 50; ++i) source.serve(Point{100.0 * (i % 10)});
  ReplicationManager moved(std::move(source));
  moved.serve(Point{250.0});
  EXPECT_EQ(moved.epoch_accesses(), 51u);
  ReplicationManager assigned(line_candidates(), small_config(2), 8);
  assigned = std::move(moved);
  assigned.serve(Point{250.0});
  EXPECT_EQ(assigned.run_epoch().epoch_accesses, 52u);
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
  // that routes or records throws before ingesting or counting anything.
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
    // placement[0] has ingested rows; placement[1] has none, so nothing but
    // the entry check stops a foreign dimension from becoming its
    // summarizer's dimension.
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
// sees when many threads hit the record paths at once.
TEST(IngestConcurrency, ConcurrentRecordPathsLoseNothing) {
  ReplicationManager manager(line_candidates(), small_config(2), 7);
  const auto placement = manager.placement();  // copy: threads use it freely
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBatchesPerThread = 32;
  constexpr std::size_t kRowsPerBatch = 16;
  // Every thread records batches and single accesses against both replicas
  // concurrently — the manager's ingest mutex must serialize the ingest so
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
  // The recorded accesses must all reach summarizers and the epoch must run
  // cleanly on them.
  const EpochReport report = manager.run_epoch();
  EXPECT_EQ(report.epoch_accesses, kThreads * kBatchesPerThread * (kRowsPerBatch + 1));
  EXPECT_EQ(manager.epoch_accesses(), 0u);
}

TEST(IngestConcurrency, RecordsDuringFlushAreNotTorn) {
  // A reader polling epoch_accesses() interleaves with a writer; under tsan
  // this is the schedule that catches a record path touching the counter
  // or a summarizer outside the ingest mutex.
  ReplicationManager manager(line_candidates(), small_config(2), 11);
  const auto placement = manager.placement();
  constexpr std::size_t kAccesses = 512;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load()) {
      const std::uint64_t seen = manager.epoch_accesses();
      EXPECT_GE(seen, last);
      EXPECT_LE(seen, kAccesses);
      last = seen;
      std::this_thread::yield();
    }
  });
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
      for (const auto& micro : cluster::to_micro_clusters(manager.summary_of(node))) {
        retained += micro.count();
      }
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
  ReplicationManager manager(line_candidates(), small_config(3), 7);
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

TEST(Manager, RestoreRejectsAZeroCountClusterOfAnotherDimension) {
  // The fixed-width summaries of a v1 or v2 checkpoint can hold a cluster of
  // count 0, which restore drops; its dimension must still be the
  // candidates', like every other cluster's.
  const auto with_empty_cluster = [](std::size_t dim) {
    ByteWriter writer;
    writer.write_u32(kCheckpointMagic);
    writer.write_u32(2);
    for (const std::uint64_t field : {0, 0, 3}) writer.write_u64(field);
    writer.write_u32(0);
    writer.write_f64(1.0);
    const place::Placement placement{0, 4, 8};
    writer.write_u32(static_cast<std::uint32_t>(placement.size()));
    for (const auto node : placement) writer.write_u32(node);
    // The first replica: one cluster of count 0 and dimension `dim`.
    writer.write_u32(1);
    writer.write_u64(0);
    writer.write_f64(0.0);
    writer.write_f64_vector(std::vector<double>(dim, 0.0));
    writer.write_f64_vector(std::vector<double>(dim, 0.0));
    // The other two replicas hold none, and there are no warm centroids.
    for (int i = 0; i < 3; ++i) writer.write_u32(0);
    return writer.bytes();
  };
  ReplicationManager manager(line_candidates(), small_config(3), 7);
  expect_rejected(manager, with_empty_cluster(2));
  // At the candidates' dimension the blob restores, the empty cluster dropped.
  const std::vector<std::uint8_t> blob = with_empty_cluster(1);
  ByteReader reader(blob);
  manager.restore(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(manager.placement(), (place::Placement{0, 4, 8}));
  EXPECT_TRUE(manager.summary_of(0).empty());
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

TEST(Manager, RestoreRejectsADegreeOutsideItsBounds) {
  // Every path that sets the degree keeps it in [min_degree, max_degree]. A
  // checkpoint past them (a high bit flipped in the u64 degree, as
  // CheckpointMutation found) would have the next epoch place every
  // candidate while reporting a degree no placement can have.
  constexpr std::size_t kDegreeOffset = 4 + 4 + 8 + 8;  // magic, version, epoch, accesses
  const ManagerConfig config = small_config(3);
  ReplicationManager manager(line_candidates(), config, 7);
  const auto with_degree = [&](std::uint64_t degree) {
    std::vector<std::uint8_t> blob = handmade_checkpoint({0, 4, 8}, {});
    std::memcpy(blob.data() + kDegreeOffset, &degree, sizeof degree);
    return blob;
  };
  for (const std::uint64_t degree :
       {std::uint64_t{0}, std::uint64_t{config.max_degree + 1}, std::uint64_t{1} << 56}) {
    expect_rejected(manager, with_degree(degree));
  }
  for (const std::uint64_t degree : {std::uint64_t{config.min_degree},
                                     std::uint64_t{config.max_degree}}) {
    const std::vector<std::uint8_t> blob = with_degree(degree);
    ByteReader reader(blob);
    EXPECT_NO_THROW(manager.restore(reader)) << "degree " << degree;
  }
}

/// The manager RestoreRejectsMomentsAnEpochCannotUse builds, saved in the
/// v2 layout (fixed-width summaries) by the build before checkpoint v3.
constexpr const char* kMomentsSourceV2 =
    "434d524702000000020000000000000000000000000000000300000000000000"
    "00000000000000000000f03f0300000005000000020000000400000003000000"
    "d3000000000000000000000000606a4001000000a3e29e74eebff94001000000"
    "81577341504389415e000000000000000000000000805740010000003d44b981"
    "b19beb4001000000143865c7ad44804108000000000000000000000000002040"
    "01000000ea7d1d6124d4b540010000005d511eefd6d84d410200000024000000"
    "000000000000000000004240010000009a430a17702cb6400100000028330514"
    "029f2c41dc000000000000000000000000806b40010000005708155fee47ec40"
    "01000000f9a96d17cfcf6d410400000007000000000000000000000000001c40"
    "010000003904f62a9ecba24001000000cbef5a0d9f3c29410300000000000000"
    "0000000000000840010000003673b0a977828e4001000000e46a572b14651341"
    "04000000000000000000000000001040010000008c538675a1eb924001000000"
    "a8c5767e09631641d9000000000000000000000000206b40010000009623e0b3"
    "4552f44001000000ffbb1e759fb37e41030000000100000008bdcf5144d97740"
    "01000000ad65c2a1b8bb804001000000a2b0748b38286f40";

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    const std::string pair(hex.substr(i, 2));
    bytes.push_back(static_cast<std::uint8_t>(std::stoul(pair, nullptr, 16)));
  }
  return bytes;
}

/// Flips exponent bit 9 of the first stored cluster's sum[0] (at
/// `sum_offset`) and exponent bit 10 of its sum2[0] (at `sum2_offset`), one
/// at a time, and checks that `target` rejects both blobs.
void expect_exponent_flips_rejected(ReplicationManager& target,
                                    const std::vector<std::uint8_t>& valid,
                                    std::size_t sum_offset, std::size_t sum2_offset,
                                    const cluster::MicroCluster& first) {
  double sum = 0.0;
  std::memcpy(&sum, valid.data() + sum_offset, sizeof sum);
  ASSERT_EQ(sum, first.sum()[0]);
  double sum2 = 0.0;
  std::memcpy(&sum2, valid.data() + sum2_offset, sizeof sum2);
  ASSERT_EQ(sum2, first.sum2()[0]);
  // Exponent bit 9 of sum[0]: the centroid moves 2^512 times further out,
  // every squared distance overflows, and the next epoch used to throw
  // InternalError "ran out of candidates before reaching k".
  std::vector<std::uint8_t> far = valid;
  far[sum_offset + 7] ^= 0x20;
  std::memcpy(&sum, far.data() + sum_offset, sizeof sum);
  ASSERT_TRUE(std::isfinite(sum));
  ASSERT_FALSE(std::isfinite(sum * sum));
  // Exponent bit 10 of sum2[0]: sum2 shrinks by 2^1024, count·sum2 < sum²
  // describes no set of points, and a build with debug checks used to throw
  // InternalError from the moment check next epoch.
  std::vector<std::uint8_t> unrealizable = valid;
  ASSERT_NE(unrealizable[sum2_offset + 7] & 0x40, 0);
  unrealizable[sum2_offset + 7] ^= 0x40;
  expect_rejected(target, far);
  expect_rejected(target, unrealizable);
}

TEST(Manager, RestoreRejectsMomentsAnEpochCannotUse) {
  // Checkpoints that differ from a valid one in one exponent bit of the
  // first stored cluster. Each moment stays finite, so the wire decoder
  // accepts them, but the restored manager could not run an epoch.
  ReplicationManager source(line_candidates(12), small_config(3), 7);
  Rng rng(5);
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (int i = 0; i < 400; ++i) source.serve(Point{rng.normal(300.0 + 200.0 * epoch, 80.0)});
    source.run_epoch();
  }
  const std::size_t replicas = source.placement().size();
  const cluster::MicroCluster first =
      cluster::to_micro_cluster(source.summary_of(source.placement().front()), 0);
  ReplicationManager target(line_candidates(12), small_config(3), 7);

  // v4: a 44-byte header, the placement (u32 count, u32 ids), then the first
  // replica's summary frame: varint cluster count and dimension (one byte
  // each here), the first cluster's varint (count << 1) | 1, then sum[d] and
  // sum2[d].
  const std::size_t header_bytes = varint_size((first.count() << 1) | 1u);
  const std::size_t sum_offset = 44 + 4 + 4 * replicas + 1 + 1 + header_bytes;
  expect_exponent_flips_rejected(target, checkpoint_of(source), sum_offset,
                                 sum_offset + sizeof(double), first);

  // v2, as the build before checkpoint v3 saved the same manager: the first
  // replica's u32 cluster count, then the first cluster's u64 count, f64
  // weight, and sum and sum2 each behind a u32 length.
  const std::vector<std::uint8_t> v2 = from_hex(kMomentsSourceV2);
  {
    ReplicationManager restored(line_candidates(12), small_config(3), 7);
    ByteReader reader(v2);
    restored.restore(reader);
    EXPECT_EQ(checkpoint_of(restored), checkpoint_of(source));
  }
  const std::size_t v2_sum_offset = 44 + 4 + 4 * replicas + 4 + 8 + 8 + 4;
  expect_exponent_flips_rejected(target, v2, v2_sum_offset, v2_sum_offset + sizeof(double) + 4,
                                 first);

  for (int i = 0; i < 100; ++i) target.serve(Point{rng.normal(300.0, 80.0)});
  EXPECT_EQ(target.run_epoch().epoch_accesses, 100u);
}

TEST(Manager, RestoreRejectsNonFiniteWarmCentroids) {
  // A warm centroid is the next epoch's k-means seed: a non-finite one used
  // to restore, and a build with debug checks then threw InternalError
  // "k-means produced a non-finite centroid" from the epoch.
  ReplicationManager manager(line_candidates(), small_config(3), 7);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_rejected(manager, handmade_checkpoint({0, 4, 8}, {Point{250.0}, Point{nan}}));
  expect_rejected(manager, handmade_checkpoint({0, 4, 8}, {Point{inf}}));
  expect_rejected(manager, handmade_checkpoint({0, 4, 8}, {Point{-inf}}));
  // Finite warm centroids, however far out, still restore.
  const std::vector<std::uint8_t> far = handmade_checkpoint({0, 4, 8}, {Point{1e300}});
  ByteReader reader(far);
  manager.restore(reader);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) manager.serve(Point{rng.normal(300.0, 40.0)});
  EXPECT_EQ(manager.run_epoch().epoch_accesses, 100u);
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
