// Sharded ingest staging (core/replication_manager.{h,cpp}): determinism
// and concurrency pins for the per-shard staging that replaced the single
// ingest mutex. Named apart from `Manager` so the tsan CI tier (which runs
// suites by name) exercises the shard locks, the all-shards flush, and the
// per-shard counters under real thread interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/replication_manager.h"

namespace geored::core {
namespace {

std::vector<place::CandidateInfo> line_candidates(std::size_t count = 12) {
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < count; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i),
                          Point{100.0 * static_cast<double>(i)},
                          std::numeric_limits<double>::infinity()});
  }
  return candidates;
}

ManagerConfig sharded_config(std::size_t k, std::size_t shards) {
  ManagerConfig config;
  config.replication_degree = k;
  config.summarizer.max_clusters = 4;
  config.ingest_batch_grain = 32;
  config.ingest_shards = shards;
  return config;
}

/// Restores the global pool (and with it GEORED_THREADS semantics) on exit.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::set_global_thread_count(0); }
};

/// Drives a fixed externally-ordered access mix — batches and single
/// records against every replica — through one epoch and returns the full
/// serialized manager state.
std::vector<std::uint8_t> drive_epoch(std::size_t threads, std::size_t shards) {
  ThreadPool::set_global_thread_count(threads);
  ReplicationManager manager(line_candidates(), sharded_config(5, shards), 97);
  const auto placement = manager.placement();
  Rng rng(0x5a4d);
  for (std::size_t i = 0; i < 400; ++i) {
    manager.record_access(placement[i % placement.size()],
                          Point{rng.uniform(0.0, 1100.0)}, rng.uniform(0.1, 3.0));
  }
  for (std::size_t r = 0; r < placement.size(); ++r) {
    PointSet batch(1);
    std::vector<double> weights;
    for (std::size_t i = 0; i < 100 + 17 * r; ++i) {
      batch.push_back(Point{rng.uniform(0.0, 1100.0)});
      weights.push_back(rng.uniform(0.1, 3.0));
    }
    manager.record_access_batch(placement[r], batch, weights);
  }
  manager.run_epoch();
  ByteWriter writer;
  manager.save(writer);
  return writer.bytes();
}

TEST(IngestSharding, BytesIdenticalAtThreadCounts1And4) {
  // The acceptance pin: sharded record_access_batch output is byte-identical
  // at GEORED_THREADS 1 vs 4 (the pool count is what GEORED_THREADS sets).
  GlobalPoolGuard guard;
  const auto bytes_one = drive_epoch(1, 8);
  const auto bytes_four = drive_epoch(4, 8);
  EXPECT_EQ(bytes_one, bytes_four)
      << "sharded staging must be byte-identical at any thread count";
}

TEST(IngestSharding, BytesIdenticalAcrossShardCounts) {
  // The shard count is a contention knob, never an observable one: flushes
  // merge shards in node-id order, so 1, 3, and 8 shards must serialize the
  // same bytes (1 shard = the historical single staging lock).
  GlobalPoolGuard guard;
  const auto one = drive_epoch(2, 1);
  const auto three = drive_epoch(2, 3);
  const auto eight = drive_epoch(2, 8);
  EXPECT_EQ(one, three);
  EXPECT_EQ(one, eight);
}

/// Drives one access mix through two epochs at the given staging grain and
/// returns the serialized manager state. Per replica, in order: single
/// records, batches of 3 and 9 rows, then batches of 20, 40, 300 and 3000
/// rows, alternately weighted and unweighted. Against the grains below,
/// that covers records below the grain, a batch that reaches it while rows
/// are already staged, and batches far above it.
std::vector<std::uint8_t> drive_grain_mix(std::size_t grain) {
  ManagerConfig config = sharded_config(5, 4);
  config.ingest_batch_grain = grain;
  ReplicationManager manager(line_candidates(), config, 41);
  Rng rng(0x6a11);
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    // Shift the population between epochs so the second epoch also stages
    // into replicas adopted by a migration.
    const double lo = epoch == 0 ? 0.0 : 600.0;
    const auto placement = manager.placement();
    for (std::size_t r = 0; r < placement.size(); ++r) {
      const topo::NodeId replica = placement[r];
      for (std::size_t i = 0; i < 5; ++i) {
        manager.record_access(replica, Point{rng.uniform(lo, lo + 500.0)},
                              rng.uniform(0.1, 3.0));
      }
      for (const std::size_t rows : {3, 9, 20, 40, 300, 3000}) {
        PointSet batch(1);
        std::vector<double> weights;
        for (std::size_t i = 0; i < rows; ++i) {
          batch.push_back(Point{rng.uniform(lo, lo + 500.0)});
          weights.push_back(rng.uniform(0.1, 3.0));
        }
        if ((rows + r) % 2 == 0) {
          manager.record_access_batch(replica, batch, weights);
        } else {
          manager.record_access_batch(replica, batch);
        }
      }
    }
    manager.run_epoch();
  }
  ByteWriter writer;
  manager.save(writer);
  return writer.bytes();
}

TEST(IngestSharding, BytesIdenticalAcrossGrains) {
  // The grain only decides when staged rows reach the summarizer and
  // whether a batch is ingested in place; summaries must not depend on it.
  // Grain 1 ingests every record at once; 1 << 20 stages everything until
  // the flush.
  const auto reference = drive_grain_mix(32);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7}, std::size_t{256},
                                  std::size_t{1} << 20}) {
    EXPECT_EQ(drive_grain_mix(grain), reference) << "grain " << grain;
  }
}

TEST(IngestSharding, RejectsZeroShards) {
  EXPECT_THROW(ReplicationManager(line_candidates(), sharded_config(2, 0), 1),
               std::invalid_argument);
}

TEST(IngestSharding, ConcurrentRecordsAcrossManyShardsLoseNothing) {
  // More replicas than shards, hammered from several threads: every access
  // must land exactly once in a per-shard counter and reach a summarizer.
  ReplicationManager manager(line_candidates(), sharded_config(7, 4), 31);
  const auto placement = manager.placement();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBatchesPerThread = 24;
  constexpr std::size_t kRowsPerBatch = 16;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t b = 0; b < kBatchesPerThread; ++b) {
        const topo::NodeId replica = placement[(t + b) % placement.size()];
        PointSet batch(1);
        for (std::size_t r = 0; r < kRowsPerBatch; ++r) {
          batch.push_back(Point{100.0 * static_cast<double>((t + r) % 12)});
        }
        manager.record_access_batch(replica, batch);
        manager.record_access(placement[(t * 3 + b) % placement.size()],
                              Point{50.0 * static_cast<double>(t)});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const std::uint64_t expected = kThreads * kBatchesPerThread * (kRowsPerBatch + 1);
  EXPECT_EQ(manager.epoch_accesses(), expected)
      << "per-shard counters must sum to the exact access total";
  const EpochReport report = manager.run_epoch();
  EXPECT_EQ(report.epoch_accesses, expected);
  EXPECT_EQ(manager.epoch_accesses(), 0u) << "run_epoch must zero every shard";
}

TEST(IngestSharding, FlushesDuringConcurrentRecordsAreNotTorn) {
  // A reader repeatedly forcing the all-shards flush while a writer records
  // across shards: under tsan this is the schedule that catches a shard
  // mutex missing from the flush's lock-all set.
  ReplicationManager manager(line_candidates(), sharded_config(5, 4), 19);
  const auto placement = manager.placement();
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      manager.flush_ingest();
      std::this_thread::yield();
    }
  });
  constexpr std::size_t kAccesses = 600;
  for (std::size_t i = 0; i < kAccesses; ++i) {
    manager.record_access(placement[i % placement.size()],
                          Point{100.0 * static_cast<double>(i % 12)});
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(manager.epoch_accesses(), kAccesses);
}

TEST(IngestSharding, CheckpointRoundTripPreservesAccessCounter) {
  // restore() commits the staged counter into shard 0; the observable sum
  // must survive a save/restore round trip exactly.
  ReplicationManager manager(line_candidates(), sharded_config(5, 8), 55);
  const auto placement = manager.placement();
  for (std::size_t i = 0; i < 123; ++i) {
    manager.record_access(placement[i % placement.size()],
                          Point{100.0 * static_cast<double>(i % 12)});
  }
  ByteWriter writer;
  manager.save(writer);

  ReplicationManager restored(line_candidates(), sharded_config(5, 8), 55);
  ByteReader reader(writer.bytes());
  restored.restore(reader);
  EXPECT_EQ(restored.epoch_accesses(), manager.epoch_accesses());
  // And the restored manager keeps serializing the same bytes.
  ByteWriter again;
  restored.save(again);
  EXPECT_EQ(again.bytes(), writer.bytes());
}

}  // namespace
}  // namespace geored::core
