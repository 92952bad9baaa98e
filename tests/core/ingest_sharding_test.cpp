// Ingest on record (core/replication_manager.{h,cpp}): determinism and
// concurrency pins for the record paths, which ingest each record into its
// replica's summarizer under the manager's one ingest mutex. Named apart
// from `Manager` so the tsan CI tier (which runs suites by name) exercises
// the ingest mutex and the access counter under real thread interleavings.
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

ManagerConfig ingest_config(std::size_t k) {
  ManagerConfig config;
  config.replication_degree = k;
  config.summarizer.max_clusters = 4;
  return config;
}

/// Restores the global pool (and with it GEORED_THREADS semantics) on exit.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::set_global_thread_count(0); }
};

/// Drives a fixed externally-ordered access mix — batches and single
/// records against every replica — through one epoch and returns the full
/// serialized manager state.
std::vector<std::uint8_t> drive_epoch(std::size_t threads) {
  ThreadPool::set_global_thread_count(threads);
  ReplicationManager manager(line_candidates(), ingest_config(5), 97);
  const auto placement = manager.placement();
  Rng rng(0x5a4d);
  for (std::size_t i = 0; i < 400; ++i) {
    manager.record_access(placement[i % placement.size()], Point{rng.uniform(0.0, 1100.0)});
  }
  for (std::size_t r = 0; r < placement.size(); ++r) {
    PointSet batch(1);
    for (std::size_t i = 0; i < 100 + 17 * r; ++i) {
      batch.push_back(Point{rng.uniform(0.0, 1100.0)});
    }
    manager.record_access_batch(placement[r], batch);
  }
  manager.run_epoch();
  ByteWriter writer;
  manager.save(writer);
  return writer.bytes();
}

TEST(IngestSharding, BytesIdenticalAtThreadCounts1And4) {
  // record_access_batch output is byte-identical at GEORED_THREADS 1 vs 4
  // (the pool count is what GEORED_THREADS sets).
  GlobalPoolGuard guard;
  const auto bytes_one = drive_epoch(1);
  const auto bytes_four = drive_epoch(4);
  EXPECT_EQ(bytes_one, bytes_four) << "ingest must be byte-identical at any thread count";
}

/// Drives one access mix through two epochs and returns the serialized
/// manager state. Per replica, in order: single records, then batches of 3,
/// 9, 20, 40, 300 and 3000 rows. With `one_row_per_call`, every batch row
/// goes through its own record_access instead.
std::vector<std::uint8_t> drive_call_mix(bool one_row_per_call) {
  ReplicationManager manager(line_candidates(), ingest_config(5), 41);
  Rng rng(0x6a11);
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    // Shift the population between epochs so the second epoch also records
    // into replicas adopted by a migration.
    const double lo = epoch == 0 ? 0.0 : 600.0;
    const auto placement = manager.placement();
    for (std::size_t r = 0; r < placement.size(); ++r) {
      const topo::NodeId replica = placement[r];
      for (std::size_t i = 0; i < 5; ++i) {
        manager.record_access(replica, Point{rng.uniform(lo, lo + 500.0)});
      }
      for (const std::size_t rows : {3, 9, 20, 40, 300, 3000}) {
        PointSet batch(1);
        for (std::size_t i = 0; i < rows; ++i) {
          batch.push_back(Point{rng.uniform(lo, lo + 500.0)});
        }
        if (one_row_per_call) {
          for (std::size_t i = 0; i < rows; ++i) manager.record_access(replica, batch.point(i));
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
  // How many rows one record call carries never shows in the summaries:
  // the mixed single records and batches serialize the bytes of the same
  // rows recorded one record_access at a time.
  EXPECT_EQ(drive_call_mix(false), drive_call_mix(true));
}

TEST(IngestSharding, ConcurrentRecordsAcrossManyShardsLoseNothing) {
  // Seven replicas hammered from several threads: every access must land
  // exactly once in the access counter and reach a summarizer.
  ReplicationManager manager(line_candidates(), ingest_config(7), 31);
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
      << "the access counter must hold the exact access total";
  const EpochReport report = manager.run_epoch();
  EXPECT_EQ(report.epoch_accesses, expected);
  EXPECT_EQ(manager.epoch_accesses(), 0u) << "run_epoch must zero the access counter";
}

TEST(IngestSharding, FlushesDuringConcurrentRecordsAreNotTorn) {
  // A reader polling the access counter while a writer records across the
  // replicas: under tsan this is the schedule that catches the counter, or
  // a summarizer, written outside the ingest mutex. The count a reader sees
  // never falls and never passes the total.
  ReplicationManager manager(line_candidates(), ingest_config(5), 19);
  const auto placement = manager.placement();
  constexpr std::size_t kAccesses = 600;
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
                          Point{100.0 * static_cast<double>(i % 12)});
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(manager.epoch_accesses(), kAccesses);
}

TEST(IngestSharding, CheckpointRoundTripPreservesAccessCounter) {
  // The access counter must survive a save/restore round trip exactly.
  ReplicationManager manager(line_candidates(), ingest_config(5), 55);
  const auto placement = manager.placement();
  for (std::size_t i = 0; i < 123; ++i) {
    manager.record_access(placement[i % placement.size()],
                          Point{100.0 * static_cast<double>(i % 12)});
  }
  ByteWriter writer;
  manager.save(writer);

  ReplicationManager restored(line_candidates(), ingest_config(5), 55);
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
