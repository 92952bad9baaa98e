// A flush whose ingest throws must release every shard lock it holds, or
// the next record, epoch or checkpoint call waits forever. On a build that
// leaks them this case hangs, so it runs alone under a short ctest timeout.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "cluster/summarizer.h"
#include "common/ensure.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/replication_manager.h"

namespace geored::core {
namespace {

/// k = 3 on a line of 10 candidates, every access staged until a flush,
/// with the same 50 accesses staged on each replica.
ReplicationManager staged_manager() {
  std::vector<place::CandidateInfo> candidates;
  for (topo::NodeId i = 0; i < 10; ++i) {
    candidates.push_back({i, Point{100.0 * i}, std::numeric_limits<double>::infinity()});
  }
  ManagerConfig config;
  config.ingest_batch_grain = 1024;
  ReplicationManager manager(candidates, config, 7);
  Rng rng(9);
  for (const auto node : manager.placement()) {
    for (int i = 0; i < 50; ++i) {
      manager.record_access(node, Point{rng.normal(100.0 * node, 20.0)});
    }
  }
  return manager;
}

std::vector<std::uint8_t> summaries_of(const ReplicationManager& manager) {
  ByteWriter writer;
  for (const auto node : manager.placement()) {
    cluster::write_clusters(writer, manager.summary_of(node));
  }
  return writer.bytes();
}

TEST(FlushFailure, ThrowingFlushReleasesTheShardLocks) {
  ThreadPool::set_global_thread_count(2);
  const std::vector<std::uint8_t> expected = summaries_of(staged_manager());
  ReplicationManager manager = staged_manager();

  // Another thread parked inside a parallel_for chunk keeps the pool busy,
  // so the flush's fan-out over the >= 2 staged replicas throws.
  std::atomic<bool> release{false};
  std::atomic<bool> parked{false};
  std::thread holder([&] {
    parallel_for(2, [&](std::size_t, std::size_t) {
      parked.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!parked.load()) std::this_thread::yield();
  EXPECT_THROW(manager.flush_ingest(), InternalError);
  release.store(true);
  holder.join();

  // The next flush returns and ingests exactly what a never-failed manager
  // does.
  manager.flush_ingest();
  EXPECT_EQ(summaries_of(manager), expected);
  ThreadPool::set_global_thread_count(0);
}

}  // namespace
}  // namespace geored::core
