// Dataflow regions: one parallel_for whose chunks, the lanes, run side by
// side and hand each other work through atomics, instead of one pool
// hand-off per dependency level. The world build runs two of them, the
// gossip embedding (netcoord/gossip_detail.h) and the topology's draw and
// geometry pipeline (topology/planetlab_model.cpp); docs/performance.md,
// "Parallel world set-up", describes both, and docs/correctness.md lists
// their wait sites.
//
// A lane publishes progress with a release store and polls another lane's
// progress with acquire loads, so whatever the publisher wrote before its
// store is visible to a reader that sees the store. A lane may wait only for
// lanes that run at the same time, which run_lanes guarantees by running
// one lane per pool thread, and a region must show that its smallest
// unfinished item never waits, so that some lane always makes progress.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>

#include "common/thread_pool.h"

namespace geored {

/// Bytes of a cache line: atomics that different lanes write sit this far
/// apart.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Polls a wait makes before it starts yielding its thread between polls:
/// long enough to cover a typical wait for one RNP refit, short enough that
/// a lane sharing its core with the one it waits for soon lets it run.
inline constexpr std::size_t kSpinsBeforeYield = 1 << 14;

/// A counter alone on its cache line.
struct alignas(kCacheLineBytes) PaddedCounter {
  std::atomic<std::uint64_t> value{0};
};

/// Polls `ready()` until it returns true, spinning first and then yielding
/// between polls. Returns false, without waiting further, once `stop` is
/// raised: a lane that throws raises it, so the others return instead of
/// waiting for work that will never be published.
template <typename Ready>
bool spin_until(const std::atomic<bool>& stop, const Ready& ready) {
  for (std::size_t polls = 0; !ready(); ++polls) {
    if (stop.load(std::memory_order_relaxed)) return false;
    if (polls >= kSpinsBeforeYield) std::this_thread::yield();
  }
  return true;
}

/// Lanes a region runs: one per global-pool thread, at most `limit` (the
/// units of work it can spread, at least 1), and one when called from inside
/// a parallel chunk, where the pool's threads are taken.
inline std::size_t region_lanes(std::size_t limit) {
  if (ThreadPool::in_parallel_chunk()) return 1;
  return std::max<std::size_t>(1, std::min(ThreadPool::global().thread_count(), limit));
}

/// Runs lane(l) for every l in [0, lanes) as one parallel_for, one lane per
/// chunk, so each lane has a pool thread of its own; `lanes` must come from
/// region_lanes. A single lane runs on the caller. A lane that throws raises
/// `stop` before the exception propagates, and the first exception is
/// rethrown here.
template <typename Lane>
void run_lanes(std::size_t lanes, std::atomic<bool>& stop, const Lane& lane) {
  if (lanes == 1) {
    lane(0);
    return;
  }
  const auto run_chunk = [&](std::size_t begin, std::size_t end) {
    for (std::size_t l = begin; l < end; ++l) {
      try {
        lane(l);
      } catch (...) {
        stop.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  };
  parallel_for(lanes, std::ref(run_chunk));
}

}  // namespace geored
