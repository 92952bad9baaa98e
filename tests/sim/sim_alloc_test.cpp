// The simulated data path is allocation-free in steady state: once the event
// heap, the callback slot table and the store's per-op slabs have grown to
// their peak, an event whose callback captures 16 bytes or less, a get, and
// a put (apart from its one shared payload) never touch the heap. Global
// operator new is replaced with a counting version, which is why this suite
// is its own test binary.
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/simulator.h"
#include "store/kvstore.h"
#include "topology/topology.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Neither operator new nor delete is inlined: GCC's -Wmismatched-new-delete
// otherwise sees the malloc() inside operator new, or the free() inside
// operator delete, at the inlined call sites and calls them a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace geored {
namespace {

/// Concurrent chains of events: each hop reschedules itself until its hops
/// run out. The callback captures {this, id, hops}: 16 bytes.
class Chains {
 public:
  explicit Chains(sim::Simulator& simulator) : simulator_(simulator) {}

  /// Runs `chains` chains of `hops` + 1 events each; returns the heap
  /// allocations made while scheduling and running them.
  std::size_t allocations_running(std::uint32_t chains, std::uint32_t hops) {
    const std::size_t before = g_allocations.load();
    for (std::uint32_t id = 0; id < chains; ++id) schedule(id, hops);
    simulator_.run();
    return g_allocations.load() - before;
  }
  std::uint64_t fired = 0;

 private:
  void schedule(std::uint32_t id, std::uint32_t hops) {
    simulator_.schedule_after(static_cast<double>(id % 7), [this, id, hops] {
      ++fired;
      if (hops > 0) schedule(id, hops - 1);
    });
  }

  sim::Simulator& simulator_;
};

TEST(SimAlloc, SmallCallbacksNeverAllocateInSteadyState) {
  sim::Simulator simulator;
  Chains chains(simulator);
  // Warm-up: the heap and the slot table grow to the peak queue length.
  chains.allocations_running(2000, 20);
  chains.fired = 0;
  EXPECT_EQ(chains.allocations_running(2000, 20), 0u);
  EXPECT_EQ(chains.fired, 2000u * 21u);
}

TEST(SimAlloc, NetworkSendWithSmallCallbackNeverAllocates) {
  topo::Topology topology(std::vector<topo::NodeInfo>(3), SymMatrix(3), {});
  sim::Simulator simulator;
  sim::Network network(simulator, topology, {/*bandwidth_bytes_per_ms=*/10.0, /*jitter=*/0.1});
  std::uint64_t delivered = 0;
  const auto round = [&] {
    const std::size_t before = g_allocations.load();
    for (std::uint32_t i = 0; i < 3000; ++i) {
      network.send(i % 3, (i + 1) % 3, 100 + i % 50, sim::TrafficClass::kAccess,
                   [&delivered, i] { delivered += i; });
    }
    simulator.run();
    return g_allocations.load() - before;
  };
  round();
  EXPECT_EQ(round(), 0u);
  EXPECT_GT(delivered, 0u);
}

TEST(SimAlloc, LargeCallbacksDoAllocate) {
  // Guards the boundary the docs state: a capture beyond std::function's
  // 16-byte inline buffer lives on the heap, one allocation per event.
  sim::Simulator simulator;
  std::uint64_t sum = 0;
  const auto round = [&] {
    const std::size_t before = g_allocations.load();
    for (std::uint64_t i = 0; i < 100; ++i) {
      simulator.schedule_after(1.0, [&sum, i, j = i + 1, k = i + 2] { sum += i + j + k; });
    }
    simulator.run();
    return g_allocations.load() - before;
  };
  round();
  EXPECT_EQ(round(), 100u);
}

TEST(SimAlloc, CountingAllocatorSeesAllocations) {
  // Guards the guard: a replaced operator new that never counted would make
  // the tests above pass vacuously.
  const std::size_t before = g_allocations.load();
  const std::vector<int> data(16, 1);
  EXPECT_GT(g_allocations.load(), before);
  EXPECT_EQ(data.size(), 16u);
}

// --- The replicated store ------------------------------------------------

/// 10 nodes on a line (RTT = distance, min 1 ms): data centers 0..4,
/// clients 5..9.
struct KvWorld {
  topo::Topology topology;
  std::vector<place::CandidateInfo> candidates;
  std::vector<Point> positions;

  KvWorld() {
    constexpr std::size_t kNodes = 10;
    SymMatrix rtt(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      positions.push_back(Point{static_cast<double>(i % 5) * 40.0 + (i >= 5 ? 7.0 : 0.0)});
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      for (std::size_t j = i + 1; j < kNodes; ++j) {
        rtt.set(i, j, std::max(1.0, std::abs(positions[i][0] - positions[j][0])));
      }
    }
    topology = topo::Topology(std::vector<topo::NodeInfo>(kNodes), std::move(rtt), {});
    for (topo::NodeId i = 0; i < 5; ++i) {
      candidates.push_back({i, positions[i], std::numeric_limits<double>::infinity()});
    }
  }
};

class SimAllocKv : public ::testing::Test {
 protected:
  static constexpr store::ObjectId kKeys = 64;
  static constexpr std::size_t kOps = 4000;

  SimAllocKv()
      : network_(simulator_, world_.topology),
        store_(simulator_, network_, world_.candidates, config(), 9) {}

  static store::StoreConfig config() {
    store::StoreConfig config;
    config.quorum = {3, 2, 2};
    config.groups = 4;
    config.manager.summarizer.max_clusters = 4;
    return config;
  }

  /// Issues kOps ops, one every 0.25 ms from rotating clients, and runs
  /// them to completion; returns the allocations made. Put values are
  /// built beforehand and moved in, so only the store's own allocations
  /// count.
  std::size_t allocations_for_round(bool with_puts) {
    std::vector<std::string> values;
    if (with_puts) {
      for (std::size_t i = 0; i < kOps; ++i) values.emplace_back(256, 'a' + i % 26);
    }
    const std::size_t before = g_allocations.load();
    for (std::size_t i = 0; i < kOps; ++i) {
      const auto client = static_cast<topo::NodeId>(5 + i % 5);
      const store::ObjectId id = (i * 7) % kKeys;
      simulator_.run_until(simulator_.now() + 0.25);
      if (with_puts && i % 2 == 0) {
        store_.put(client, world_.positions[client], id, std::move(values[i]),
                   [this](const store::PutResult&) { ++completed_; });
      } else {
        store_.get(client, world_.positions[client], id,
                   [this](const store::GetResult&) { ++completed_; });
      }
    }
    simulator_.run();
    return g_allocations.load() - before;
  }

  KvWorld world_;
  sim::Simulator simulator_;
  sim::Network network_;
  store::ReplicatedKvStore store_;
  std::size_t completed_ = 0;
};

TEST_F(SimAllocKv, SteadyStateGetsNeverAllocate) {
  allocations_for_round(true);  // warm-up: every key written, slabs grown
  allocations_for_round(false);
  completed_ = 0;
  EXPECT_EQ(allocations_for_round(false), 0u);
  EXPECT_EQ(completed_, kOps);
}

TEST_F(SimAllocKv, SteadyStatePutsAllocateOnlyTheirPayload) {
  allocations_for_round(true);
  allocations_for_round(true);
  completed_ = 0;
  const std::size_t puts = kOps / 2;
  EXPECT_LE(allocations_for_round(true), puts);
  EXPECT_EQ(completed_, kOps);
}

}  // namespace
}  // namespace geored
