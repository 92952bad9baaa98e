// The gossip hot path is allocation-free: once a node is built, observe()
// — including RNP's periodic refit — never touches the heap (except
// Vivaldi's cold coincident-points branch, which these samples avoid).
// Global operator new is replaced with a counting version, which is why this
// suite is its own test binary.
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "netcoord/rnp.h"
#include "netcoord/vivaldi.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC's -Wmismatched-new-delete otherwise sees the free() of
// operator new's memory at every inlined delete site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace geored::coord {
namespace {

std::vector<NetworkCoordinate> random_remotes(std::size_t dim, std::size_t count) {
  Rng rng(17);
  std::vector<NetworkCoordinate> remotes;
  for (std::size_t n = 0; n < count; ++n) {
    NetworkCoordinate remote(dim);
    for (std::size_t i = 0; i < dim; ++i) remote.position[i] = rng.uniform(-100.0, 100.0);
    remote.height = rng.uniform(0.0, 5.0);
    remote.error = rng.uniform(0.05, 1.0);
    remotes.push_back(remote);
  }
  return remotes;
}

/// Heap allocations made by `node` observing every remote in turn.
template <typename Node>
std::size_t allocations_while_observing(Node& node,
                                        const std::vector<NetworkCoordinate>& remotes) {
  const std::size_t before = g_allocations.load();
  double rtt = 20.0;
  for (const auto& remote : remotes) {
    node.observe(remote, rtt);
    rtt = rtt < 280.0 ? rtt + 13.0 : 20.0;
  }
  return g_allocations.load() - before;
}

TEST(GossipAlloc, VivaldiObserveNeverAllocates) {
  for (const bool use_height : {false, true}) {
    VivaldiConfig config;
    config.use_height = use_height;
    VivaldiNode node(config, 3);
    const auto remotes = random_remotes(config.dimensions, 300);
    EXPECT_EQ(allocations_while_observing(node, remotes), 0u) << "use_height " << use_height;
    EXPECT_EQ(node.samples(), remotes.size());
  }
}

TEST(GossipAlloc, RnpObserveAndRefitNeverAllocate) {
  for (const bool use_height : {false, true}) {
    RnpConfig config;
    config.vivaldi.use_height = use_height;
    config.refit_every = 4;  // many refits, over a filling then a full window
    RnpNode node(config, 3);
    const auto remotes = random_remotes(config.vivaldi.dimensions, 300);
    EXPECT_EQ(allocations_while_observing(node, remotes), 0u) << "use_height " << use_height;
    EXPECT_EQ(node.samples(), remotes.size());
  }
}

TEST(GossipAlloc, CountingAllocatorSeesAllocations) {
  // Guards the guard: a replaced operator new that never counted would make
  // the tests above pass vacuously.
  const std::size_t before = g_allocations.load();
  const auto remotes = random_remotes(5, 4);
  EXPECT_GT(g_allocations.load(), before);
}

}  // namespace
}  // namespace geored::coord
