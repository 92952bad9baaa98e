// The topology loaders never size an allocation from a header count: a
// hostile header fails with std::invalid_argument on its first missing
// entry, having allocated only a small fixed reserve. Global operator new is
// replaced with a version that records the largest request and refuses any
// request that would take the live total past a cap, which is why this
// suite is its own test binary.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "topology/topology.h"

namespace {
/// Every block carries its size in a header, so a delete can take it off the
/// live total.
constexpr std::size_t kHeader = alignof(std::max_align_t);
/// Requests that would take the live total past this are refused with
/// std::bad_alloc instead of reaching malloc, so a loader that sizes storage
/// from a header fails the test rather than exhausting the machine.
constexpr std::size_t kRefuseLiveAbove = std::size_t{256} << 20;

std::atomic<std::size_t> g_largest_request{0};
std::atomic<std::size_t> g_live_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  std::size_t largest = g_largest_request.load(std::memory_order_relaxed);
  while (size > largest && !g_largest_request.compare_exchange_weak(largest, size)) {
  }
  if (g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size > kRefuseLiveAbove) {
    g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) {
    g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
  std::memcpy(block, &size, sizeof size);
  return static_cast<char*>(block) + kHeader;
}
// The array and nothrow forms route through the counting one, so every
// block a delete sees carries the header.
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
// Not inlined: GCC's -Wmismatched-new-delete otherwise sees the free() of
// operator new's memory at every inlined delete site.
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, block, sizeof size);
  g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace geored::topo {
namespace {

/// The loaders reserve at most 2^16 entries from a header; the largest
/// entry type, NodeInfo or std::string, is 32 bytes.
constexpr std::size_t kLargestReserve = std::size_t{2} << 20;

template <typename Load>
void expect_rejected_without_sizing(const char* text, Load load) {
  std::stringstream stream(text);
  g_largest_request.store(0);
  EXPECT_THROW(load(stream), std::invalid_argument) << text;
  EXPECT_LE(g_largest_request.load(), kLargestReserve)
      << "a header count sized an allocation: " << text;
}

TEST(TopologyIo, HostileNodeCountNeverSizesAnAllocation) {
  expect_rejected_without_sizing("3000000000 0\n", Topology::load);
  expect_rejected_without_sizing("3000000000 0\n0 0 4294967295 1\n", Topology::load);
}

TEST(TopologyIo, HostileRegionCountNeverSizesAnAllocation) {
  expect_rejected_without_sizing("2 3000000000\nna-east\neu-west\n", Topology::load);
}

TEST(TopologyIo, HostileMatrixHeaderNeverSizesAnAllocation) {
  expect_rejected_without_sizing("200000\n0 1 2\n", Topology::from_rtt_matrix_stream);
  // Small enough to zero-fill (3.2 GB as a full matrix), still rejected on
  // the first missing entry without allocating for the rest.
  expect_rejected_without_sizing("20000\n0 1 2\n", Topology::from_rtt_matrix_stream);
}

TEST(TopologyIo, CountingAllocatorSeesAllocations) {
  // Guards the guard: an operator new that never recorded requests would
  // make the bounds above pass vacuously.
  g_largest_request.store(0);
  std::stringstream stream("3\n0 1 2\n1 0 3\n2 3 0\n");
  const Topology topology = Topology::from_rtt_matrix_stream(stream);
  EXPECT_EQ(topology.size(), 3u);
  EXPECT_GT(g_largest_request.load(), 0u);
}

}  // namespace
}  // namespace geored::topo
