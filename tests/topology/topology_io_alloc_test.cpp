// The topology and trace loaders never size an allocation from a header
// count: a hostile header fails with std::invalid_argument on its first
// missing entry, having allocated only a small fixed reserve. A seeded
// mutation suite (TextMutation) extends this to whole files: bit flips,
// truncations and inserted bytes or digits of a saved topology, RTT matrix
// and trace either load or throw std::invalid_argument, and no request is
// larger than a small multiple of the text plus that reserve.
// GEORED_FUZZ_ITERS sets its budget (rounds of 100 mutations per loader).
// Global operator new is replaced with a version that records the largest
// request and refuses any request that would take the live total past a
// cap, which is why this suite is its own test binary.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>

#include <gtest/gtest.h>

#include "common/random.h"
#include "topology/planetlab_model.h"
#include "topology/topology.h"
#include "workload/trace.h"

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
/// entry type, NodeInfo, std::string or wl::TraceEvent, is 32 bytes.
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

TEST(Trace, HostileEventCountNeverSizesAnAllocation) {
  expect_rejected_without_sizing("geored-trace-v1 4000000000\n1 2 3 4 r\n", wl::Trace::load);
  expect_rejected_without_sizing("geored-trace-v1 400000000\n1 2 3 4 r\n", wl::Trace::load);
}

// --- TextMutation: seeded mutations of whole files ----------------------

/// Bytes one request may take per byte of mutated text, on top of the
/// header reserve: a parsed entry is at most 32 bytes from two characters
/// of text, and a growing vector asks for twice what it holds.
constexpr std::size_t kRequestPerByte = 32;

std::uint64_t fuzz_rounds() {
  std::uint64_t rounds = 5;
  if (const char* env = std::getenv("GEORED_FUZZ_ITERS")) rounds = std::strtoull(env, nullptr, 10);
  return rounds;
}

/// One mutation of `text`: flips of one to three bits, a truncation, an
/// insertion of one to eight random bytes, or an insertion of one to six
/// decimal digits (which stretches a count or a value without breaking the
/// token).
std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  switch (rng.below(4)) {
    case 0: {
      const std::uint64_t flips = 1 + rng.below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::size_t at = rng.below(out.size());
        out[at] = static_cast<char>(out[at] ^ static_cast<char>(1u << rng.below(8)));
      }
      break;
    }
    case 1:
      out.resize(rng.below(out.size()));
      break;
    case 2: {
      std::string inserted(1 + rng.below(8), '\0');
      for (auto& c : inserted) c = static_cast<char>(rng.below(256));
      out.insert(rng.below(out.size() + 1), inserted);
      break;
    }
    default: {
      std::string digits(1 + rng.below(6), '0');
      for (auto& c : digits) c = static_cast<char>('0' + rng.below(10));
      out.insert(rng.below(out.size() + 1), digits);
      break;
    }
  }
  return out;
}

/// fuzz_rounds() rounds of 100 mutations of `valid`, each loaded by `load`:
/// it returns or throws std::invalid_argument, and its largest request
/// stays within kRequestPerByte per byte of text plus kLargestReserve.
template <typename Load>
void expect_mutations_load_or_reject(const std::string& valid, Load load, std::uint64_t seed) {
  {
    std::stringstream stream(valid);
    ASSERT_NO_THROW(load(stream)) << "the unmutated text must load";
  }
  Rng rng(seed);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const std::uint64_t rounds = fuzz_rounds();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (int i = 0; i < 100; ++i) {
      const std::string text = mutate(valid, rng);
      std::stringstream stream(text);
      g_largest_request.store(0);
      try {
        load(stream);
        ++accepted;
      } catch (const std::invalid_argument&) {
        ++rejected;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "untyped rejection " << typeid(error).name() << ": " << error.what()
                      << "\n" << text;
        return;
      }
      ASSERT_LE(g_largest_request.load(), kRequestPerByte * text.size() + kLargestReserve)
          << "a " << text.size() << "-byte text requested " << g_largest_request.load()
          << " bytes at once:\n"
          << text;
    }
  }
  // Both outcomes are reached, or the sweep tests less than it claims.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

Topology small_topology() {
  PlanetLabModelConfig config;
  config.node_count = 12;
  return generate_planetlab_like(config, 5);
}

TEST(TextMutation, TopologyLoadsOrRejectsTyped) {
  std::stringstream saved;
  small_topology().save(saved);
  expect_mutations_load_or_reject(saved.str(), Topology::load, 11);
}

TEST(TextMutation, RttMatrixLoadsOrRejectsTyped) {
  const Topology topology = small_topology();
  std::stringstream matrix;
  matrix << topology.size() << '\n';
  for (NodeId i = 0; i < topology.size(); ++i) {
    for (NodeId j = 0; j < topology.size(); ++j) {
      matrix << topology.rtt_ms(i, j) << (j + 1 == topology.size() ? '\n' : ' ');
    }
  }
  expect_mutations_load_or_reject(matrix.str(), Topology::from_rtt_matrix_stream, 13);
}

TEST(TextMutation, TraceLoadsOrRejectsTyped) {
  wl::SessionTraceConfig config;
  config.clients = 8;
  config.objects = 20;
  config.duration_ms = 60'000.0;
  config.session_rate = 1.0 / 20'000.0;
  std::stringstream saved;
  wl::generate_session_trace(config, 17).save(saved);
  ASSERT_GT(saved.str().size(), 200u);
  expect_mutations_load_or_reject(saved.str(), wl::Trace::load, 19);
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
