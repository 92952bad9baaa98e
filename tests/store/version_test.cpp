// Versions, versioned values, writer clocks and the shared Payload. Global
// operator new is replaced with a version that counts allocations and
// frees, so the Payload cases can pin what a handle allocates; that is why
// this suite is its own test binary.
#include "store/version.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_frees{0};
}  // namespace

// Neither is inlined: GCC's -Wmismatched-new-delete otherwise sees memory
// from malloc() reach an inlined delete site.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace geored::store {
namespace {

/// Heap allocations made while `fn` runs.
template <typename Fn>
std::size_t allocations(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(Version, TotalOrder) {
  const Version a{1, 0}, b{2, 0}, c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);  // same counter, higher writer id wins the tie
  EXPECT_LT(a, c);
  EXPECT_EQ(a, (Version{1, 0}));
}

TEST(Version, ZeroIsSmallest) {
  EXPECT_LT(Version::zero(), (Version{1, 0}));
  EXPECT_LT(Version::zero(), (Version{0, 1}));
}

TEST(Version, ToStringFormat) {
  EXPECT_EQ((Version{5, 3}).to_string(), "5@3");
}

TEST(VersionedValue, ExistsOnlyWithRealVersion) {
  VersionedValue empty;
  EXPECT_FALSE(empty.exists());
  VersionedValue value{"x", {1, 0}};
  EXPECT_TRUE(value.exists());
}

TEST(LamportClock, MintsStrictlyIncreasingVersions) {
  LamportClock clock(7);
  const Version a = clock.next();
  const Version b = clock.next();
  EXPECT_LT(a, b);
  EXPECT_EQ(a.writer, 7u);
}

TEST(LamportClock, AdvancesPastObservedVersions) {
  LamportClock clock(1);
  clock.observe({100, 2});
  const Version next = clock.next();
  EXPECT_GT(next, (Version{100, 2}));
  EXPECT_EQ(next.logical, 101u);
  // Observing something old does not rewind.
  clock.observe({5, 9});
  EXPECT_EQ(clock.next().logical, 102u);
}

TEST(LamportClock, ConcurrentWritersResolveDeterministically) {
  // Two writers minting from the same observation produce versions ordered
  // by writer id — LWW convergence needs exactly this determinism.
  LamportClock low(1), high(2);
  low.observe({10, 0});
  high.observe({10, 0});
  const Version a = low.next();
  const Version b = high.next();
  EXPECT_EQ(a.logical, b.logical);
  EXPECT_LT(a, b);
}

TEST(Payload, CountingAllocatorSeesAllocations) {
  // Guards the guard: an operator new that never counted would make the
  // zero-allocation pins below pass vacuously.
  EXPECT_EQ(allocations([] { const std::vector<int> data(16, 1); }), 1u);
}

TEST(Payload, OneAllocationHoldsTheBytes) {
  const std::string bytes(256, 'p');
  std::size_t made = allocations([&] {
    const Payload payload(bytes);
    EXPECT_EQ(payload.size(), 256u);
    EXPECT_EQ(payload, bytes);
    EXPECT_NE(payload.view().data(), bytes.data()) << "the payload must own its bytes";
  });
  EXPECT_EQ(made, 1u);
  // Every size a string holds, from one byte up, round-trips.
  for (const std::size_t size : {std::size_t{1}, std::size_t{15}, std::size_t{16},
                                 std::size_t{17}, std::size_t{1} << 20}) {
    const std::string value(size, 'z');
    const Payload payload(value);
    EXPECT_EQ(payload.size(), size);
    EXPECT_EQ(payload, value);
  }
}

TEST(Payload, CopiesShareTheBytesAndAllocateNothing) {
  const std::string expected(256, 'c');
  const Payload original(expected);
  const std::size_t made = allocations([&] {
    const Payload copy = original;  // NOLINT(performance-unnecessary-copy-initialization)
    Payload assigned;
    assigned = copy;
    Payload moved = std::move(assigned);
    const VersionedValue value{moved, {1, 0}};
    const VersionedValue value_copy = value;  // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_EQ(copy.view().data(), original.view().data());
    EXPECT_EQ(moved.view().data(), original.view().data());
    EXPECT_EQ(value_copy.data.view().data(), original.view().data());
    EXPECT_TRUE(value_copy.data == expected);
  });
  EXPECT_EQ(made, 0u);
  EXPECT_EQ(sizeof(Payload), sizeof(void*)) << "a handle is one pointer";
}

TEST(Payload, EmptyPayloadAllocatesNothing) {
  const std::size_t made = allocations([] {
    const Payload empty;
    const Payload from_literal("");
    const Payload from_string{std::string()};
    const Payload copy = empty;  // NOLINT(performance-unnecessary-copy-initialization)
    const VersionedValue not_found;
    for (const Payload* payload : {&empty, &from_literal, &from_string, &copy, &not_found.data}) {
      EXPECT_EQ(payload->size(), 0u);
      EXPECT_EQ(payload->view().data(), nullptr);
    }
  });
  EXPECT_EQ(made, 0u);
}

TEST(Payload, BytesLiveUntilTheLastHandleGoes) {
  const std::string expected(100, 'l');
  VersionedValue survivor;
  std::size_t frees_before = 0;
  {
    const Payload first(expected);
    const Payload second = first;  // NOLINT(performance-unnecessary-copy-initialization)
    frees_before = g_frees.load();
    survivor = {second, {3, 1}};
  }
  // The handles that made and copied the bytes are gone; the value's handle
  // still reads them (a sanitizer build would flag a freed read).
  const std::size_t frees_after_scope = g_frees.load();
  const bool intact = survivor.data == expected;
  survivor = {};
  const std::size_t frees_after_last = g_frees.load();
  EXPECT_EQ(frees_after_scope, frees_before) << "the bytes were freed with handles left";
  EXPECT_TRUE(intact);
  EXPECT_EQ(frees_after_last, frees_after_scope + 1) << "the last handle did not free the bytes";
}

TEST(Payload, ConcurrentCopiesKeepOneBlock) {
  // The count is atomic: threads copying and dropping handles to one block
  // neither free it early (the last reset would then free it twice) nor
  // leak it (the last reset would then free nothing).
  std::optional<Payload> shared(std::in_place, std::string(64, 't'));
  std::vector<std::size_t> sizes(4, 0);
  {
    // jthreads join when the scope ends, on every path.
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < sizes.size(); ++t) {
      threads.emplace_back([&shared, &sizes, t] {
        for (int i = 0; i < 20000; ++i) {
          const Payload copy = *shared;  // NOLINT(performance-unnecessary-copy-initialization)
          sizes[t] += copy.size();
        }
      });
    }
  }
  for (const std::size_t size : sizes) EXPECT_EQ(size, 20000u * 64u);
  EXPECT_EQ(*shared, std::string(64, 't'));
  const std::size_t frees_before = g_frees.load();
  shared.reset();
  EXPECT_EQ(g_frees.load(), frees_before + 1);
}

}  // namespace
}  // namespace geored::store
