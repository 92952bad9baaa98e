// The transport's injected clock.
//
// Everything under src/net/ that needs to know or spend time — retry
// backoff, injected delay faults — goes through this interface instead of
// touching std::chrono directly, so tests can substitute a VirtualClock and
// run the whole retry/backoff state machine instantaneously and
// deterministically. SystemClock (implemented in clock.cpp, the one net/
// translation unit allowed to call the real clock — enforced by
// tools/geored_lint.py's wall-clock rule) is what production transports run
// on.
#pragma once

#include <atomic>
#include <cstdint>

namespace geored::net {

/// Monotonic millisecond clock plus the ability to spend time on it.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Milliseconds since an arbitrary fixed origin; never decreases.
  virtual std::uint64_t now_ms() = 0;

  /// Blocks the calling thread for `ms` milliseconds of this clock's time.
  virtual void sleep_ms(std::uint64_t ms) = 0;
};

/// The real monotonic clock (std::chrono::steady_clock under the hood).
class SystemClock final : public Clock {
 public:
  std::uint64_t now_ms() override;
  void sleep_ms(std::uint64_t ms) override;
};

/// A manual clock for tests: now_ms() starts at zero and only sleep_ms()
/// (or advance()) moves it, so backoff schedules are observable and free.
/// Thread-safe: concurrent sleepers each advance the clock atomically.
class VirtualClock final : public Clock {
 public:
  std::uint64_t now_ms() override { return now_ms_.load(); }
  void sleep_ms(std::uint64_t ms) override { now_ms_.fetch_add(ms); }

  /// Total virtual milliseconds slept/advanced so far.
  std::uint64_t elapsed_ms() const { return now_ms_.load(); }

 private:
  std::atomic<std::uint64_t> now_ms_{0};
};

}  // namespace geored::net
