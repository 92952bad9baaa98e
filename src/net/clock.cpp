// The single src/net/ translation unit allowed to read the real clock
// (tools/geored_lint.py: wall-clock). Everything else in the
// transport spends time exclusively through the Clock interface.
#include "net/clock.h"

#include <chrono>
#include <thread>

namespace geored::net {

std::uint64_t SystemClock::now_ms() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
}

void SystemClock::sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace geored::net
