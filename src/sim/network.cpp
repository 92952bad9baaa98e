#include "sim/network.h"

#include <sstream>

#include "common/ensure.h"
#include "common/random.h"

namespace geored::sim {

namespace {
constexpr const char* kClassNames[kTrafficClassCount] = {"access", "summary", "control",
                                                         "migration"};
}

std::uint64_t TrafficStats::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto b : bytes) total += b;
  return total;
}

std::string TrafficStats::to_string() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    if (c > 0) os << ", ";
    os << kClassNames[c] << ": " << bytes[c] << " B / " << messages[c] << " msgs";
  }
  return os.str();
}

Network::Network(Simulator& simulator, const topo::Topology& topology, NetworkConfig config)
    : simulator_(simulator), topology_(topology), config_(config) {
  GEORED_ENSURE(config.bandwidth_bytes_per_ms >= 0.0, "bandwidth must be non-negative");
  GEORED_ENSURE(config.jitter >= 0.0 && config.jitter < 1.0, "jitter must be in [0,1)");
}

void Network::send(topo::NodeId from, topo::NodeId to, std::size_t bytes,
                   TrafficClass traffic_class, std::function<void()> on_delivery) {
  const auto cls = static_cast<std::size_t>(traffic_class);
  GEORED_ENSURE(cls < kTrafficClassCount, "invalid traffic class");
  GEORED_ENSURE(from < topology_.size() && to < topology_.size(),
                "message endpoint is not a topology node");
  stats_.bytes[cls] += bytes;
  stats_.messages[cls] += 1;

  double delay = from == to ? 0.0 : topology_.rtt_ms(from, to) / 2.0;
  if (config_.bandwidth_bytes_per_ms > 0.0) {
    delay += static_cast<double>(bytes) / config_.bandwidth_bytes_per_ms;
  }
  if (config_.jitter > 0.0 && delay > 0.0) {
    // Deterministic jitter stream independent of caller RNGs.
    const double u =
        static_cast<double>(splitmix64(jitter_state_) >> 11) * 0x1.0p-53;  // [0,1)
    delay *= 1.0 + config_.jitter * (2.0 * u - 1.0);
  }
  simulator_.schedule_after(delay, std::move(on_delivery));
}

}  // namespace geored::sim
