// Configuration and counters for the RPC-backed summary collector.
//
// This header is deliberately free of core/ includes: core/collector.h
// embeds RpcCollectorConfig inside CollectorConfig, and the dependency
// arrow must stay net -> (cluster, common) so geored_core can link
// geored_net without a cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/fault_injector.h"

namespace geored::net {

/// Exponential backoff between attempts: kBackoffInitialMs doubling per
/// retry, capped at kBackoffCapMs. Spent on the injected Clock, so tests
/// running on a VirtualClock pay nothing in wall time.
inline constexpr std::uint64_t kBackoffInitialMs = 1;
inline constexpr std::uint64_t kBackoffCapMs = 8;

/// Knobs for RpcCollector: the fault schedule, the per-attempt retry
/// budget, and the timeout of the client state machine.
struct RpcCollectorConfig {
  /// Injected failure schedule; all-zero probabilities means a clean wire.
  FaultConfig faults;

  /// Total tries per source per phase (first attempt + retries); must be
  /// at least 1. A source still failing after the last attempt falls back
  /// to its cached last-epoch summary in phase 1, and hands no clusters to
  /// the adopted placement in phase 2.
  std::size_t max_attempts = 4;

  /// Client-side bound on waiting for one response frame. Must exceed
  /// faults.delay_ms or injected delays become indistinguishable from
  /// drops. Tests shrink this so drop faults resolve quickly.
  std::uint64_t timeout_ms = 1000;
};

/// What one collection round cost and survived, in the spirit of
/// sim::TrafficStats: counters an experiment can print and a test can pin.
struct RpcStats {
  std::size_t requests_sent = 0;      ///< frames the client transmitted
  std::size_t responses_ok = 0;       ///< well-formed response frames accepted
  std::size_t faults_hit = 0;         ///< attempts that failed, any cause
  std::size_t retries = 0;            ///< attempts after the first, per source
  std::size_t stale_fallbacks = 0;    ///< sources served from the epoch cache
  std::size_t lost_sources = 0;       ///< sources with no response and no cache
  std::uint64_t backoff_ms_total = 0; ///< injected-clock time spent backing off

  /// One-line rendering for logs and the CLI experiment summary.
  std::string to_string() const;
};

}  // namespace geored::net
