// RPC-backed summary collection over real localhost TCP sockets.
//
// RpcCollector is the fourth SummaryCollector (registry name "rpc"). Where
// DirectCollector concatenates summaries in-process and the protocol
// collectors run over the *simulated* network, this one actually ships
// bytes: collect() serializes each source with the shared write_clusters
// wire format, stands up a summary server on an ephemeral 127.0.0.1 port,
// and fetches every source's frame back through the socket layer — with a
// per-source timeout, capped exponential backoff retries, and a seeded
// FaultInjector deciding which attempts the server sabotages.
//
// Degradation contract: an epoch always completes. A source that exhausts
// its retry budget is served from that replica's last successfully collected
// payload (flagged in CollectedSummaries::stale_sources); a source with no
// cached payload is dropped and flagged in lost_sources. With faults
// disabled the collected summaries and the reported summary_bytes are
// byte-identical to DirectCollector on the same sources — pinned by the
// RpcEquivalence test suite.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "core/collector.h"
#include "net/clock.h"
#include "net/fault_injector.h"
#include "net/rpc_config.h"

namespace geored::net {

class RpcCollector final : public core::SummaryCollector {
 public:
  /// `clock` is the transport's only source of time (backoff sleeps and
  /// injected delays); null means the real SystemClock. Tests inject a
  /// VirtualClock so the whole retry state machine runs in zero wall time.
  explicit RpcCollector(RpcCollectorConfig config = {}, std::shared_ptr<Clock> clock = nullptr);

  std::string name() const override { return "rpc"; }

  /// Runs one collection round. Deterministic in the sources and
  /// context.epoch_seed: fault plans are pure functions of
  /// (config.faults.seed, epoch_seed, source, attempt), so which attempts
  /// fail — and therefore which sources go stale — replays exactly.
  /// summary_bytes counts only bytes that crossed the wire this round;
  /// stale fallbacks reuse bytes paid for in an earlier epoch.
  core::CollectedSummaries collect(const std::vector<core::SummarySource>& sources,
                                   const core::CollectionContext& context) override
      GEORED_EXCLUDES(mutex_);

  /// Counters from the most recent collect() round (a snapshot: the stats
  /// and the stale-fallback cache are mutex-guarded, so observing them from
  /// another thread mid-collect returns the last consistent state).
  RpcStats last_stats() const GEORED_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return stats_;
  }

  const RpcCollectorConfig& config() const { return config_; }

 private:
  RpcCollectorConfig config_;
  FaultInjector injector_;
  std::shared_ptr<Clock> clock_;
  /// Guards the cross-epoch collector state: the per-round counters and the
  /// stale-fallback payload cache. The per-source fetch results themselves
  /// need no lock (index-disjoint slots); the guarded phase is the
  /// accounting pass that folds them into stats_/last_good_ after the
  /// server has joined.
  mutable Mutex mutex_;
  RpcStats stats_ GEORED_GUARDED_BY(mutex_);
  /// Per-replica last successfully collected payload — the stale-fallback
  /// store. Keyed by node id so it survives placement changes; if two
  /// sources ever share a node the later one wins.
  std::map<topo::NodeId, std::vector<std::uint8_t>> last_good_ GEORED_GUARDED_BY(mutex_);
};

}  // namespace geored::net
