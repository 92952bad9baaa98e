// RPC-backed summary collection over real localhost TCP sockets.
//
// RpcCollector is the fourth SummaryCollector (registry name "rpc"). Where
// DirectCollector concatenates summaries in-process and the protocol
// collectors run over the *simulated* network, this one actually ships
// bytes. Each phase (cluster/summary_frame.h) stands up a summary server on
// an ephemeral 127.0.0.1 port and fetches every asked source's frame back
// through the socket layer, with a per-source timeout, capped exponential
// backoff retries, and a seeded FaultInjector deciding which attempts the
// server sabotages. In collect() every source is asked for its centroid
// frame. In collect_moments() only a source with a cluster that the hand-off
// plan moves to another replica is asked: the request carries its departure
// mask, and the server replies with the departing moment frame. The phases
// draw their faults under different salts.
//
// Degradation contract: an epoch always completes. A source that exhausts
// its retry budget in phase 1 is served from that replica's last
// successfully collected centroid frame (flagged in
// CollectedSummaries::stale_sources); a source with no cached frame is
// dropped and flagged in lost_sources. A source whose phase-1 summary was a
// stale fallback hands no clusters to an adopted placement (its moments
// would not match it). A fresh source whose phase-2 fetch exhausts the retry
// budget loses only its departing clusters: its staying clusters never left
// its replica, so they stay. Both are flagged in handoff_lost_sources. With
// faults disabled the collected summaries and the reported summary_bytes
// (masks and reply payloads in phase 2) are byte-identical to
// DirectCollector on the same sources after either phase — pinned by the
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

/// Phase 2's fault salt is context.epoch_seed ^ kMomentPhaseSalt; phase 1's
/// is the epoch seed itself.
inline constexpr std::uint64_t kMomentPhaseSalt = 0x6d6f6d656e747321ULL;  // "moments!"

class RpcCollector final : public core::SummaryCollector {
 public:
  /// `clock` is the transport's only source of time (backoff sleeps and
  /// injected delays); null means the real SystemClock. Tests inject a
  /// VirtualClock so the whole retry state machine runs in zero wall time.
  explicit RpcCollector(RpcCollectorConfig config = {}, std::shared_ptr<Clock> clock = nullptr);

  std::string name() const override { return "rpc"; }

  /// Runs phase 1 of a collection round. Deterministic in the sources and
  /// context.epoch_seed: fault plans are pure functions of
  /// (config.faults.seed, salt, source, attempt), so which attempts fail —
  /// and therefore which sources go stale — replays exactly. summary_bytes
  /// counts only bytes that crossed the wire this round; stale fallbacks
  /// reuse bytes paid for in an earlier epoch. The clusters carry no second
  /// moments.
  core::CollectedSummaries collect(const std::vector<core::SummarySource>& sources,
                                   const core::CollectionContext& context) override
      GEORED_EXCLUDES(mutex_);

  /// Runs phase 2: sends each source that the latest collect() fetched fresh
  /// and that has a departing cluster its departure mask, fetches the
  /// departing moment frame, and completes or drops clusters as
  /// SummaryCollector::collect_moments and the degradation contract above
  /// describe. summary_bytes grows by each answered source's mask and reply.
  /// Deterministic like collect(). Throws std::invalid_argument unless
  /// `sources` has the size that collect() saw and the hand-off is planned.
  void collect_moments(const std::vector<core::SummarySource>& sources,
                       const core::CollectionContext& context,
                       core::CollectedSummaries& collected) override GEORED_EXCLUDES(mutex_);

  /// Counters from the most recent collection round, both phases (a
  /// snapshot: the stats and the stale-fallback cache are mutex-guarded, so
  /// observing them from another thread mid-collect returns the last
  /// consistent state).
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
  /// Per-replica last successfully collected centroid frame — the
  /// stale-fallback store. Keyed by node id so it survives placement
  /// changes; if two sources ever share a node the later one wins.
  std::map<topo::NodeId, std::vector<std::uint8_t>> last_good_ GEORED_GUARDED_BY(mutex_);

  /// How the latest collect() served one source, and where its clusters sit
  /// in the summaries it returned: what collect_moments completes.
  enum class Served { kFresh, kStale, kLost };
  struct SourceRound {
    Served served = Served::kLost;
    std::size_t first = 0;
    std::size_t clusters = 0;
  };
  std::vector<SourceRound> round_ GEORED_GUARDED_BY(mutex_);
};

}  // namespace geored::net
