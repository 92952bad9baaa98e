// Trace replay against the replicated key-value store: feed a recorded (or
// synthesized) access trace through the full system — quorum reads/writes,
// per-group summarization, periodic placement epochs with migration — and
// report what the service experienced.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "store/kvstore.h"
#include "workload/trace.h"

namespace geored::store {

struct ReplayConfig {
  /// Placement epoch period; 0 disables placement (static replicas).
  double placement_epoch_ms = 60'000.0;
};

struct ReplayReport {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t not_found_reads = 0;
  double get_mean_ms = 0.0;
  double put_mean_ms = 0.0;
  std::size_t epochs = 0;
  std::size_t migrations = 0;
  /// Mean read latency per epoch window (shows placement converging).
  std::vector<double> get_mean_by_epoch;
};

/// Replays `trace` into `store` on `simulator`, after writing every object
/// the trace touches once at t=0 so early reads can hit. Event client index
/// i is mapped to node client_nodes[i % size] with coordinates
/// client_coords of the same index. The store must be freshly constructed
/// (metrics at zero).
ReplayReport replay_trace(sim::Simulator& simulator, ReplicatedKvStore& store,
                          const wl::Trace& trace,
                          const std::vector<topo::NodeId>& client_nodes,
                          const std::vector<Point>& client_coords,
                          const ReplayConfig& config = {});

}  // namespace geored::store
