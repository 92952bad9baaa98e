// RequestRouter: the read-path data plane in front of the replicated store.
//
// Placement quality has so far only been an objective value; the router
// closes the loop by serving individual requests. Each request resolves to
// the nearest *up* replica in coordinate space (the paper's nearest-replica
// access model) through the same SoA distance kernels the placement hot
// paths use — per query via PointSet::nearest2_of, batched via
// simd::nearest2_batch, which is bit-identical to the scalar scan at every
// SIMD level — and then passes admission control in front of a bounded
// per-replica FIFO queue:
//
//   * Each replica serves one request every service_ms on a deterministic
//     virtual-time model: a request arriving at `now` departs at
//     max(now, previous departure) + service_ms, and its queue wait is
//     max(0, previous departure - now).
//   * A replica whose queue holds queue_cap resident requests is full.
//     Policy kSpill retries the second-nearest up replica; kReject (and a
//     full spill target) drops the request. Admission therefore never
//     exceeds queue_cap at any replica — the property tests' invariant.
//   * Client-observed latency = network RTT (supplied by the caller, who
//     owns the topology) + queue wait + service time, recorded into a
//     byte-stable LatencyHistogram for p50/p99/p999 per epoch.
//
// Determinism contract: routing and admission are pure functions of the
// replica set, the down set, and the (query, now) sequence — no wall clock,
// no RNG, no iteration over unordered containers. Ties in the nearest scan
// go to the lowest NodeId (the up panel is sorted ascending by node and the
// scan takes the first strict-`<` winner). route_batch reproduces a route()
// loop bit for bit; tests/serve pins both against the frozen Point-loop
// reference in reference/router_scalar.h (test-only).
//
// The router is single-threaded like every geored component; `now_ms` must
// be non-decreasing across calls (simulator event order provides this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "common/point.h"
#include "common/point_set.h"
#include "serve/latency_histogram.h"
#include "topology/topology.h"

namespace geored::serve {

struct ServeConfig {
  /// Virtual service time per request at a replica (one request at a time).
  double service_ms = 0.05;
  /// Maximum resident requests per replica (queued + in service).
  std::size_t queue_cap = 64;

  enum class Policy {
    kReject,  ///< full primary queue rejects the request
    kSpill,   ///< full primary queue retries the second-nearest up replica
  };
  Policy policy = Policy::kSpill;
};

/// One replica the router may serve from: a data center and its network
/// coordinates (the summary-space position replica selection runs in).
struct ReplicaSpec {
  topo::NodeId node = 0;
  Point coords;
};

/// What the router decided for one request: 16 bytes, written once per
/// request on the serving hot path. A caller that wants the coordinate-
/// space RTT proxy computes it from the serving replica's coordinates.
struct RouteDecision {
  enum class Outcome : std::uint8_t {
    kLost,      ///< no up replica exists
    kRejected,  ///< admission failed (primary full; spill full or disabled)
    kAdmitted,  ///< served by the nearest up replica
    kSpilled,   ///< primary full, served by the second-nearest up replica
  };

  Outcome outcome = Outcome::kLost;
  topo::NodeId replica = 0;  ///< serving replica (admitted/spilled only)
  double wait_ms = 0.0;      ///< queue wait at the serving replica

  bool admitted() const {
    return outcome == Outcome::kAdmitted || outcome == Outcome::kSpilled;
  }
};

static_assert(sizeof(RouteDecision) == 16,
              "a route decision is an outcome, a node and a wait");

class RequestRouter {
 public:
  struct Stats {
    std::uint64_t requests = 0;  ///< admitted + rejected + lost
    std::uint64_t admitted = 0;  ///< served (includes spilled)
    std::uint64_t rejected = 0;
    std::uint64_t spilled = 0;
    std::uint64_t lost = 0;
  };

  explicit RequestRouter(ServeConfig config);

  /// Replaces the replica set (an adopted placement). Queue state carries
  /// over for replicas present in both the old and new set — an epoch
  /// boundary does not drain retained replicas — and is dropped for removed
  /// ones. Nodes must be distinct; coordinates must share one dimension.
  void set_replicas(const std::vector<ReplicaSpec>& replicas);

  /// Marks the given data centers down: they leave the routing panel until
  /// a later set_down call clears them. Queue state of a down replica is
  /// retained (it resumes draining on the virtual timeline when back up).
  /// Cheap when the down set is unchanged from the previous call.
  void set_down(const std::set<topo::NodeId>& down);

  std::size_t replica_count() const { return replicas_.size(); }
  std::size_t up_count() const { return up_panel_.size(); }

  /// Routes one request at virtual time `now_ms`. `query` holds the
  /// client's coordinates (same dimension as the replica specs). Updates
  /// queues and counters; latency is recorded by the complete() that
  /// follows an admitted decision.
  RouteDecision route(const double* query, double now_ms);
  RouteDecision route(const Point& query, double now_ms) {
    return route(query.values().data(), now_ms);
  }

  /// Requests per nearest-two kernel call in route_batch, and so the bound
  /// on its scratch: route_batch works through a batch one tile at a time.
  static constexpr std::size_t kRouteTile = 1024;

  /// Routes `count` requests in one call: queries are rows of `points`
  /// (row indices[j], or row j when indices is null), arriving at
  /// non-decreasing nows_ms[j]. The nearest-up scan runs through the
  /// batched SIMD kernel, kRouteTile requests at a time; decisions are
  /// written to out[j] and are bit-identical to calling route() per query
  /// in order, at any batch size.
  void route_batch(const PointSet& points, const std::size_t* indices, std::size_t count,
                   const double* nows_ms, RouteDecision* out);

  /// Completes an admitted request with the caller's measured network RTT:
  /// records rtt + wait + service into the histogram and returns that
  /// latency. Must not be called for lost/rejected decisions.
  double complete(const RouteDecision& decision, double rtt_ms);

  const LatencyHistogram& histogram() const { return histogram_; }
  const Stats& stats() const { return stats_; }
  const ServeConfig& config() const { return config_; }

  /// Requests resident at `node`'s queue at virtual time `now_ms` (0 for a
  /// node the router does not hold). Observational; does not prune.
  std::size_t resident_at(topo::NodeId node, double now_ms) const;

  /// Clears the epoch accumulators (stats + histogram). Queue state
  /// persists: traffic in flight at an epoch boundary is still in flight.
  void reset_epoch();

 private:
  /// Bounded FIFO of departure times, ring-buffered at queue_cap slots —
  /// residency can never exceed the cap, so admission is allocation-free.
  struct Queue {
    std::vector<double> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    double last_depart_ms = 0.0;
  };

  struct Replica {
    topo::NodeId node = 0;
    Queue queue;
  };

  void rebuild_panel();
  /// Prunes departures at or before now; returns resident count.
  std::size_t prune(Queue& queue, double now_ms) const;
  /// Admission at panel row `primary` (spilling per policy); fills `out`.
  void admit(std::size_t primary_row, const double* query, double now_ms, RouteDecision& out);
  /// Pushes a request into `replica`'s queue; returns the queue wait.
  double enqueue(Replica& replica, double now_ms);

  ServeConfig config_;
  std::vector<Replica> replicas_;       ///< ascending NodeId
  PointSet coords_;                     ///< row i = replicas_[i] coordinates
  std::vector<topo::NodeId> down_;      ///< sorted; mirrors the last set_down
  PointSet up_panel_;                   ///< up-replica coordinates, ascending NodeId
  std::vector<std::size_t> up_slots_;   ///< panel row -> replicas_ index

  LatencyHistogram histogram_;
  Stats stats_;

  // route_batch scratch, one tile long at most (kRouteTile), whatever the
  // batch size, and reused across calls (hot path: no per-batch allocation
  // once warmed).
  std::vector<std::size_t> assign_;
  std::vector<double> best_sq_;
  std::vector<double> second_sq_;
};

}  // namespace geored::serve
