// Frozen scalar reference for the request router.
//
// This is the Point-loop router the SoA/SIMD RequestRouter replaced,
// retained verbatim as the correctness baseline: the serve_route bench case
// and the property tests drive both routers through identical request
// streams and require byte-identical decisions, counters, and histogram
// buckets. Do not optimize this file — its value is being the slow,
// obviously correct arbiter. Semantics match serve/request_router.h exactly:
// nearest up replica by squared coordinate distance with strict-`<`
// first-winner ties over an ascending-NodeId scan, bounded virtual-time
// FIFO queues, spill-to-second-nearest or reject on a full queue. Part of
// the test-only geored_reference library: no production library links it.
#pragma once

#include <cstddef>
#include <set>
#include <vector>

#include "common/point.h"
#include "serve/request_router.h"

namespace geored::serve {

class ScalarRouter {
 public:
  explicit ScalarRouter(ServeConfig config);

  void set_replicas(const std::vector<ReplicaSpec>& replicas);
  void set_down(const std::set<topo::NodeId>& down);

  RouteDecision route(const Point& query, double now_ms);

  double complete(const RouteDecision& decision, double rtt_ms);

  const LatencyHistogram& histogram() const { return histogram_; }
  const RequestRouter::Stats& stats() const { return stats_; }

  void reset_epoch();

 private:
  struct Replica {
    topo::NodeId node = 0;
    Point coords;
    bool down = false;
    std::vector<double> departures;  ///< resident departure times, FIFO order
    double last_depart_ms = 0.0;
  };

  std::size_t prune(Replica& replica, double now_ms) const;
  double enqueue(Replica& replica, double now_ms);

  ServeConfig config_;
  std::vector<Replica> replicas_;  ///< ascending NodeId
  LatencyHistogram histogram_;
  RequestRouter::Stats stats_;
};

}  // namespace geored::serve
