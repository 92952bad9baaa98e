#include "serve/request_router.h"

#include <algorithm>
#include <limits>

#include "common/ensure.h"
#include "common/point_set_simd.h"

namespace geored::serve {

RequestRouter::RequestRouter(ServeConfig config) : config_(config) {
  GEORED_ENSURE(config_.service_ms > 0.0, "service_ms must be positive");
  GEORED_ENSURE(config_.queue_cap >= 1, "queue_cap must be at least 1");
}

void RequestRouter::set_replicas(const std::vector<ReplicaSpec>& replicas) {
  // Placement adoption is a per-epoch path, not per-request.
  std::vector<Replica> next;  // lint: alloc-ok
  next.reserve(replicas.size());

  // Ascending-NodeId order is the routing tie-break: the panel scan takes
  // the first strict-`<` winner, so equal distances resolve to the lowest
  // node id. Sort a copy of the spec order here.
  std::vector<std::size_t> order(replicas.size());  // lint: alloc-ok
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return replicas[a].node < replicas[b].node;
  });

  PointSet coords;
  for (const std::size_t i : order) {
    const ReplicaSpec& spec = replicas[i];
    GEORED_ENSURE(next.empty() || next.back().node < spec.node,
                  "duplicate replica node in set_replicas");
    Replica replica;
    replica.node = spec.node;
    // Carry queue state across placement changes for retained replicas:
    // requests in flight at an epoch boundary are still in flight.
    const auto old = std::lower_bound(
        replicas_.begin(), replicas_.end(), spec.node,
        [](const Replica& r, topo::NodeId node) { return r.node < node; });
    if (old != replicas_.end() && old->node == spec.node) {
      replica.queue = std::move(old->queue);
    } else {
      replica.queue.ring.assign(config_.queue_cap, 0.0);
    }
    next.push_back(std::move(replica));
    coords.push_back(spec.coords);
  }
  replicas_ = std::move(next);
  coords_ = std::move(coords);
  rebuild_panel();
}

void RequestRouter::set_down(const std::set<topo::NodeId>& down) {
  // The set is tiny (outage windows); the compare makes the per-access
  // call free whenever the down set is unchanged.
  if (down.size() == down_.size() &&
      std::equal(down.begin(), down.end(), down_.begin())) {
    return;
  }
  down_.assign(down.begin(), down.end());
  rebuild_panel();
}

void RequestRouter::rebuild_panel() {
  up_panel_ = PointSet(coords_.dim());
  up_slots_.clear();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (std::binary_search(down_.begin(), down_.end(), replicas_[i].node)) continue;
    up_panel_.push_back_row(coords_.row(i), coords_.dim());
    up_slots_.push_back(i);
  }
}

std::size_t RequestRouter::prune(Queue& queue, double now_ms) const {
  const std::size_t cap = config_.queue_cap;
  while (queue.count > 0 && queue.ring[queue.head] <= now_ms) {
    queue.head = (queue.head + 1) % cap;
    --queue.count;
  }
  return queue.count;
}

double RequestRouter::enqueue(Replica& replica, double now_ms) {
  Queue& queue = replica.queue;
  const double wait_ms = std::max(0.0, queue.last_depart_ms - now_ms);
  const double depart_ms = now_ms + wait_ms + config_.service_ms;
  queue.ring[(queue.head + queue.count) % config_.queue_cap] = depart_ms;
  ++queue.count;
  queue.last_depart_ms = depart_ms;
  return wait_ms;
}

void RequestRouter::admit(std::size_t primary_row, const double* query, double now_ms,
                          RouteDecision& out) {
  Replica& primary = replicas_[up_slots_[primary_row]];
  if (prune(primary.queue, now_ms) < config_.queue_cap) {
    out.outcome = RouteDecision::Outcome::kAdmitted;
    out.replica = primary.node;
    out.wait_ms = enqueue(primary, now_ms);
    ++stats_.admitted;
    return;
  }
  if (config_.policy == ServeConfig::Policy::kSpill && up_panel_.size() >= 2) {
    // Second-nearest up replica: a lazy scalar re-scan excluding the
    // primary row. The batched kernel reports the runner-up *distance* but
    // not its index; recovering it here only on the (rare) full-queue path
    // keeps the common case on the pure argmin kernels. Same strict-`<`
    // first-winner order as the primary scan.
    std::size_t spill_row = primary_row;
    double spill_dist = std::numeric_limits<double>::infinity();
    const std::size_t rows = up_panel_.size();
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == primary_row) continue;
      const double dist = up_panel_.distance_squared(r, query);
      const bool better = dist < spill_dist;
      spill_row = better ? r : spill_row;
      spill_dist = better ? dist : spill_dist;
    }
    Replica& spill = replicas_[up_slots_[spill_row]];
    if (prune(spill.queue, now_ms) < config_.queue_cap) {
      out.outcome = RouteDecision::Outcome::kSpilled;
      out.replica = spill.node;
      out.wait_ms = enqueue(spill, now_ms);
      ++stats_.admitted;
      ++stats_.spilled;
      return;
    }
  }
  out.outcome = RouteDecision::Outcome::kRejected;
  ++stats_.rejected;
}

RouteDecision RequestRouter::route(const double* query, double now_ms) {
  ++stats_.requests;
  RouteDecision decision;
  if (up_panel_.empty()) {
    ++stats_.lost;
    return decision;
  }
  const std::size_t row = up_panel_.nearest2_of(query, nullptr, nullptr);
  admit(row, query, now_ms, decision);
  return decision;
}

void RequestRouter::route_batch(const PointSet& points, const std::size_t* indices,
                                std::size_t count, const double* nows_ms,
                                RouteDecision* out) {
  if (count == 0) return;
  if (up_panel_.empty()) {
    for (std::size_t j = 0; j < count; ++j) {
      ++stats_.requests;
      ++stats_.lost;
      out[j] = RouteDecision{};
    }
    return;
  }
  GEORED_ENSURE(points.dim() == up_panel_.dim(),
                "query dimension mismatch in route_batch");
  const std::size_t tile = std::min(count, kRouteTile);
  assign_.resize(tile);
  best_sq_.resize(tile);
  second_sq_.resize(tile);
  const simd::Level level = simd::active_level();
  // Per tile: one batched nearest-two scan (one query per SIMD lane,
  // bit-identical to the scalar nearest2_of at every level), then the
  // sequential admission pass in arrival order — queue decisions depend on
  // earlier admissions, so that part is inherently ordered. The kernel
  // treats every query on its own, so the tiling never changes a decision.
  for (std::size_t begin = 0; begin < count; begin += kRouteTile) {
    const std::size_t rows = std::min(kRouteTile, count - begin);
    const std::size_t* tile_indices = indices != nullptr ? indices + begin : nullptr;
    const double* tile_points = indices != nullptr ? points.row(0) : points.row(begin);
    simd::nearest2_batch(tile_points, points.dim(), tile_indices, rows, up_panel_.row(0),
                         up_panel_.size(), assign_.data(), best_sq_.data(),
                         second_sq_.data(), level);
    for (std::size_t t = 0; t < rows; ++t) {
      const std::size_t j = begin + t;
      const double* query = points.row(indices != nullptr ? indices[j] : j);
      ++stats_.requests;
      out[j] = RouteDecision{};
      admit(assign_[t], query, nows_ms[j], out[j]);
    }
  }
}

double RequestRouter::complete(const RouteDecision& decision, double rtt_ms) {
  GEORED_ENSURE(decision.admitted(), "complete() on a request that was not admitted");
  const double latency_ms = rtt_ms + decision.wait_ms + config_.service_ms;
  histogram_.record(latency_ms);
  return latency_ms;
}

// Observational: an unknown node reads as an empty queue by design.
std::size_t RequestRouter::resident_at(topo::NodeId node, double now_ms) const {  // lint: no-ensure
  const auto it = std::lower_bound(
      replicas_.begin(), replicas_.end(), node,
      [](const Replica& r, topo::NodeId id) { return r.node < id; });
  if (it == replicas_.end() || it->node != node) return 0;
  const Queue& queue = it->queue;
  std::size_t resident = 0;
  for (std::size_t i = 0; i < queue.count; ++i) {
    if (queue.ring[(queue.head + i) % config_.queue_cap] > now_ms) ++resident;
  }
  return resident;
}

void RequestRouter::reset_epoch() {
  histogram_.reset();
  stats_ = Stats{};
}

}  // namespace geored::serve
