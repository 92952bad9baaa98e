#include "reference/router_scalar.h"

#include <algorithm>
#include <limits>

#include "common/ensure.h"

namespace geored::serve {

ScalarRouter::ScalarRouter(ServeConfig config) : config_(config) {
  GEORED_ENSURE(config_.service_ms > 0.0, "service_ms must be positive");
  GEORED_ENSURE(config_.queue_cap >= 1, "queue_cap must be at least 1");
}

void ScalarRouter::set_replicas(const std::vector<ReplicaSpec>& replicas) {
  std::vector<Replica> next;
  next.reserve(replicas.size());
  std::vector<std::size_t> order(replicas.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return replicas[a].node < replicas[b].node;
  });
  for (const std::size_t i : order) {
    const ReplicaSpec& spec = replicas[i];
    GEORED_ENSURE(next.empty() || next.back().node < spec.node,
                  "duplicate replica node in set_replicas");
    Replica replica;
    replica.node = spec.node;
    replica.coords = spec.coords;
    for (auto& old : replicas_) {
      if (old.node == spec.node) {
        replica.departures = std::move(old.departures);
        replica.last_depart_ms = old.last_depart_ms;
        break;
      }
    }
    next.push_back(std::move(replica));
  }
  replicas_ = std::move(next);
}

void ScalarRouter::set_down(const std::set<topo::NodeId>& down) {
  for (auto& replica : replicas_) replica.down = down.contains(replica.node);
}

std::size_t ScalarRouter::prune(Replica& replica, double now_ms) const {
  auto& departures = replica.departures;
  std::size_t departed = 0;
  while (departed < departures.size() && departures[departed] <= now_ms) ++departed;
  departures.erase(departures.begin(),
                   departures.begin() + static_cast<std::ptrdiff_t>(departed));
  return departures.size();
}

double ScalarRouter::enqueue(Replica& replica, double now_ms) {
  const double wait_ms = std::max(0.0, replica.last_depart_ms - now_ms);
  const double depart_ms = now_ms + wait_ms + config_.service_ms;
  replica.departures.push_back(depart_ms);
  replica.last_depart_ms = depart_ms;
  return wait_ms;
}

RouteDecision ScalarRouter::route(const Point& query, double now_ms) {
  ++stats_.requests;
  RouteDecision decision;

  // Nearest up replica: the straightforward Point loop in ascending NodeId
  // order, strict-`<` first winner.
  std::size_t best = replicas_.size();
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i].down) continue;
    const double dist = query.distance_squared_to(replicas_[i].coords);
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  if (best == replicas_.size()) {
    ++stats_.lost;
    return decision;
  }

  Replica& primary = replicas_[best];
  if (prune(primary, now_ms) < config_.queue_cap) {
    decision.outcome = RouteDecision::Outcome::kAdmitted;
    decision.replica = primary.node;
    decision.wait_ms = enqueue(primary, now_ms);
    decision.dist_sq = best_dist;
    ++stats_.admitted;
    return decision;
  }

  if (config_.policy == ServeConfig::Policy::kSpill) {
    std::size_t spill = replicas_.size();
    double spill_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_[i].down || i == best) continue;
      const double dist = query.distance_squared_to(replicas_[i].coords);
      if (dist < spill_dist) {
        spill_dist = dist;
        spill = i;
      }
    }
    if (spill < replicas_.size()) {
      Replica& target = replicas_[spill];
      if (prune(target, now_ms) < config_.queue_cap) {
        decision.outcome = RouteDecision::Outcome::kSpilled;
        decision.replica = target.node;
        decision.wait_ms = enqueue(target, now_ms);
        decision.dist_sq = spill_dist;
        ++stats_.admitted;
        ++stats_.spilled;
        return decision;
      }
    }
  }

  decision.outcome = RouteDecision::Outcome::kRejected;
  ++stats_.rejected;
  return decision;
}

double ScalarRouter::complete(const RouteDecision& decision, double rtt_ms) {
  GEORED_ENSURE(decision.admitted(), "complete() on a request that was not admitted");
  const double latency_ms = rtt_ms + decision.wait_ms + config_.service_ms;
  histogram_.record(latency_ms);
  return latency_ms;
}

void ScalarRouter::reset_epoch() {
  histogram_.reset();
  stats_ = RequestRouter::Stats{};
}

}  // namespace geored::serve
