#include "store/kvstore.h"

#include <algorithm>
#include <iterator>

#include "common/ensure.h"

namespace geored::store {

ReplicatedKvStore::ReplicatedKvStore(sim::Simulator& simulator, sim::Network& network,
                                     std::vector<place::CandidateInfo> candidates,
                                     StoreConfig config, std::uint64_t seed)
    : simulator_(simulator), network_(network), config_(config), seed_(seed) {
  GEORED_ENSURE(!candidates.empty(), "store needs at least one data center");
  GEORED_ENSURE(config_.groups >= 1, "store needs at least one object group");
  GEORED_ENSURE(config_.quorum.n >= 1, "replication factor must be >= 1");
  GEORED_ENSURE(config_.quorum.n <= candidates.size(),
                "replication factor exceeds the candidate pool");
  GEORED_ENSURE(config_.quorum.r >= 1 && config_.quorum.r <= config_.quorum.n,
                "read quorum must be in [1, n]");
  GEORED_ENSURE(config_.quorum.w >= 1 && config_.quorum.w <= config_.quorum.n,
                "write quorum must be in [1, n]");

  config_.manager.replication_degree = config_.quorum.n;
  // A quorum system cannot let the degree drift away from n.
  config_.manager.dynamic_degree = false;

  core::FleetConfig fleet_config;
  fleet_config.groups = config_.groups;
  fleet_config.manager = config_.manager;
  const std::size_t nodes = network_.topology().size();
  for (const auto& candidate : candidates) {
    GEORED_ENSURE(candidate.node < nodes, "candidate is not a node of the network's topology");
  }
  // The quorum system owns the degree; no fleet-wide replica budget here.
  fleet_ = std::make_unique<core::FleetManager>(std::move(candidates), fleet_config, seed_);
  storage_.resize(fleet_->candidates().size());
  clocks_.reserve(nodes);
  for (std::size_t node = 0; node < nodes; ++node) {
    clocks_.emplace_back(static_cast<std::uint32_t>(node));
  }
}

template <typename Op>
std::uint32_t ReplicatedKvStore::OpSlab<Op>::acquire() {
  std::uint32_t slot = 0;
  if (free.empty()) {
    // Grows to the peak number of ops in flight, then only recycles.
    ops.emplace_back();
    slot = static_cast<std::uint32_t>(ops.size() - 1);
  } else {
    slot = free.back();
    free.pop_back();
  }
  peak = std::max(peak, ops.size() - free.size());
  return slot;
}

template <typename Op>
void ReplicatedKvStore::OpSlab<Op>::release(std::uint32_t slot) {
  free.push_back(slot);
  if (free.size() < ops.size()) return;
  // Drained: no op is in flight, so no record is referenced. Keep the
  // first `peak` records (a get record keeps its vectors' capacity) in a
  // deque sized for them.
  if (ops.size() > 2 * peak) {
    const auto kept_end = ops.begin() + static_cast<std::ptrdiff_t>(peak);
    std::deque<Op>(std::make_move_iterator(ops.begin()), std::make_move_iterator(kept_end))
        .swap(ops);
    free.clear();
    free.shrink_to_fit();
    free.reserve(peak);
    for (std::size_t i = peak; i-- > 0;) free.push_back(static_cast<std::uint32_t>(i));
  }
  peak = 0;
}

std::uint32_t ReplicatedKvStore::group_of(ObjectId id) const {
  return static_cast<std::uint32_t>(fleet_->group_of(id));
}

const place::Placement& ReplicatedKvStore::placement_of_group(std::uint32_t group) const {
  GEORED_ENSURE(group < fleet_->group_count(), "group index out of range");
  return fleet_->group(group).placement();
}

const core::ReplicationManager& ReplicatedKvStore::manager_of_group(
    std::uint32_t group) const {
  GEORED_ENSURE(group < fleet_->group_count(), "group index out of range");
  return fleet_->group(group);
}

void ReplicatedKvStore::validate_client(topo::NodeId client,
                                        const Point& client_coords) const {
  GEORED_ENSURE(client < clocks_.size(), "client is not a node of the network's topology");
  GEORED_ENSURE(client_coords.dim() == fleet_->candidates().dim(),
                "client coordinates have the wrong dimension");
}

StorageNode& ReplicatedKvStore::storage_of(topo::NodeId node) {
  const std::size_t position = fleet_->candidates().find(node);
  GEORED_CHECK(position != place::CandidateTable::npos, "placement node missing from candidates");
  return storage_[position];
}

const std::vector<std::pair<double, topo::NodeId>>& ReplicatedKvStore::rank_replicas(
    const place::Placement& placement, const Point& coords) {
  ranked_.clear();
  const place::CandidateTable& candidates = fleet_->candidates();
  for (const auto node : placement) {
    const std::size_t position = candidates.find(node);
    GEORED_CHECK(position != place::CandidateTable::npos,
                 "placement node missing from candidates");
    // Point::distance_squared_to's arithmetic with the operands swapped: a
    // negated difference squares to the same bits.
    ranked_.emplace_back(candidates.coords().distance_squared(position, coords.values().data()),
                         node);
  }
  std::sort(ranked_.begin(), ranked_.end());
  return ranked_;
}

void ReplicatedKvStore::put(topo::NodeId client, const Point& client_coords, ObjectId id,
                            Payload data, std::function<void(const PutResult&)> done) {
  GEORED_ENSURE(static_cast<bool>(done), "put requires a completion callback");
  validate_client(client, client_coords);
  const std::uint32_t group = group_of(id);
  auto& manager = fleet_->group(group);
  const place::Placement& placement = manager.placement();

  // Hybrid logical clock: advance the writer's clock past both everything
  // it has observed and the current physical time (microseconds of virtual
  // time). Pure per-writer Lamport counters would let an older write win
  // last-writer-wins against a later write by a different client that never
  // observed it; folding in physical time gives LWW the real-time order
  // that sequential consistency needs (writer id still breaks true ties).
  auto& clock = clocks_[client];
  clock.observe({static_cast<std::uint64_t>(simulator_.now() * 1000.0), 0});
  const Version version = clock.next();

  // The user population summary sees the write once, at the replica the
  // client would naturally be served by.
  const auto& ranked = rank_replicas(placement, client_coords);
  if (!ranked.empty()) {
    manager.record_access(ranked.front().second, client_coords);
  }

  const std::uint32_t slot = put_ops_.acquire();
  PutOp& op = put_ops_.ops[slot];
  op.id = id;
  op.group = group;
  op.client = client;
  op.acks = 0;
  op.outstanding = 2 * placement.size();
  op.started_at = simulator_.now();
  // The put's bytes, shared from here on.
  op.value = {std::move(data), version};
  op.done = std::move(done);

  const std::size_t payload = op.value.data.size() + kRequestOverheadBytes;
  for (const auto replica : placement) {
    network_.send(client, replica, payload, sim::TrafficClass::kAccess,
                  [this, slot, replica] { deliver_put(slot, replica); });
  }
}

void ReplicatedKvStore::deliver_put(  // lint: no-ensure (private)
    std::uint32_t slot, topo::NodeId replica) {
  PutOp& op = put_ops_.ops[slot];
  storage_of(replica).apply_write(op.group, op.id, op.value);
  --op.outstanding;
  // Ack back to the client.
  network_.send(replica, op.client, kRequestOverheadBytes, sim::TrafficClass::kAccess,
                [this, slot] { ack_put(slot); });
}

void ReplicatedKvStore::ack_put(std::uint32_t slot) {
  PutOp& op = put_ops_.ops[slot];
  --op.outstanding;
  const bool commit = ++op.acks == config_.quorum.w;
  std::function<void(const PutResult&)> done;
  PutResult result;
  if (commit) {
    // Commit point for the staleness oracle.
    committed_.merge(op.id, op.value.version);
    result.version = op.value.version;
    result.latency_ms = simulator_.now() - op.started_at;
    put_latency_.add(result.latency_ms);
    put_latency_histogram_.record(result.latency_ms);
    ++writes_;
    done = std::move(op.done);
  }
  if (op.outstanding == 0) {
    op.value = {};  // drop this op's share of the payload
    op.done = nullptr;
    put_ops_.release(slot);
  }
  // Last: the callback may start ops that reuse the slot.
  if (commit) done(result);
}

void ReplicatedKvStore::get(topo::NodeId client, const Point& client_coords, ObjectId id,
                            std::function<void(const GetResult&)> done) {
  GEORED_ENSURE(static_cast<bool>(done), "get requires a completion callback");
  validate_client(client, client_coords);
  const std::uint32_t group = group_of(id);
  auto& manager = fleet_->group(group);
  const place::Placement& placement = manager.placement();
  const auto& ranked = rank_replicas(placement, client_coords);
  GEORED_CHECK(!ranked.empty(), "group has no replicas");

  manager.record_access(ranked.front().second, client_coords);

  const std::uint32_t slot = get_ops_.acquire();
  GetOp& op = get_ops_.ops[slot];
  op.id = id;
  op.group = group;
  op.client = client;
  op.started_at = simulator_.now();
  // Freshness oracle: what was already committed when the read began.
  const Version* committed = committed_.find(id);
  op.committed_at_start = committed == nullptr ? Version::zero() : *committed;
  op.targets.clear();
  for (std::size_t i = 0; i < std::min(config_.quorum.r, ranked.size()); ++i) {
    op.targets.push_back(ranked[i].second);
  }
  op.read.resize(op.targets.size());
  op.replies.clear();
  op.best = {};
  op.done = std::move(done);
  op.outstanding = 2 * op.targets.size();

  for (std::uint32_t i = 0; i < op.targets.size(); ++i) {
    network_.send(client, op.targets[i], kRequestOverheadBytes,
                  sim::TrafficClass::kAccess, [this, slot, i] { serve_get(slot, i); });
  }
}

void ReplicatedKvStore::serve_get(  // lint: no-ensure (private)
    std::uint32_t slot, std::uint32_t index) {
  GetOp& op = get_ops_.ops[slot];
  const topo::NodeId replica = op.targets[index];
  op.read[index] = storage_of(replica).read(op.group, op.id);
  --op.outstanding;
  const std::size_t payload = op.read[index].data.size() + kRequestOverheadBytes;
  network_.send(replica, op.client, payload, sim::TrafficClass::kAccess,
                [this, slot, index] { reply_get(slot, index); });
}

void ReplicatedKvStore::reply_get(  // lint: no-ensure (private)
    std::uint32_t slot, std::uint32_t index) {
  GetOp& op = get_ops_.ops[slot];
  --op.outstanding;
  VersionedValue& value = op.read[index];
  op.replies.emplace_back(op.targets[index], value.version);
  if (value.version > op.best.version) op.best = std::move(value);
  if (op.replies.size() != op.targets.size()) return;

  clocks_[op.client].observe(op.best.version);
  GetResult result;
  result.latency_ms = simulator_.now() - op.started_at;
  result.stale = op.best.version < op.committed_at_start;
  get_latency_.add(result.latency_ms);
  get_latency_histogram_.record(result.latency_ms);
  ++reads_;
  if (result.stale) ++stale_reads_;
  if (!op.best.exists()) ++not_found_reads_;
  // Read repair: push the winning version back to every contacted replica
  // that returned less.
  if (config_.read_repair && op.best.exists()) {
    for (const auto& [node, version] : op.replies) {
      if (version >= op.best.version) continue;
      ++read_repairs_;
      ++op.outstanding;
      const std::size_t repair_bytes = op.best.data.size() + kRequestOverheadBytes;
      network_.send(op.client, node, repair_bytes, sim::TrafficClass::kAccess,
                    [this, slot, node = node] { repair(slot, node); });
    }
  }
  std::function<void(const GetResult&)> done = std::move(op.done);
  op.done = nullptr;
  if (op.outstanding == 0) {
    result.value = std::move(op.best);
    op.read.clear();  // drop this op's shares of the payloads
    get_ops_.release(slot);
  } else {
    result.value = op.best;  // the repairs in flight still write it
  }
  // Last: the callback may start ops that reuse the slot.
  done(result);
}

void ReplicatedKvStore::repair(  // lint: no-ensure (private)
    std::uint32_t slot, topo::NodeId replica) {
  GetOp& op = get_ops_.ops[slot];
  storage_of(replica).apply_write(op.group, op.id, op.best);
  if (--op.outstanding == 0) {
    op.read.clear();
    op.best = {};
    get_ops_.release(slot);
  }
}

void ReplicatedKvStore::migrate_group(std::uint32_t group,
                                      const place::Placement& old_placement,
                                      const place::Placement& new_placement) {
  for (const auto node : new_placement) {
    if (std::find(old_placement.begin(), old_placement.end(), node) !=
        old_placement.end()) {
      continue;  // already holds the group
    }
    // Stream the group's data from the nearest surviving old replica.
    topo::NodeId source = old_placement.front();
    for (const auto old_node : old_placement) {
      if (network_.rtt_ms(old_node, node) < network_.rtt_ms(source, node)) {
        source = old_node;
      }
    }
    GroupSnapshot snapshot = storage_of(source).export_group(group);
    const std::size_t bytes = std::max<std::size_t>(snapshot.bytes, 1);
    network_.send(source, node, bytes, sim::TrafficClass::kMigration,
                  [this, node, group, objects = std::move(snapshot.objects)] {
                    auto& target = storage_of(node);
                    for (const auto& [id, value] : objects) {
                      target.apply_write(group, id, value);
                    }
                  });
  }
  // Retired replicas drop the group once the new placement is in force.
  for (const auto node : old_placement) {
    if (std::find(new_placement.begin(), new_placement.end(), node) ==
        new_placement.end()) {
      storage_of(node).drop_group(group);
    }
  }
}

std::vector<core::EpochReport> ReplicatedKvStore::run_placement_epochs() {
  // Epochs are pure in-memory placement decisions (no network sends), so
  // running them all first — in parallel inside the fleet — and migrating
  // in group order afterwards schedules exactly the network events the
  // historical epoch-then-migrate-per-group loop produced.
  core::FleetEpochReport fleet_report = fleet_->run_epochs();
  for (std::uint32_t g = 0; g < fleet_report.group_reports.size(); ++g) {
    const core::EpochReport& report = fleet_report.group_reports[g];
    if (report.adopted_placement != report.old_placement) {
      migrate_group(g, report.old_placement, report.adopted_placement);
    }
  }
  return std::move(fleet_report.group_reports);
}

const StorageNode& ReplicatedKvStore::storage_at(topo::NodeId node) const {
  const std::size_t position = fleet_->candidates().find(node);
  GEORED_ENSURE(position != place::CandidateTable::npos, "node is not a data center of this store");
  return storage_[position];
}

}  // namespace geored::store
