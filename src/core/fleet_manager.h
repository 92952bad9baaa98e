// FleetManager: many object groups, one replica budget.
//
// A production store does not place one object — it places thousands of
// object groups, each with its own access population (Section II-A treats a
// group as one virtual object). FleetManager owns one ReplicationManager per
// group, runs all group epochs in parallel over the deterministic global
// ThreadPool (one group per task, seeded per group, so results are
// bit-identical at any GEORED_THREADS), and — when a fleet-wide replica
// budget is configured — divides that budget across groups with
// allocate_replica_budget from each group's measured delay-by-degree curve:
// hot, spread-out groups earn more replicas, cold groups fall to the
// minimum.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/degree_allocator.h"
#include "core/replication_manager.h"
#include "placement/types.h"

namespace geored::core {

/// Fleet checkpoint wire format (FleetManager::save): an envelope of
/// per-group ReplicationManager checkpoints, so the fleet's whole budget
/// allocation — each group's granted degree and priority weight — survives
/// a coordinator failover in one blob.
inline constexpr std::uint32_t kFleetCheckpointMagic = 0x47524643;  // "GRFC"
inline constexpr std::uint32_t kFleetCheckpointVersion = 1;

struct FleetConfig {
  /// Number of object groups (each governed by its own manager).
  std::size_t groups = 1;

  /// Per-group manager configuration. When a replica budget is set, the
  /// budget owns each group's degree: dynamic_degree is forced off and the
  /// manager degree bounds are aligned to min_degree/max_degree below.
  ManagerConfig manager;

  /// Total replicas the fleet may hold across all groups; 0 disables budget
  /// allocation (every group keeps its configured degree). Must cover
  /// groups * min_degree when set.
  std::size_t replica_budget = 0;
  std::size_t min_degree = 1;
  std::size_t max_degree = 7;

  /// Optional per-group summary collector: when set, group g's manager
  /// collects through collector_factory(g) instead of in-process — how the
  /// scenario engine swaps in e.g. the RPC-backed collector without the
  /// caller constructing managers itself. The factory must return a
  /// non-null collector; it is invoked once per group at construction.
  std::function<std::unique_ptr<SummaryCollector>(std::size_t group)> collector_factory;
};

/// One fleet-wide epoch round: every group's report, plus the budget
/// allocation chosen for the *next* round (when budgeting is enabled).
struct FleetEpochReport {
  std::vector<EpochReport> group_reports;  ///< indexed by group
  std::optional<Allocation> allocation;
  std::uint64_t total_accesses = 0;
  std::size_t groups_migrated = 0;
};

class FleetManager {
 public:
  /// Every group sees the same candidate data centers; group g's manager is
  /// seeded with seed ^ (0x9e3779b97f4a7c15 * (g + 1)), the store layer's
  /// historical per-group stream split, so single-group fleets reproduce a
  /// bare ReplicationManager exactly.
  FleetManager(std::vector<place::CandidateInfo> candidates, FleetConfig config,
               std::uint64_t seed);

  std::size_t group_count() const { return groups_.size(); }

  /// The group an object id hashes to (splitmix64, stable across runs).
  std::size_t group_of(std::uint64_t object_id) const;

  ReplicationManager& group(std::size_t index);
  const ReplicationManager& group(std::size_t index) const;

  /// Routes one access for `object_id` to its group's nearest replica.
  topo::NodeId serve(std::uint64_t object_id, const Point& client_coords,
                     double data_weight = 1.0);

  /// Runs one placement epoch for every group, parallelized over the global
  /// ThreadPool (one group per task; nested data-parallel calls inside a
  /// group run inline, so the result is bit-identical at any thread count).
  /// With a replica budget configured, afterwards measures each group's
  /// delay-by-degree curve and re-divides the budget; the new degrees take
  /// effect at the next epoch.
  ///
  /// FleetManager <-> ThreadPool invariants: run_epoch is an exclusive-access
  /// entry point on each manager (see ReplicationManager's concurrency
  /// contract), and the chunked fan-out touches each group from exactly one
  /// chunk, so the exclusivity each group requires is met structurally —
  /// no group-level lock exists or is needed. The pool chunks never call
  /// run_chunks themselves (run_epoch's inner parallelism goes through
  /// parallel_for, which runs inline inside a chunk), upholding the pool's
  /// no-reentrancy rule. record paths (serve) are concurrent-safe per group
  /// but must not overlap run_epochs: an epoch swaps the summarizers the
  /// record paths feed.
  FleetEpochReport run_epochs(const std::set<topo::NodeId>& excluded = {});

  /// Sets group `index`'s allocation-priority weight: the group's demand
  /// curve is multiplied by it before the replica budget is divided, so an
  /// external controller (scenario engine, operator policy) can bias the
  /// allocation ahead of the traffic actually shifting. Neutral weight is
  /// 1; takes effect at the next run_epochs.
  void set_group_weight(std::size_t index, double weight);
  double group_weight(std::size_t index) const;

  /// Serializes every group's checkpoint behind a fleet envelope
  /// (kFleetCheckpointMagic / kFleetCheckpointVersion + group count), so
  /// one blob captures the fleet's full state including the budget
  /// allocation in force.
  void save(ByteWriter& writer) const;

  /// Restores a blob written by save(). The fleet must have been built with
  /// the same candidates and configuration (the group count is validated);
  /// bad magic, unknown versions, and mismatched group counts throw before
  /// any group is touched.
  void restore(ByteReader& reader);

 private:
  FleetConfig config_;
  std::vector<std::unique_ptr<ReplicationManager>> groups_;
};

}  // namespace geored::core
