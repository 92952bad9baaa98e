#include "core/fleet_manager.h"

#include <algorithm>
#include <utility>

#include "common/ensure.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace geored::core {

FleetManager::FleetManager(std::vector<place::CandidateInfo> candidates, FleetConfig config,
                           std::uint64_t seed)
    : config_(std::move(config)) {
  GEORED_ENSURE(config_.groups >= 1, "fleet needs at least one group");
  GEORED_ENSURE(config_.min_degree >= 1 && config_.min_degree <= config_.max_degree,
                "degree bounds must satisfy 1 <= min <= max");
  if (config_.replica_budget > 0) {
    GEORED_ENSURE(config_.replica_budget >= config_.groups * config_.min_degree,
                  "replica budget cannot cover the minimum degree for every group");
    // The budget owns each group's degree from here on: per-group demand
    // adjustment would fight the allocator, and the managers must accept
    // any degree the allocator grants within the fleet bounds.
    config_.manager.dynamic_degree = false;
    config_.manager.min_degree = config_.min_degree;
    config_.manager.max_degree = config_.max_degree;
    config_.manager.replication_degree =
        std::clamp(config_.manager.replication_degree, config_.min_degree, config_.max_degree);
  }
  groups_.reserve(config_.groups);
  for (std::size_t g = 0; g < config_.groups; ++g) {
    const std::uint64_t group_seed = seed ^ (0x9e3779b97f4a7c15ULL * (g + 1));
    if (config_.collector_factory) {
      groups_.push_back(std::make_unique<ReplicationManager>(
          candidates, config_.manager, group_seed, config_.collector_factory(g)));
    } else {
      groups_.push_back(
          std::make_unique<ReplicationManager>(candidates, config_.manager, group_seed));
    }
  }
}

std::size_t FleetManager::group_of(std::uint64_t object_id) const {
  std::uint64_t state = object_id;
  return static_cast<std::size_t>(splitmix64(state) % groups_.size());
}

ReplicationManager& FleetManager::group(std::size_t index) {
  GEORED_ENSURE(index < groups_.size(), "group index out of range");
  return *groups_[index];
}

const ReplicationManager& FleetManager::group(std::size_t index) const {
  GEORED_ENSURE(index < groups_.size(), "group index out of range");
  return *groups_[index];
}

topo::NodeId FleetManager::serve(std::uint64_t object_id, const Point& client_coords,
                                 double data_weight) {
  GEORED_ENSURE(data_weight >= 0.0, "data weight must be non-negative");
  return groups_[group_of(object_id)]->serve(client_coords, data_weight);
}

FleetEpochReport FleetManager::run_epochs(const std::set<topo::NodeId>& excluded) {
  FleetEpochReport report;
  report.group_reports.resize(groups_.size());

  // One group per parallel task. Each group's epoch is a pure function of
  // that group's own state, and any data-parallel calls it makes run inline
  // within the task (ThreadPool nesting rule) — so the reports land in group
  // order regardless of scheduling and match the sequential execution bit
  // for bit.
  parallel_for(groups_.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      report.group_reports[g] = groups_[g]->run_epoch(excluded);
    }
  });

  for (const auto& group_report : report.group_reports) {
    report.total_accesses += group_report.epoch_accesses;
    if (group_report.adopted_placement != group_report.old_placement) ++report.groups_migrated;
  }

  // Between epochs: re-divide the replica budget from the groups' measured
  // demand curves. The curves read post-adoption summaries; the granted
  // degrees take effect at the next epoch via the degree-change rule.
  if (config_.replica_budget > 0) {
    std::vector<GroupDemand> demands(groups_.size());
    parallel_for(groups_.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t g = begin; g < end; ++g) {
        demands[g].delay_by_degree =
            groups_[g]->delay_by_degree_curve(config_.min_degree, config_.max_degree);
        // The group's priority weight scales its whole demand curve, so a
        // weight-2 group bids for marginal replicas as if twice as hot —
        // the scenario engine's lever for anticipated (not yet measured)
        // demand shifts. Neutral weight 1 leaves the curve untouched.
        const double weight = groups_[g]->budget_weight();
        if (weight != 1.0) {
          for (double& delay : demands[g].delay_by_degree) delay *= weight;
        }
      }
    });
    AllocatorConfig allocator;
    allocator.min_degree = config_.min_degree;
    allocator.max_degree = config_.max_degree;
    allocator.budget = config_.replica_budget;
    report.allocation = allocate_replica_budget(demands, allocator);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      groups_[g]->set_degree(report.allocation->degree_per_group[g]);
    }
  }
  return report;
}

void FleetManager::set_group_weight(std::size_t index, double weight) {
  GEORED_ENSURE(index < groups_.size(), "group index out of range");
  groups_[index]->set_budget_weight(weight);
}

double FleetManager::group_weight(std::size_t index) const {
  GEORED_ENSURE(index < groups_.size(), "group index out of range");
  return groups_[index]->budget_weight();
}

void FleetManager::save(ByteWriter& writer) const {
  writer.write_u32(kFleetCheckpointMagic);
  writer.write_u32(kFleetCheckpointVersion);
  writer.write_u32(static_cast<std::uint32_t>(groups_.size()));
  for (const auto& group : groups_) group->save(writer);
}

void FleetManager::restore(ByteReader& reader) {
  const std::uint32_t magic = reader.read_u32();
  GEORED_ENSURE(magic == kFleetCheckpointMagic, "not a fleet checkpoint (bad magic)");
  const std::uint32_t version = reader.read_u32();
  GEORED_ENSURE(version == kFleetCheckpointVersion,
                "unsupported fleet checkpoint version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kFleetCheckpointVersion) + ")");
  const std::uint32_t groups = reader.read_u32();
  GEORED_ENSURE(groups == groups_.size(),
                "fleet checkpoint holds " + std::to_string(groups) +
                    " groups but this fleet has " + std::to_string(groups_.size()));
  for (auto& group : groups_) group->restore(reader);
}

}  // namespace geored::core
