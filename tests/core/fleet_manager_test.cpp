#include "core/fleet_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"

namespace geored::core {
namespace {

std::vector<place::CandidateInfo> line_candidates(std::size_t count = 10) {
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < count; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i),
                          Point{100.0 * static_cast<double>(i)},
                          std::numeric_limits<double>::infinity()});
  }
  return candidates;
}

ManagerConfig small_config(std::size_t k = 2) {
  ManagerConfig config;
  config.replication_degree = k;
  config.summarizer.max_clusters = 4;
  config.summarizer.min_absorb_radius = 10.0;
  return config;
}

/// Bit-exact rendering of one report (hex-float doubles): two reports render
/// equal iff they are bitwise-identical.
std::string format_report(const EpochReport& r) {
  std::string out;
  for (const auto node : r.adopted_placement) out += std::to_string(node) + ",";
  char buffer[192];
  std::snprintf(buffer, sizeof buffer, "|%a|%a|%d|%a|%zu|%zu|%llu|%zu",
                r.old_estimated_delay_ms, r.new_estimated_delay_ms,
                r.decision.migrate ? 1 : 0, r.decision.gain_ms, r.replicas_moved,
                r.summary_bytes, static_cast<unsigned long long>(r.epoch_accesses),
                r.degree);
  out += buffer;
  return out;
}

/// Each group gets its own regional population: group g clusters around
/// x = 150 g with group-dependent volume, every epoch.
void feed_groups(FleetManager& fleet, std::uint64_t epoch) {
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    Rng rng(1000 * (g + 1) + epoch);
    const int accesses = 100 + 40 * static_cast<int>(g);
    for (int i = 0; i < accesses; ++i) {
      fleet.group(g).serve(Point{rng.normal(150.0 * static_cast<double>(g), 20.0)});
    }
  }
}

TEST(FleetManager, SingleGroupReproducesBareManager) {
  // The fleet's per-group seed split is the store layer's historical one, so
  // a one-group fleet is indistinguishable from a bare ReplicationManager.
  constexpr std::uint64_t kSeed = 7;
  FleetConfig config;
  config.groups = 1;
  config.manager = small_config();
  FleetManager fleet(line_candidates(), config, kSeed);
  ReplicationManager bare(line_candidates(), small_config(),
                          kSeed ^ 0x9e3779b97f4a7c15ULL);

  EXPECT_EQ(fleet.group(0).placement(), bare.placement());
  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    Rng fleet_rng(epoch);
    Rng bare_rng(epoch);
    for (int i = 0; i < 400; ++i) {
      fleet.serve(/*object_id=*/i, Point{fleet_rng.uniform(0.0, 900.0)});
      bare.serve(Point{bare_rng.uniform(0.0, 900.0)});
    }
    const auto fleet_report = fleet.run_epochs();
    ASSERT_EQ(fleet_report.group_reports.size(), 1u);
    EXPECT_EQ(format_report(fleet_report.group_reports[0]), format_report(bare.run_epoch()));
  }
}

TEST(FleetManager, RunEpochsIsBitIdenticalAcrossThreadCounts) {
  FleetConfig config;
  config.groups = 5;
  config.manager = small_config();

  // Same fleet, same streams, different GEORED_THREADS-equivalent pool
  // sizes: every group report must match bit for bit.
  std::vector<std::string> per_thread_runs;
  for (const std::size_t threads : {1ul, 4ul}) {
    ThreadPool::set_global_thread_count(threads);
    FleetManager fleet(line_candidates(), config, 42);
    std::string transcript;
    for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
      feed_groups(fleet, epoch);
      const auto report = fleet.run_epochs();
      for (const auto& group_report : report.group_reports) {
        transcript += format_report(group_report);
        transcript += "\n";
      }
    }
    per_thread_runs.push_back(std::move(transcript));
  }
  ThreadPool::set_global_thread_count(0);  // restore the default pool

  ASSERT_EQ(per_thread_runs.size(), 2u);
  EXPECT_EQ(per_thread_runs[0], per_thread_runs[1]);
}

TEST(FleetManager, BudgetFollowsDemand) {
  FleetConfig config;
  config.groups = 3;
  config.manager = small_config();
  config.replica_budget = 6;
  config.min_degree = 1;
  config.max_degree = 4;
  FleetManager fleet(line_candidates(), config, 11);

  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    // Group 0 is hot and geographically spread; the others are cold point
    // populations that one replica serves perfectly.
    Rng rng(epoch + 1);
    for (int i = 0; i < 600; ++i) fleet.group(0).serve(Point{rng.uniform(0.0, 900.0)});
    for (int i = 0; i < 10; ++i) fleet.group(1).serve(Point{rng.normal(100.0, 5.0)});
    for (int i = 0; i < 10; ++i) fleet.group(2).serve(Point{rng.normal(800.0, 5.0)});
    const auto report = fleet.run_epochs();

    ASSERT_TRUE(report.allocation.has_value());
    const auto& degrees = report.allocation->degree_per_group;
    ASSERT_EQ(degrees.size(), 3u);
    std::size_t total = 0;
    for (std::size_t g = 0; g < degrees.size(); ++g) {
      EXPECT_GE(degrees[g], config.min_degree);
      EXPECT_LE(degrees[g], config.max_degree);
      total += degrees[g];
      // The granted degree is installed on the group for the next epoch.
      EXPECT_EQ(fleet.group(g).degree(), degrees[g]);
    }
    EXPECT_LE(total, config.replica_budget);
    EXPECT_GE(degrees[0], degrees[1]);  // the hot group never gets less
    EXPECT_GE(degrees[0], degrees[2]);

    EXPECT_EQ(report.total_accesses, 620u);
  }
}

TEST(FleetManager, RejectsBadConfig) {
  FleetConfig config;
  config.manager = small_config();
  config.groups = 0;
  EXPECT_THROW(FleetManager(line_candidates(), config, 1), std::invalid_argument);

  config.groups = 4;
  config.replica_budget = 3;  // cannot cover 4 groups at min_degree = 1
  config.min_degree = 1;
  EXPECT_THROW(FleetManager(line_candidates(), config, 1), std::invalid_argument);

  config.replica_budget = 8;
  config.min_degree = 3;
  config.max_degree = 2;  // inverted bounds
  EXPECT_THROW(FleetManager(line_candidates(), config, 1), std::invalid_argument);
}

TEST(FleetManager, GroupHashIsStableAndServeRoutesToTheGroup) {
  FleetConfig config;
  config.groups = 8;
  config.manager = small_config();
  FleetManager fleet(line_candidates(), config, 3);

  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::size_t group = fleet.group_of(id);
    EXPECT_LT(group, fleet.group_count());
    EXPECT_EQ(fleet.group_of(id), group);  // stable

    const auto served = fleet.serve(id, Point{450.0});
    const auto& placement = fleet.group(group).placement();
    EXPECT_NE(std::find(placement.begin(), placement.end(), served), placement.end());
  }
}

TEST(FleetManager, ServeRejectsBadClientCoordinates) {
  FleetConfig config;
  config.groups = 4;
  config.manager = small_config();
  FleetManager fleet(line_candidates(), config, 3);
  const std::uint64_t object = 7;
  const ReplicationManager& group = fleet.group(fleet.group_of(object));

  EXPECT_THROW(fleet.serve(object, Point{std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  EXPECT_THROW(fleet.serve(object, Point{-std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW(fleet.serve(object, Point{450.0, 0.0}), std::invalid_argument);
  EXPECT_EQ(group.epoch_accesses(), 0u);

  fleet.serve(object, Point{450.0});
  EXPECT_EQ(group.epoch_accesses(), 1u);
  EXPECT_NO_THROW(fleet.run_epochs());
}

}  // namespace
}  // namespace geored::core
