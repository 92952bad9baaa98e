// Checkpoint format compatibility: the v2 manager checkpoint (budget grant
// flag + priority weight, appended in the fixed header after the degree)
// and the fleet envelope that aggregates per-group checkpoints.
//
// v2 layout, fixed header (little-endian):
//   [0,4)   magic "GRMC"
//   [4,8)   version (2)
//   [8,16)  epoch_index u64
//   [16,24) epoch_accesses u64
//   [24,32) degree u64
//   [32,36) budget_granted u32        <- added in v2
//   [36,44) budget_weight f64         <- added in v2
//   ...     placement / summarizer state (unchanged from v1)
// A v1 blob is the same stream without bytes [32,44); restore() accepts it
// and fills the documented defaults (granted = false, weight = 1).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/fleet_manager.h"
#include "core/replication_manager.h"

namespace geored::core {
namespace {

constexpr std::size_t kBudgetFieldsOffset = 32;  // after magic/version/epoch/accesses/degree
constexpr std::size_t kBudgetFieldsSize = sizeof(std::uint32_t) + sizeof(double);

std::vector<place::CandidateInfo> line_candidates(std::size_t count = 8) {
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
  return config;
}

/// Rewrites a v2 blob into the v1 wire form: version field patched, the two
/// budget fields cut out. Cheaper and more honest than hand-crafting the
/// summarizer tail — the remainder of the stream is bit-identical between
/// versions.
std::vector<std::uint8_t> downgrade_to_v1(std::vector<std::uint8_t> bytes) {
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + sizeof(std::uint32_t), &v1, sizeof v1);
  bytes.erase(bytes.begin() + kBudgetFieldsOffset,
              bytes.begin() + kBudgetFieldsOffset + kBudgetFieldsSize);
  return bytes;
}

TEST(CheckpointV2, BudgetStateRoundTrips) {
  ReplicationManager primary(line_candidates(), small_config(2), 7);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) primary.serve(Point{rng.normal(300.0, 80.0)});
  primary.set_degree(3);  // marks the degree as budget-granted
  primary.set_budget_weight(2.5);

  ByteWriter writer;
  primary.save(writer);

  ReplicationManager standby(line_candidates(), small_config(2), 7);
  ByteReader reader(writer.bytes());
  standby.restore(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_TRUE(standby.budget_granted());
  EXPECT_DOUBLE_EQ(standby.budget_weight(), 2.5);
  EXPECT_EQ(standby.degree(), 3u);
  EXPECT_EQ(standby.placement(), primary.placement());
}

TEST(CheckpointV2, V1BlobRestoresWithDocumentedDefaults) {
  ReplicationManager primary(line_candidates(), small_config(2), 7);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) primary.serve(Point{rng.normal(300.0, 80.0)});
  primary.set_degree(3);
  primary.set_budget_weight(2.5);

  ByteWriter writer;
  primary.save(writer);
  const auto v1_bytes = downgrade_to_v1(writer.bytes());

  ReplicationManager standby(line_candidates(), small_config(2), 7);
  ByteReader reader(v1_bytes);
  standby.restore(reader);
  EXPECT_TRUE(reader.exhausted());
  // v1 predates budget state: the defaults, not the primary's values.
  EXPECT_FALSE(standby.budget_granted());
  EXPECT_DOUBLE_EQ(standby.budget_weight(), 1.0);
  // Everything v1 did carry still lands.
  EXPECT_EQ(standby.degree(), 3u);
  EXPECT_EQ(standby.placement(), primary.placement());
  EXPECT_EQ(standby.epoch_accesses(), primary.epoch_accesses());
}

TEST(CheckpointV2, RejectsNonFiniteBudgetWeight) {
  ReplicationManager primary(line_candidates(), small_config(2), 7);
  ByteWriter writer;
  primary.save(writer);
  auto bytes = writer.bytes();
  const double bad = -1.0;
  std::memcpy(bytes.data() + kBudgetFieldsOffset + sizeof(std::uint32_t), &bad,
              sizeof bad);

  ReplicationManager standby(line_candidates(), small_config(2), 7);
  const auto before = standby.placement();
  ByteReader reader(bytes);
  EXPECT_THROW(standby.restore(reader), std::invalid_argument);
  EXPECT_EQ(standby.placement(), before);  // failed restore leaves state alone
}

TEST(FleetCheckpoint, EnvelopeRoundTripsWeightsAndDegrees) {
  FleetConfig config;
  config.groups = 3;
  config.manager = small_config(2);
  config.replica_budget = 7;
  config.min_degree = 1;
  config.max_degree = 4;

  FleetManager primary(line_candidates(), config, 11);
  primary.set_group_weight(1, 5.0);
  for (std::size_t g = 0; g < primary.group_count(); ++g) {
    Rng rng(100 * (g + 1));
    for (int i = 0; i < 200; ++i) {
      primary.group(g).serve(Point{rng.normal(200.0 * static_cast<double>(g), 30.0)});
    }
  }
  primary.run_epochs();

  ByteWriter writer;
  primary.save(writer);

  FleetManager standby(line_candidates(), config, 11);
  ByteReader reader(writer.bytes());
  standby.restore(reader);
  EXPECT_TRUE(reader.exhausted());
  for (std::size_t g = 0; g < primary.group_count(); ++g) {
    EXPECT_EQ(standby.group(g).placement(), primary.group(g).placement()) << "group " << g;
    EXPECT_EQ(standby.group(g).degree(), primary.group(g).degree()) << "group " << g;
    EXPECT_DOUBLE_EQ(standby.group_weight(g), primary.group_weight(g)) << "group " << g;
  }
}

TEST(FleetCheckpoint, EnvelopeLeadsWithMagicVersionAndGroupCount) {
  FleetConfig config;
  config.groups = 2;
  config.manager = small_config(2);
  FleetManager fleet(line_candidates(), config, 11);
  ByteWriter writer;
  fleet.save(writer);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u32(), kFleetCheckpointMagic);
  EXPECT_EQ(reader.read_u32(), kFleetCheckpointVersion);
  EXPECT_EQ(reader.read_u32(), 2u);
}

TEST(FleetCheckpoint, RejectsGroupCountMismatch) {
  FleetConfig config;
  config.groups = 2;
  config.manager = small_config(2);
  FleetManager two_groups(line_candidates(), config, 11);
  ByteWriter writer;
  two_groups.save(writer);

  config.groups = 3;
  FleetManager three_groups(line_candidates(), config, 11);
  const auto before = three_groups.group(0).placement();
  ByteReader reader(writer.bytes());
  EXPECT_THROW(three_groups.restore(reader), std::invalid_argument);
  EXPECT_EQ(three_groups.group(0).placement(), before);
}

TEST(FleetCheckpoint, RejectedRestoreLeavesEveryGroupUnchanged) {
  // A fleet checkpoint whose last group is cut short: the earlier groups'
  // checkpoints are valid, but the fleet must not commit them alone.
  FleetConfig config;
  config.groups = 3;
  config.manager = small_config(2);
  FleetManager primary(line_candidates(), config, 11);
  for (std::size_t g = 0; g < primary.group_count(); ++g) {
    Rng rng(100 * (g + 1));
    for (int i = 0; i < 200; ++i) {
      primary.group(g).serve(Point{rng.normal(200.0 * static_cast<double>(g), 30.0)});
    }
  }
  primary.run_epochs();
  ByteWriter writer;
  primary.save(writer);
  std::vector<std::uint8_t> truncated = writer.bytes();
  truncated.resize(truncated.size() - 4);

  const auto group_bytes = [](const FleetManager& fleet) {
    std::vector<std::vector<std::uint8_t>> bytes;
    for (std::size_t g = 0; g < fleet.group_count(); ++g) {
      ByteWriter group_writer;
      fleet.group(g).save(group_writer);
      bytes.push_back(group_writer.bytes());
    }
    return bytes;
  };
  FleetManager standby(line_candidates(), config, 5);
  const auto before = group_bytes(standby);
  const auto saved = group_bytes(primary);
  for (std::size_t g = 0; g < saved.size(); ++g) {
    ASSERT_NE(before[g], saved[g]) << "group " << g << " already holds its checkpoint";
  }
  ByteReader reader(truncated);
  EXPECT_THROW(standby.restore(reader), WireFormatError);
  EXPECT_EQ(group_bytes(standby), before) << "a rejected fleet restore committed some groups";

  // The intact blob still restores every group.
  ByteReader intact(writer.bytes());
  standby.restore(intact);
  EXPECT_EQ(group_bytes(standby), saved);
}

}  // namespace
}  // namespace geored::core
