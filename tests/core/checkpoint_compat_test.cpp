// Checkpoint format compatibility: the manager checkpoint's fixed header,
// its summary frames, the v1, v2 and v3 blobs earlier builds wrote, and the
// fleet envelope that aggregates per-group checkpoints.
//
// Fixed header (little-endian), the same in v2, v3 and v4:
//   [0,4)   magic "GRMC"
//   [4,8)   version
//   [8,16)  epoch_index u64
//   [16,24) epoch_accesses u64
//   [24,32) degree u64
//   [32,36) budget_granted u32        <- added in v2
//   [36,44) budget_weight f64         <- added in v2
//   ...     placement (u32 count, u32 ids), one summary per replica, warm
//           centroids (u32 count, each a u32 length and its doubles)
// A v1 blob is the same stream without bytes [32,44); restore() accepts it
// and fills the documented defaults (granted = false, weight = 1). v1 and v2
// store each replica's summary in the fixed-width layout; v3 and v4 store
// one summary frame (cluster/summary_frame.h) per replica. v1 to v3 also
// stored each micro-cluster's weight, which restore() checks and drops; v4
// stores none.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/summary_frame.h"
#include "common/random.h"
#include "core/fleet_manager.h"
#include "core/replication_manager.h"
#include "reference/microcluster.h"

namespace geored::core {
namespace {

constexpr std::size_t kBudgetFieldsOffset = 32;  // after magic/version/epoch/accesses/degree
constexpr std::size_t kHeaderSize = 44;

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

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    const std::string pair(hex.substr(i, 2));
    bytes.push_back(static_cast<std::uint8_t>(std::stoul(pair, nullptr, 16)));
  }
  return bytes;
}

std::vector<std::uint8_t> checkpoint_of(const ReplicationManager& manager) {
  ByteWriter writer;
  manager.save(writer);
  return writer.bytes();
}

/// The manager the blobs below hold: 8 candidates, k = 2, m = 4, seed 7;
/// 300 accesses around x = 300, one epoch, 200 accesses around x = 500,
/// then a granted degree of 3 and a budget weight of 2.5. (The builds that
/// wrote kCompatV2, kCompatV1 and kCompatV3 gave every third of the first
/// 300 accesses a data-volume weight of 2.5, which their blobs store and no
/// decision reads.)
ReplicationManager compat_primary() {
  ReplicationManager primary(line_candidates(), small_config(2), 7);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) primary.serve(Point{rng.normal(300.0, 80.0)});
  primary.run_epoch();
  for (int i = 0; i < 200; ++i) primary.serve(Point{rng.normal(500.0, 60.0)});
  primary.set_degree(3);
  primary.set_budget_weight(2.5);
  return primary;
}

// compat_primary() as saved by the build before checkpoint v3 (v2), and the
// same blob in the v1 form (version 1, budget fields cut).
constexpr const char* kCompatV2 =
    "434d5247020000000100000000000000c8000000000000000300000000000000"
    "01000000000000000000044002000000040000000200000004000000b9000000"
    "000000000000000000a0704001000000c6b74a96c313f04001000000f47af01a"
    "e1b076416b000000000000000000000000805b40010000005c3b45d6af06e940"
    "010000009ab1b9652d7a77414100000000000000000000000040504001000000"
    "5cebe74af384e14001000000c4126d991eeb7241070000000000000000000000"
    "00001c400100000020a089300581b140010000005030b76ed8f1454103000000"
    "2b0000000000000000000000008051400100000016944d0bb3d9be4001000000"
    "e8799104ce6c364155000000000000000000000000e05d40010000006b5161b2"
    "6602d54001000000a24f9668cee4544108000000000000000000000000002940"
    "01000000922da73411098c4001000000c44ceed94b7df9400200000001000000"
    "6104087da81e764001000000c1e190a465db6b40";
constexpr const char* kCompatV1 =
    "434d5247010000000100000000000000c8000000000000000300000000000000"
    "02000000040000000200000004000000b9000000000000000000000000a07040"
    "01000000c6b74a96c313f04001000000f47af01ae1b076416b00000000000000"
    "0000000000805b40010000005c3b45d6af06e940010000009ab1b9652d7a7741"
    "41000000000000000000000000405040010000005cebe74af384e14001000000"
    "c4126d991eeb724107000000000000000000000000001c400100000020a08930"
    "0581b140010000005030b76ed8f14541030000002b0000000000000000000000"
    "008051400100000016944d0bb3d9be4001000000e8799104ce6c364155000000"
    "000000000000000000e05d40010000006b5161b26602d54001000000a24f9668"
    "cee454410800000000000000000000000000294001000000922da73411098c40"
    "01000000c44ceed94b7df94002000000010000006104087da81e764001000000"
    "c1e190a465db6b40";

// compat_primary() with those weights as saved by the build before
// checkpoint v4 (v3): five of its seven clusters carry an explicit weight.
constexpr const char* kCompatV3 =
    "434d5247030000000100000000000000c8000000000000000300000000000000"
    "0100000000000000000004400200000004000000020000000401f20200000000"
    "00a07040c6b74a96c313f040f47af01ae1b07641d6010000000000805b405c3b"
    "45d6af06e9409ab1b9652d7a774183015cebe74af384e140c4126d991eeb7241"
    "0f20a089300581b1405030b76ed8f14541030156000000000080514016944d0b"
    "b3d9be40e8799104ce6c3641aa010000000000e05d406b5161b26602d540a24f"
    "9668cee45441100000000000002940922da73411098c40c44ceed94b7df94002"
    "000000010000006104087da81e764001000000c1e190a465db6b40";

// compat_primary() as this build makes it, every access of weight 1, as
// saved by the build before checkpoint v4: every weight equals its count,
// so no cluster carries one.
constexpr const char* kCompatUnitV3 =
    "434d5247030000000100000000000000c8000000000000000300000000000000"
    "0100000000000000000004400200000004000000020000000401f302c6b74a96"
    "c313f040f47af01ae1b07641d7015c3b45d6af06e9409ab1b9652d7a77418301"
    "5cebe74af384e140c4126d991eeb72410f20a089300581b1405030b76ed8f145"
    "4103015716944d0bb3d9be40e8799104ce6c3641ab016b5161b26602d540a24f"
    "9668cee4544111922da73411098c40c44ceed94b7df940020000000100000061"
    "04087da81e764001000000c1e190a465db6b40";

/// What the build before checkpoint v3 read back from kCompatV2 and
/// kCompatV1, and the build before v4 from kCompatV3: the same counts and
/// moments, bit for bit.
struct ExpectedCluster {
  topo::NodeId node;
  std::uint64_t count;
  double sum;
  double sum2;
};
constexpr ExpectedCluster kCompatClusters[] = {
    {4, 185, 0x1.013c3964ab7c6p+16, 0x1.6b0e11af07af4p+24},
    {4, 107, 0x1.906afd6453b5cp+15, 0x1.77a2d65b9b19ap+24},
    {4, 65, 0x1.184f34ae7eb5cp+15, 0x1.2eb1e996d12c4p+24},
    {4, 7, 0x1.181053089a02p+12, 0x1.5f1d86eb7305p+21},
    {2, 43, 0x1.ed9b30b4d9416p+12, 0x1.66cce049179e8p+20},
    {2, 85, 0x1.50266b261516bp+14, 0x1.4e4ce68964fa2p+22},
    {2, 8, 0x1.c091134a72d92p+9, 0x1.97d4bd9ee4cc4p+16},
};

/// Restores `hex` into a fresh manager and checks the placement, counters
/// and every summary against what the build that wrote it restored.
ReplicationManager expect_parent_state(std::string_view hex) {
  ReplicationManager standby(line_candidates(), small_config(2), 7);
  const std::vector<std::uint8_t> blob = from_hex(hex);
  ByteReader reader(blob);
  standby.restore(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(standby.placement(), (place::Placement{4, 2}));
  EXPECT_EQ(standby.degree(), 3u);
  EXPECT_EQ(standby.epoch_accesses(), 200u);
  std::size_t next = 0;
  for (const auto node : standby.placement()) {
    const cluster::ClusterView rows = standby.summary_of(node);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (next == std::size(kCompatClusters)) {
        ADD_FAILURE() << "more clusters than the parent restored";
        return standby;
      }
      const ExpectedCluster& expected = kCompatClusters[next++];
      EXPECT_EQ(node, expected.node);
      EXPECT_EQ(rows.count(i), expected.count);
      EXPECT_EQ(rows.sum(i)[0], expected.sum);
      EXPECT_EQ(rows.sum2(i)[0], expected.sum2);
    }
  }
  EXPECT_EQ(next, std::size(kCompatClusters));
  return standby;
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
  const ReplicationManager standby = expect_parent_state(kCompatV1);
  // v1 predates budget state: the defaults, not the primary's values.
  EXPECT_FALSE(standby.budget_granted());
  EXPECT_DOUBLE_EQ(standby.budget_weight(), 1.0);
}

TEST(CheckpointV2, ParentBlobRestoresTheParentsState) {
  ReplicationManager standby = expect_parent_state(kCompatV2);
  EXPECT_TRUE(standby.budget_granted());
  EXPECT_EQ(standby.budget_weight(), 2.5);
  // The same state as a manager built the same way in this build: its v3
  // checkpoint is byte-identical, and the next epoch decides as the
  // parent's did.
  ReplicationManager primary = compat_primary();
  EXPECT_EQ(checkpoint_of(standby), checkpoint_of(primary));
  const EpochReport report = standby.run_epoch();
  EXPECT_EQ(report.adopted_placement, (place::Placement{4, 5, 2}));
  EXPECT_EQ(report.new_estimated_delay_ms, 0x1.4ac76064b6029p+5);
  EXPECT_EQ(report.new_estimated_delay_ms, primary.run_epoch().new_estimated_delay_ms);
}

TEST(CheckpointV3, ParentBlobWithWeightsRestoresTheParentsState) {
  // The v3 reader checks each explicit weight and drops it: the counts and
  // moments are the parent's, bit for bit, and so is everything the next
  // epoch decides.
  ReplicationManager standby = expect_parent_state(kCompatV3);
  EXPECT_TRUE(standby.budget_granted());
  EXPECT_EQ(standby.budget_weight(), 2.5);
  ReplicationManager primary = compat_primary();
  EXPECT_EQ(checkpoint_of(standby), checkpoint_of(primary));
  const EpochReport report = standby.run_epoch();
  EXPECT_EQ(report.adopted_placement, (place::Placement{4, 5, 2}));
  EXPECT_EQ(report.new_estimated_delay_ms, 0x1.4ac76064b6029p+5);
}

TEST(CheckpointV4, UnitWeightStateDiffersFromTheParentsV3OnlyInItsVersion) {
  // Where every weight equals its count, v3 carried no weight, so v4 is v3
  // with a new version field; the v3 blob restores to the same state.
  const std::vector<std::uint8_t> v3 = from_hex(kCompatUnitV3);
  const std::vector<std::uint8_t> v4 = checkpoint_of(compat_primary());
  ASSERT_EQ(v4.size(), v3.size());
  EXPECT_EQ(std::vector<std::uint8_t>(v4.begin(), v4.begin() + 4),
            std::vector<std::uint8_t>(v3.begin(), v3.begin() + 4));
  EXPECT_EQ(std::vector<std::uint8_t>(v4.begin() + 8, v4.end()),
            std::vector<std::uint8_t>(v3.begin() + 8, v3.end()));
  std::uint32_t version = 0;
  std::memcpy(&version, v4.data() + 4, sizeof version);
  EXPECT_EQ(version, 4u);
  EXPECT_EQ(checkpoint_of(expect_parent_state(kCompatUnitV3)), v4);
}

TEST(CheckpointV3, SmallerThanV2OfTheSameState) {
  const std::vector<std::uint8_t> v2 = from_hex(kCompatV2);
  const std::vector<std::uint8_t> v3 = checkpoint_of(compat_primary());
  EXPECT_LT(v3.size(), v2.size());
  // Only the summaries changed layout: the header (but for its version)
  // and the placement are the same bytes.
  const std::size_t placement_end = kHeaderSize + 4 + 2 * 4;
  ASSERT_GT(v3.size(), placement_end);
  EXPECT_EQ(std::vector<std::uint8_t>(v3.begin() + 8, v3.begin() + placement_end),
            std::vector<std::uint8_t>(v2.begin() + 8, v2.begin() + placement_end));
}

TEST(CheckpointV3, SummariesAreOneFramePerReplica) {
  const ReplicationManager primary = compat_primary();
  const std::vector<std::uint8_t> blob = checkpoint_of(primary);
  ByteReader reader(blob);
  EXPECT_EQ(reader.read_u32(), kCheckpointMagic);
  EXPECT_EQ(reader.read_u32(), kCheckpointVersion);
  for (int field = 0; field < 3; ++field) reader.read_u64();
  reader.read_u32();
  reader.read_f64();
  const std::uint32_t replicas = reader.read_u32();
  ASSERT_EQ(replicas, primary.placement().size());
  std::vector<topo::NodeId> placement;
  for (std::uint32_t i = 0; i < replicas; ++i) placement.push_back(reader.read_u32());
  for (const auto node : placement) {
    const cluster::ClusterView rows = primary.summary_of(node);
    const std::vector<cluster::MicroCluster> held = cluster::to_micro_clusters(rows);
    const std::size_t start = blob.size() - reader.remaining();
    const std::vector<cluster::MicroCluster> frame =
        cluster::to_micro_clusters(cluster::read_clusters(reader).view());
    EXPECT_EQ(blob.size() - reader.remaining() - start, cluster::serialized_size(rows));
    ASSERT_EQ(frame.size(), held.size());
    for (std::size_t c = 0; c < held.size(); ++c) {
      EXPECT_EQ(frame[c].count(), held[c].count());
      EXPECT_EQ(frame[c].sum(), held[c].sum());
      EXPECT_EQ(frame[c].sum2(), held[c].sum2());
    }
  }
  const std::uint32_t centroids = reader.read_u32();
  for (std::uint32_t i = 0; i < centroids; ++i) reader.read_f64_vector();
  EXPECT_TRUE(reader.exhausted());
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
