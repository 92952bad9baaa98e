// Seeded mutation fuzzing of the manager and fleet checkpoint decoders: bit
// flips, truncations and insertions of valid v4 blobs, and of a manager v3
// blob whose frames carry explicit weights (the one reader that still
// accepts them). Every mutated blob is
// either rejected with std::invalid_argument (WireFormatError included),
// leaving the target's save() bytes unchanged, or accepted, in which case
// each summary frame it held re-encodes to the bytes it was read from, and a
// fresh target restored from it runs two more epochs without throwing and
// ends on a valid placement. A decode never allocates more than a small
// multiple of the blob's size.
// GEORED_FUZZ_ITERS sets the budget (rounds of mutations per subject).
// Global operator new is replaced with a counting version, which is why this
// suite is its own test binary.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/summary_frame.h"
#include "common/random.h"
#include "common/serialize.h"
#include "core/fleet_manager.h"
#include "core/replication_manager.h"

namespace {
std::atomic<std::size_t> g_requested_bytes{0};
}  // namespace

// Neither operator new nor delete is inlined: GCC's -Wmismatched-new-delete
// otherwise sees the malloc() inside operator new, or the free() inside
// operator delete, at the inlined call sites and calls them a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_requested_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The array and nothrow forms route through the counting one, so a
// sanitizer runtime's own nothrow form never hands out a block that the
// free() below would release.
[[gnu::noinline]] void* operator new[](std::size_t size) { return operator new(size); }
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace geored::core {
namespace {

/// Bytes a decode may request per byte of blob, plus an allowance for the
/// error message of a blob too short to hold a header. A valid blob of the
/// subjects below requests about 9.5 bytes per byte: the decoded clusters
/// and the summarizers they are merged into.
constexpr std::size_t kAllocPerByte = 16;
constexpr std::size_t kAllocSlack = 1024;

using Blob = std::vector<std::uint8_t>;

/// 12 data centers on a 4 x 3 grid in the plane, 100 units apart.
std::vector<place::CandidateInfo> grid_candidates() {
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < 12; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i),
                          Point{100.0 * static_cast<double>(i % 4),
                                100.0 * static_cast<double>(i / 4)},
                          std::numeric_limits<double>::infinity()});
  }
  return candidates;
}

ManagerConfig manager_config() {
  ManagerConfig config;
  config.replication_degree = 3;
  config.summarizer.max_clusters = 4;
  config.summarizer.min_absorb_radius = 10.0;
  return config;
}

/// Accesses around three populations.
void feed(ReplicationManager& manager, Rng& rng, int accesses) {
  for (int i = 0; i < accesses; ++i) {
    const double x = 50.0 + 100.0 * static_cast<double>(i % 3);
    manager.serve(Point{rng.normal(x, 25.0), rng.normal(120.0, 25.0)});
  }
}

Blob manager_blob() {
  ReplicationManager manager(grid_candidates(), manager_config(), 7);
  Rng rng(3);
  for (int epoch = 0; epoch < 2; ++epoch) {
    feed(manager, rng, 400);
    manager.run_epoch();
  }
  feed(manager, rng, 150);
  ByteWriter writer;
  manager.save(writer);
  return writer.bytes();
}

/// manager_blob()'s state as a checkpoint v3 held it: version 3, and every
/// other cluster of each frame with an explicit weight of 1.5 times its
/// count after a w = 0 header.
Blob manager_v3_blob() {
  const Blob v4 = manager_blob();
  ByteReader reader(v4);
  ByteWriter writer;
  writer.write_u32(reader.read_u32());  // magic
  reader.read_u32();
  writer.write_u32(3);
  for (int field = 0; field < 3; ++field) writer.write_u64(reader.read_u64());
  writer.write_u32(reader.read_u32());
  writer.write_f64(reader.read_f64());
  const std::uint32_t replicas = reader.read_u32();
  writer.write_u32(replicas);
  for (std::uint32_t i = 0; i < replicas; ++i) writer.write_u32(reader.read_u32());
  for (std::uint32_t i = 0; i < replicas; ++i) {
    const cluster::ClusterBuffer clusters = cluster::read_clusters(reader);
    const cluster::ClusterView rows = clusters.view();
    writer.write_varint(rows.size());
    if (rows.empty()) continue;
    writer.write_varint(rows.dim());
    for (std::size_t c = 0; c < rows.size(); ++c) {
      const bool weighted = c % 2 == 0;
      writer.write_varint((rows.count(c) << 1) | (weighted ? 0u : 1u));
      if (weighted) writer.write_f64(1.5 * static_cast<double>(rows.count(c)));
      writer.write_f64s(rows.sum(c));
      writer.write_f64s(rows.sum2(c));
    }
  }
  Blob v3 = writer.bytes();
  // The warm centroids, as they are.
  v3.insert(v3.end(), v4.end() - static_cast<std::ptrdiff_t>(reader.remaining()), v4.end());
  return v3;
}

FleetConfig fleet_config() {
  FleetConfig config;
  config.groups = 3;
  config.manager = manager_config();
  config.replica_budget = 8;
  config.min_degree = 1;
  config.max_degree = 4;
  return config;
}

Blob fleet_blob() {
  FleetManager fleet(grid_candidates(), fleet_config(), 11);
  Rng rng(5);
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (std::size_t g = 0; g < fleet.group_count(); ++g) feed(fleet.group(g), rng, 150);
    fleet.run_epochs();
  }
  ByteWriter writer;
  fleet.save(writer);
  return writer.bytes();
}

/// One mutation of `blob`: flips of one to three bits, a truncation, or an
/// insertion of one to eight random bytes.
Blob mutate(const Blob& blob, Rng& rng) {
  Blob out = blob;
  switch (rng.below(3)) {
    case 0: {
      const std::uint64_t flips = 1 + rng.below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::size_t byte = rng.below(out.size());
        out[byte] = static_cast<std::uint8_t>(out[byte] ^ (1u << rng.below(8)));
      }
      break;
    }
    case 1:
      out.resize(rng.below(out.size()));
      break;
    default: {
      const auto at = static_cast<std::ptrdiff_t>(rng.below(out.size() + 1));
      Blob inserted(1 + rng.below(8));
      for (auto& b : inserted) b = static_cast<std::uint8_t>(rng.below(256));
      out.insert(out.begin() + at, inserted.begin(), inserted.end());
      break;
    }
  }
  return out;
}

/// Walks one v4 manager checkpoint that restore() accepted, checking that
/// every summary frame re-encodes to the bytes it was read from.
void expect_manager_frames_reencode(ByteReader& reader, const Blob& blob) {
  reader.read_u32();  // magic
  ASSERT_EQ(reader.read_u32(), kCheckpointVersion);
  for (int field = 0; field < 3; ++field) reader.read_u64();
  reader.read_u32();
  reader.read_f64();
  const std::uint32_t replicas = reader.read_u32();
  for (std::uint32_t i = 0; i < replicas; ++i) reader.read_u32();
  for (std::uint32_t i = 0; i < replicas; ++i) {
    const std::size_t start = blob.size() - reader.remaining();
    const auto clusters = cluster::read_clusters(reader);
    const std::size_t end = blob.size() - reader.remaining();
    ByteWriter again;
    cluster::write_clusters(again, clusters.view());
    EXPECT_EQ(again.bytes(), Blob(blob.begin() + static_cast<std::ptrdiff_t>(start),
                                  blob.begin() + static_cast<std::ptrdiff_t>(end)))
        << "an accepted summary frame re-encodes differently";
  }
  const std::uint32_t centroids = reader.read_u32();
  for (std::uint32_t i = 0; i < centroids; ++i) reader.read_f64_vector();
}

/// Walks one v3 manager checkpoint that restore() accepted: every summary
/// frame decodes through the v3 reader, and its rows, their weights
/// dropped, make a frame that read_clusters accepts and re-encodes to
/// itself.
void expect_v3_frames_decode(ByteReader& reader) {
  reader.read_u32();  // magic
  ASSERT_EQ(reader.read_u32(), 3u);
  for (int field = 0; field < 3; ++field) reader.read_u64();
  reader.read_u32();
  reader.read_f64();
  const std::uint32_t replicas = reader.read_u32();
  for (std::uint32_t i = 0; i < replicas; ++i) reader.read_u32();
  for (std::uint32_t i = 0; i < replicas; ++i) {
    const auto clusters = cluster::read_v3_clusters(reader);
    ByteWriter rows;
    cluster::write_clusters(rows, clusters.view());
    ByteReader again(rows.bytes());
    ByteWriter twice;
    cluster::write_clusters(twice, cluster::read_clusters(again).view());
    EXPECT_EQ(twice.bytes(), rows.bytes()) << "a v3 frame's rows re-encode differently";
  }
}

/// The placement a manager ends an epoch on must be servable: as many
/// distinct candidates as its degree, which its configured bounds hold (the
/// grid has more candidates than any degree they allow).
void expect_valid_placement(const ReplicationManager& manager, const EpochReport& report,
                            std::size_t min_degree, std::size_t max_degree,
                            std::size_t candidates) {
  const place::Placement& placement = manager.placement();
  EXPECT_EQ(placement, report.adopted_placement);
  EXPECT_GE(report.degree, min_degree);
  EXPECT_LE(report.degree, max_degree);
  EXPECT_EQ(placement.size(), report.degree);
  std::vector<topo::NodeId> sorted = placement;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      << "the placement repeats a data center";
  for (const auto node : placement) EXPECT_LT(node, candidates);
}

/// Restores `blob` into a fresh manager, then runs two more epochs on fresh
/// accesses.
void continue_manager(const Blob& blob) {
  ReplicationManager manager(grid_candidates(), manager_config(), 29);
  ByteReader reader(blob);
  manager.restore(reader);
  Rng rng(47);
  for (int epoch = 0; epoch < 2; ++epoch) {
    feed(manager, rng, 120);
    expect_valid_placement(manager, manager.run_epoch(), manager_config().min_degree,
                           manager_config().max_degree, grid_candidates().size());
  }
}

/// Restores `blob` into a fresh fleet, then runs two more fleet epochs on
/// fresh accesses: every group ends on a valid placement, and the budget's
/// grants stay within it.
void continue_fleet(const Blob& blob) {
  const FleetConfig config = fleet_config();
  FleetManager fleet(grid_candidates(), config, 31);
  ByteReader reader(blob);
  fleet.restore(reader);
  Rng rng(53);
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (std::size_t g = 0; g < fleet.group_count(); ++g) feed(fleet.group(g), rng, 60);
    const FleetEpochReport report = fleet.run_epochs();
    for (std::size_t g = 0; g < fleet.group_count(); ++g) {
      expect_valid_placement(fleet.group(g), report.group_reports[g], config.min_degree,
                             config.max_degree, grid_candidates().size());
    }
    ASSERT_TRUE(report.allocation.has_value());
    std::size_t granted = 0;
    for (const std::size_t degree : report.allocation->degree_per_group) granted += degree;
    EXPECT_LE(granted, config.replica_budget);
  }
}

/// A checkpoint decoder under test: restores into a fixed target and
/// reports its save() bytes.
struct Subject {
  std::function<void(ByteReader&)> restore;
  std::function<Blob()> save;
  std::function<void(ByteReader&, const Blob&)> walk_frames;
  /// Restores an accepted blob into a fresh target and runs it onward.
  std::function<void(const Blob&)> continue_epochs;
};

struct Outcome {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Restores `blob` into `subject` and checks the contract above.
void check_one(Subject& subject, const Blob& blob, Outcome& outcome) {
  const Blob before = subject.save();
  const std::size_t requested_before = g_requested_bytes.load();
  bool accepted = false;
  try {
    ByteReader reader(blob);
    subject.restore(reader);
    accepted = true;
  } catch (const std::invalid_argument&) {
    // WireFormatError derives from it; both are the typed rejections.
  } catch (const std::exception& error) {
    ADD_FAILURE() << "untyped rejection " << typeid(error).name() << ": " << error.what();
    return;
  }
  const std::size_t requested = g_requested_bytes.load() - requested_before;
  EXPECT_LE(requested, kAllocPerByte * blob.size() + kAllocSlack)
      << "a " << blob.size() << "-byte checkpoint requested " << requested << " bytes";
  if (!accepted) {
    ++outcome.rejected;
    EXPECT_EQ(subject.save(), before) << "a rejected restore changed the target";
    return;
  }
  ++outcome.accepted;
  ByteReader reader(blob);
  subject.walk_frames(reader, blob);
  try {
    subject.continue_epochs(blob);
  } catch (const std::exception& error) {
    ADD_FAILURE() << "an accepted checkpoint failed a later epoch: " << typeid(error).name()
                  << ": " << error.what();
  }
}

std::uint64_t fuzz_rounds() {
  std::uint64_t rounds = 5;
  if (const char* env = std::getenv("GEORED_FUZZ_ITERS")) rounds = std::strtoull(env, nullptr, 10);
  return rounds;
}

/// `rounds` rounds of 100 mutations of `valid`, seeded by `seed`.
Outcome fuzz(Subject& subject, const Blob& valid, std::uint64_t seed) {
  Outcome outcome;
  Rng rng(seed);
  const std::uint64_t rounds = fuzz_rounds();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (int i = 0; i < 100; ++i) {
      check_one(subject, mutate(valid, rng), outcome);
      if (::testing::Test::HasFailure()) return outcome;
    }
  }
  return outcome;
}

TEST(CheckpointMutation, ValidBlobsRunOnward) {
  continue_manager(manager_blob());
  continue_fleet(fleet_blob());
}

TEST(CheckpointMutation, ValidBlobsRestoreWithinTheAllocationBound) {
  ReplicationManager manager(grid_candidates(), manager_config(), 29);
  FleetManager fleet(grid_candidates(), fleet_config(), 31);
  for (const bool is_fleet : {false, true}) {
    const Blob blob = is_fleet ? fleet_blob() : manager_blob();
    const std::size_t before = g_requested_bytes.load();
    ByteReader reader(blob);
    if (is_fleet) {
      fleet.restore(reader);
    } else {
      manager.restore(reader);
    }
    EXPECT_TRUE(reader.exhausted());
    const std::size_t requested = g_requested_bytes.load() - before;
    EXPECT_LE(requested, kAllocPerByte * blob.size() + kAllocSlack)
        << (is_fleet ? "fleet" : "manager") << " blob of " << blob.size() << " bytes";
  }
  ByteWriter saved;
  manager.save(saved);
  EXPECT_EQ(saved.bytes(), manager_blob());
  ByteWriter fleet_saved;
  fleet.save(fleet_saved);
  EXPECT_EQ(fleet_saved.bytes(), fleet_blob());
}

TEST(CheckpointMutation, ManagerBlobsRestoreOrRejectTyped) {
  ReplicationManager target(grid_candidates(), manager_config(), 29);
  Rng rng(41);
  feed(target, rng, 120);  // a state a rejected restore must leave alone
  Subject subject{
      [&](ByteReader& reader) { target.restore(reader); },
      [&] {
        ByteWriter writer;
        target.save(writer);
        return writer.bytes();
      },
      [](ByteReader& reader, const Blob& blob) {
        expect_manager_frames_reencode(reader, blob);
      },
      continue_manager};
  const Outcome outcome = fuzz(subject, manager_blob(), 101);
  EXPECT_GT(outcome.rejected, 0u);
}

TEST(CheckpointMutation, ManagerV3BlobsRestoreOrRejectTyped) {
  // Unmutated, the v3 blob restores to the state it was made from: its
  // weights are checked and dropped.
  const Blob v3 = manager_v3_blob();
  {
    ReplicationManager restored(grid_candidates(), manager_config(), 29);
    ByteReader reader(v3);
    restored.restore(reader);
    EXPECT_TRUE(reader.exhausted());
    ByteWriter saved;
    restored.save(saved);
    EXPECT_EQ(saved.bytes(), manager_blob());
  }
  ReplicationManager target(grid_candidates(), manager_config(), 29);
  Rng rng(47);
  feed(target, rng, 120);  // a state a rejected restore must leave alone
  Subject subject{
      [&](ByteReader& reader) { target.restore(reader); },
      [&] {
        ByteWriter writer;
        target.save(writer);
        return writer.bytes();
      },
      [](ByteReader& reader, const Blob&) { expect_v3_frames_decode(reader); },
      continue_manager};
  const Outcome outcome = fuzz(subject, v3, 303);
  EXPECT_GT(outcome.rejected, 0u);
  EXPECT_GT(outcome.accepted, 0u);
}

TEST(CheckpointMutation, FleetBlobsRestoreOrRejectTyped) {
  FleetManager target(grid_candidates(), fleet_config(), 31);
  Rng rng(43);
  for (std::size_t g = 0; g < target.group_count(); ++g) feed(target.group(g), rng, 60);
  Subject subject{
      [&](ByteReader& reader) { target.restore(reader); },
      [&] {
        ByteWriter writer;
        target.save(writer);
        return writer.bytes();
      },
      [&](ByteReader& reader, const Blob& blob) {
        reader.read_u32();  // magic
        reader.read_u32();  // version
        const std::uint32_t groups = reader.read_u32();
        for (std::uint32_t g = 0; g < groups; ++g) expect_manager_frames_reencode(reader, blob);
      },
      continue_fleet};
  const Outcome outcome = fuzz(subject, fleet_blob(), 202);
  EXPECT_GT(outcome.rejected, 0u);
}

}  // namespace
}  // namespace geored::core
