#include "store/storage_node.h"

#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"

namespace geored::store {
namespace {

TEST(StorageNode, ReadOfUnknownKeyDoesNotExist) {
  StorageNode node;
  EXPECT_FALSE(node.read(0, 42).exists());
  EXPECT_EQ(node.object_count(), 0u);
}

TEST(StorageNode, LastWriterWinsMerge) {
  StorageNode node;
  EXPECT_TRUE(node.apply_write(0, 1, {"old", {1, 0}}));
  EXPECT_TRUE(node.apply_write(0, 1, {"new", {2, 0}}));
  EXPECT_EQ(node.read(0, 1).data, "new");
  // Older and equal versions are rejected.
  EXPECT_FALSE(node.apply_write(0, 1, {"stale", {1, 5}}));
  EXPECT_FALSE(node.apply_write(0, 1, {"same", {2, 0}}));
  EXPECT_EQ(node.read(0, 1).data, "new");
  EXPECT_EQ(node.object_count(), 1u);
}

TEST(StorageNode, ConvergenceUnderAnyApplyOrder) {
  // Applying the same set of writes in different orders yields one state.
  const std::vector<std::pair<ObjectId, VersionedValue>> writes{
      {1, {"a", {1, 0}}}, {1, {"b", {3, 1}}}, {1, {"c", {2, 2}}},
      {2, {"x", {1, 1}}}, {2, {"y", {1, 2}}}};
  StorageNode forward, backward;
  for (const auto& [id, value] : writes) forward.apply_write(0, id, value);
  for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
    backward.apply_write(0, it->first, it->second);
  }
  EXPECT_EQ(forward.read(0, 1).data, backward.read(0, 1).data);
  EXPECT_EQ(forward.read(0, 1).data, "b");
  EXPECT_EQ(forward.read(0, 2).data, backward.read(0, 2).data);
  EXPECT_EQ(forward.read(0, 2).data, "y");  // tie on logical, writer 2 wins
}

TEST(StorageNode, GroupExportDropAndBytes) {
  StorageNode node;
  node.apply_write(0, 2, {"even2!", {1, 0}});
  node.apply_write(0, 0, {"even0", {1, 0}});
  node.apply_write(1, 1, {"odd", {1, 0}});

  const GroupSnapshot group0 = node.export_group(0);
  ASSERT_EQ(group0.objects.size(), 2u);
  EXPECT_EQ(group0.objects[0].first, 0u);  // sorted by object id
  EXPECT_EQ(group0.objects[1].first, 2u);
  const GroupSnapshot group1 = node.export_group(1);
  ASSERT_EQ(group1.objects.size(), 1u);
  EXPECT_EQ(group1.objects[0].second.data, "odd");
  EXPECT_TRUE(node.export_group(7).objects.empty());  // a group never held

  // 5 + 6 bytes of values plus per-object metadata.
  EXPECT_EQ(group0.bytes, 5u + 6u + 2u * (sizeof(Version) + sizeof(ObjectId)));
  EXPECT_EQ(group1.bytes, 3u + sizeof(Version) + sizeof(ObjectId));

  // The snapshot shares the stored bytes; a later write does not alter it.
  node.apply_write(1, 1, {"odd-v2", {2, 0}});
  EXPECT_EQ(group1.objects[0].second.data, "odd");
  EXPECT_EQ(node.read(1, 1).data, "odd-v2");

  node.drop_group(0);
  EXPECT_EQ(node.object_count(), 1u);
  EXPECT_FALSE(node.read(0, 0).exists());
  EXPECT_TRUE(node.read(1, 1).exists());
  node.drop_group(7);  // dropping a group never held is a no-op
  EXPECT_EQ(node.object_count(), 1u);
}

TEST(StorageNode, ZeroVersionWriteIsIgnored) {
  // The zero version reads as "not found", so a write carrying it stores
  // nothing: it neither counts as an object nor travels in a snapshot.
  StorageNode node;
  EXPECT_FALSE(node.apply_write(0, 5, {"ghost", Version::zero()}));
  EXPECT_FALSE(node.read(0, 5).exists());
  EXPECT_EQ(node.object_count(), 0u);
  EXPECT_TRUE(node.export_group(0).objects.empty());
  EXPECT_TRUE(node.apply_write(0, 5, {"real", {1, 0}}));
  EXPECT_FALSE(node.apply_write(0, 5, {"ghost", Version::zero()}));
  EXPECT_EQ(node.read(0, 5).data, "real");
}

/// Seeded random writes (older, equal, newer and zero versions), reads,
/// snapshots and drops over several groups, checked step by step against a
/// std::map model. Drops are rare, so a group's table collects hundreds of
/// keys between them and doubles many times; a few ids use the high 32
/// bits.
TEST(StorageNode, MatchesAMapModelUnderRandomOperations) {
  constexpr std::uint32_t kGroups = 5;
  constexpr std::uint64_t kKeys = 3000;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    StorageNode node;
    std::map<std::pair<std::uint32_t, ObjectId>, VersionedValue> model;
    for (std::size_t step = 0; step < 60000; ++step) {
      const auto group = static_cast<std::uint32_t>(rng.below(kGroups));
      ObjectId id = rng.below(kKeys);
      if (rng.below(16) == 0) id |= rng() << 32;
      const auto key = std::make_pair(group, id);
      const std::uint64_t op = rng.below(10000);
      if (op < 7000) {
        // Small version ranges make older and equal versions common.
        Version version{rng.below(40), static_cast<std::uint32_t>(rng.below(3))};
        if (rng.below(50) == 0) version = Version::zero();
        const VersionedValue value{std::string(rng.below(20), static_cast<char>('a' + step % 26)),
                                   version};
        const auto it = model.find(key);
        bool expected = false;
        if (value.exists() && (it == model.end() || it->second.version < version)) {
          model[key] = value;
          expected = true;
        }
        ASSERT_EQ(node.apply_write(group, id, value), expected) << "seed " << seed << " step " << step;
      } else if (op < 9890) {
        const VersionedValue read = node.read(group, id);
        const auto it = model.find(key);
        ASSERT_EQ(read.exists(), it != model.end()) << "seed " << seed << " step " << step;
        if (it != model.end()) {
          ASSERT_EQ(read.version, it->second.version);
          ASSERT_EQ(read.data.view(), it->second.data.view());
          // A read hands out the stored bytes, not a copy.
          ASSERT_EQ(read.data.view().data(), it->second.data.view().data());
        }
      } else if (op < 9990) {
        const GroupSnapshot snapshot = node.export_group(group);
        std::size_t index = 0;
        std::size_t bytes = 0;
        for (auto it = model.lower_bound({group, 0}); it != model.end() && it->first.first == group;
             ++it, ++index) {
          ASSERT_LT(index, snapshot.objects.size()) << "seed " << seed << " step " << step;
          ASSERT_EQ(snapshot.objects[index].first, it->first.second);
          ASSERT_EQ(snapshot.objects[index].second.version, it->second.version);
          ASSERT_EQ(snapshot.objects[index].second.data.view(), it->second.data.view());
          bytes += it->second.data.size() + sizeof(Version) + sizeof(ObjectId);
        }
        ASSERT_EQ(snapshot.objects.size(), index);
        ASSERT_EQ(snapshot.bytes, bytes);
      } else {
        node.drop_group(group);
        model.erase(model.lower_bound({group, 0}), model.lower_bound({group + 1, 0}));
      }
      ASSERT_EQ(node.object_count(), model.size()) << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace geored::store
