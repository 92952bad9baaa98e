#include "store/storage_node.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace geored::store
