#include "store/storage_node.h"

#include <algorithm>

namespace geored::store {

bool StorageNode::apply_write(std::uint32_t group, ObjectId id, const VersionedValue& value) {
  // The group table grows once per group this node ever holds.
  if (group >= groups_.size()) groups_.resize(group + 1);
  return groups_[group].merge(id, value);
}

VersionedValue StorageNode::read(std::uint32_t group, ObjectId id) const {
  if (group >= groups_.size()) return {};
  const VersionedValue* value = groups_[group].find(id);
  return value == nullptr ? VersionedValue{} : *value;
}

GroupSnapshot StorageNode::export_group(std::uint32_t group) const {
  GroupSnapshot snapshot;
  if (group >= groups_.size()) return snapshot;
  snapshot.objects.reserve(groups_[group].size());
  groups_[group].for_each([&snapshot](ObjectId id, const VersionedValue& value) {
    snapshot.objects.emplace_back(id, value);
    snapshot.bytes += value.data.size() + sizeof(Version) + sizeof(ObjectId);
  });
  std::sort(snapshot.objects.begin(), snapshot.objects.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snapshot;
}

void StorageNode::drop_group(std::uint32_t group) {
  if (group < groups_.size()) groups_[group] = ObjectTable<VersionedValue>();
}

std::size_t StorageNode::object_count() const {
  std::size_t count = 0;
  for (const auto& table : groups_) count += table.size();
  return count;
}

}  // namespace geored::store
