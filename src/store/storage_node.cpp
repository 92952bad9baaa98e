#include "store/storage_node.h"

#include <algorithm>

namespace geored::store {

bool StorageNode::apply_write(std::uint32_t group, ObjectId id, const VersionedValue& value) {
  // The group table grows once per group this node ever holds.
  if (group >= groups_.size()) groups_.resize(group + 1);
  auto [it, inserted] = groups_[group].try_emplace(id, value);
  if (inserted) return true;
  if (value.version > it->second.version) {
    it->second = value;
    return true;
  }
  return false;
}

VersionedValue StorageNode::read(std::uint32_t group, ObjectId id) const {
  if (group >= groups_.size()) return {};
  const auto it = groups_[group].find(id);
  return it == groups_[group].end() ? VersionedValue{} : it->second;
}

GroupSnapshot StorageNode::export_group(std::uint32_t group) const {
  GroupSnapshot snapshot;
  if (group >= groups_.size()) return snapshot;
  snapshot.objects.reserve(groups_[group].size());
  for (const auto& [id, value] : groups_[group]) {  // lint: unordered-iter-ok (sorted below)
    snapshot.objects.emplace_back(id, value);
    snapshot.bytes += value.data.size() + sizeof(Version) + sizeof(ObjectId);
  }
  std::sort(snapshot.objects.begin(), snapshot.objects.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snapshot;
}

void StorageNode::drop_group(std::uint32_t group) {
  if (group < groups_.size()) groups_[group] = GroupData{};
}

std::size_t StorageNode::object_count() const {
  std::size_t count = 0;
  for (const auto& data : groups_) count += data.size();
  return count;
}

}  // namespace geored::store
