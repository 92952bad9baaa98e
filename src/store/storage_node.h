// Per-data-center storage state of the replicated key-value store: a
// last-writer-wins versioned map plus the bookkeeping needed to hand a
// whole object group to a new replica during migration. Stored values share
// their bytes with the write that produced them (store/version.h Payload).
#pragma once

#include <cstdint>
#include <vector>

#include "store/object_table.h"
#include "store/version.h"

namespace geored::store {

/// All objects of one group on one node, for a migration transfer.
struct GroupSnapshot {
  /// Sorted by object id. Built once per migration and moved into its
  /// message.
  std::vector<std::pair<ObjectId, VersionedValue>> objects;  // lint: alloc-ok (escapes)
  /// Transfer size: value bytes plus per-object version and id metadata.
  std::size_t bytes = 0;
};

/// A data center's replicas of object groups. Objects are kept per group,
/// one flat ObjectTable each, so migrating or dropping a group touches that
/// group's objects only.
class StorageNode {
 public:
  /// Applies a write to `id` of `group` if it is newer than what is stored
  /// (LWW merge). Returns true when the write advanced the stored version.
  /// A zero-version write is ignored (returns false): it would read as not
  /// found anyway.
  bool apply_write(std::uint32_t group, ObjectId id, const VersionedValue& value);

  /// Current value (exists() == false when the key is unknown here).
  VersionedValue read(std::uint32_t group, ObjectId id) const;

  /// Snapshot of one group for a migration transfer, with its byte count.
  /// The sort matters: a table's slot order depends on its hash and growth
  /// history, and a snapshot in that order would make transfer event
  /// sequences (and anything serialized from them) depend on it. The byte
  /// count is an order-insensitive sum.
  GroupSnapshot export_group(std::uint32_t group) const;

  /// Drops every object of one group and frees its table (called when this
  /// node stops holding the group's replica).
  void drop_group(std::uint32_t group);

  std::size_t object_count() const;

 private:
  /// Indexed by group id; grows to the highest group written here.
  std::vector<ObjectTable<VersionedValue>> groups_;  // lint: alloc-ok (warm-up sizing)
};

}  // namespace geored::store
