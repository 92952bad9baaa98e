// Flat per-object version table: the storage behind StorageNode's groups and
// the replicated store's commit oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "store/version.h"

namespace geored::store {

/// The version an entry carries.
inline const Version& version_of(const Version& version) { return version; }
inline const Version& version_of(const VersionedValue& value) { return value.version; }

/// A map from ObjectId to the newest `Entry` (a Version or a VersionedValue)
/// written under it: merge() is a last-writer-wins insert, and there is no
/// erase (a group is dropped as a whole table).
///
/// One array of {id, entry} slots, 32 bytes for a VersionedValue and 24 for
/// a Version, probed linearly from a multiplicative hash of the id. The
/// capacity is a power of two and doubles when an insert would push the load
/// past 3/4, so an insert costs amortized O(1) however large a table grows.
/// A slot whose entry has the zero version is vacant. The zero version is
/// "not found" everywhere in the store, so merge() ignores a zero-version
/// write: it returns false and stores nothing.
template <typename Entry>
class ObjectTable {
 public:
  std::size_t size() const { return size_; }

  /// The entry stored under `id`, or nullptr.
  const Entry* find(ObjectId id) const {
    if (size_ == 0) return nullptr;
    const Slot& slot = slots_[index_of(id)];
    return vacant(slot) ? nullptr : &slot.entry;
  }

  /// Stores `entry` under `id` unless the table already holds a version at
  /// least as new. Returns true when `entry` was stored.
  bool merge(ObjectId id, const Entry& entry) {
    if (version_of(entry) == Version::zero()) return false;
    if (capacity_ != 0) {
      Slot& slot = slots_[index_of(id)];
      if (!vacant(slot)) {
        if (version_of(entry) <= version_of(slot.entry)) return false;
        slot.entry = entry;
        return true;
      }
      if (4 * (size_ + 1) <= 3 * capacity_) {
        occupy(slot, id, entry);
        return true;
      }
    }
    grow();
    occupy(slots_[index_of(id)], id, entry);
    return true;
  }

  /// Calls fn(id, entry) for every stored entry, in slot order: an order
  /// that depends on the table's history, so sort what escapes.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (!vacant(slots_[i])) fn(slots_[i].id, slots_[i].entry);
    }
  }

 private:
  struct Slot {
    ObjectId id = 0;
    Entry entry{};
  };
  static constexpr std::size_t kMinCapacity = 8;

  static bool vacant(const Slot& slot) { return version_of(slot.entry) == Version::zero(); }

  /// The index of the slot holding `id`, or of the vacant slot that ends its
  /// probe run. The load stays at most 3/4, so every run ends.
  std::size_t index_of(ObjectId id) const {
    const std::size_t mask = capacity_ - 1;
    // Fibonacci hashing on the top bits. The fold first lets the high half
    // of the id reach them too.
    std::size_t i = static_cast<std::size_t>(((id ^ (id >> 32)) * 0x9e3779b97f4a7c15ULL) >>
                                             shift_);
    while (!vacant(slots_[i]) && slots_[i].id != id) i = (i + 1) & mask;
    return i;
  }

  void occupy(Slot& slot, ObjectId id, const Entry& entry) {
    slot.id = id;
    slot.entry = entry;
    ++size_;
  }

  void grow() {
    const std::size_t old_capacity = capacity_;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    capacity_ = old_capacity == 0 ? kMinCapacity : 2 * old_capacity;
    shift_ = 64;
    for (std::size_t c = capacity_; c > 1; c >>= 1) --shift_;
    slots_ = std::make_unique<Slot[]>(capacity_);
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (vacant(old[i])) continue;
      Slot& slot = slots_[index_of(old[i].id)];
      slot.id = old[i].id;
      slot.entry = std::move(old[i].entry);
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  /// 64 - log2(capacity_): the hash's top bits index the slots.
  unsigned shift_ = 64;
};

}  // namespace geored::store
