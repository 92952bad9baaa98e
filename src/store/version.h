// Versioning for the replicated key-value store.
//
// Writes carry hybrid-logical-clock versions: a counter advanced past both
// every version the writer has observed (Lamport) and the writer's physical
// time at write start, with the writer id as a deterministic tie-break.
// Replicas keep the maximum version per key (last-writer-wins), which makes
// replica state convergent under any message ordering — the consistency
// model of the Dynamo-family systems the paper targets. The physical
// component gives LWW real-time ordering: without it, a writer with a
// low counter could lose against an *earlier* write by a busier client it
// never observed.
#pragma once

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace geored::store {

using ObjectId = std::uint64_t;

/// The immutable bytes of one written value, shared by reference.
///
/// A put materializes its bytes once; every replica that stores the value,
/// every message carrying it, every read result, read repair and migration
/// snapshot holds a handle to those same bytes. The handle is one pointer
/// to a single heap block: a 16-byte header (a thread-safe reference count
/// and the size) followed by the bytes. Copying a Payload increments the
/// count, never copies a byte, and the block is freed with the last handle.
/// The empty payload holds no block.
class Payload {
 public:
  Payload() = default;
  // Implicit, so values can be written as strings: {"bytes", version}.
  Payload(std::string_view bytes);           // NOLINT(google-explicit-constructor)
  Payload(const std::string& bytes)          // NOLINT(google-explicit-constructor)
      : Payload(std::string_view(bytes)) {}
  Payload(const char* bytes)                 // NOLINT(google-explicit-constructor)
      : Payload(std::string_view(bytes)) {}

  Payload(const Payload& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  Payload& operator=(const Payload& other) noexcept {
    Payload(other).swap(*this);
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    Payload(std::move(other)).swap(*this);
    return *this;
  }
  ~Payload() {
    if (block_ != nullptr && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      destroy(block_);
    }
  }

  void swap(Payload& other) noexcept { std::swap(block_, other.block_); }

  std::string_view view() const {
    return block_ != nullptr ? std::string_view(block_->bytes(), block_->size)
                             : std::string_view();
  }
  // Implicit, so a payload reads like the string it holds.
  operator std::string_view() const { return view(); }  // NOLINT(google-explicit-constructor)
  std::size_t size() const { return block_ != nullptr ? block_->size : 0; }

  /// Compares bytes, not identity (a Payload converts to string_view, so
  /// this also compares two payloads).
  friend bool operator==(const Payload& a, std::string_view b) { return a.view() == b; }
  friend std::ostream& operator<<(std::ostream& os, const Payload& p) {
    return os << p.view();
  }

 private:
  /// The block's header; the bytes follow it in the same allocation.
  struct Block {
    std::atomic<std::size_t> refs;
    std::size_t size;

    const char* bytes() const { return reinterpret_cast<const char*>(this + 1); }
    char* bytes() { return reinterpret_cast<char*>(this + 1); }
  };
  static_assert(sizeof(Block) <= 16 && alignof(Block) <= alignof(std::max_align_t));

  /// Frees a block whose last handle went away.
  static void destroy(Block* block) noexcept;

  Block* block_ = nullptr;
};
static_assert(sizeof(Payload) == sizeof(void*), "a payload handle is one pointer");

struct Version {
  std::uint64_t logical = 0;  ///< Lamport counter
  std::uint32_t writer = 0;   ///< tie-break between concurrent writers

  auto operator<=>(const Version&) const = default;

  /// The null version: smaller than any real write.
  static Version zero() { return {}; }

  std::string to_string() const {
    return std::to_string(logical) + "@" + std::to_string(writer);
  }
};

/// A value with its version. Empty data + zero version = "not found".
struct VersionedValue {
  Payload data;
  Version version;

  bool exists() const { return version != Version::zero(); }
};

/// A writer-side Lamport clock.
class LamportClock {
 public:
  explicit LamportClock(std::uint32_t writer_id) : writer_(writer_id) {}

  /// Advances past `observed` (e.g. a version returned by a read).
  void observe(const Version& observed) {
    if (observed.logical > counter_) counter_ = observed.logical;
  }

  /// Mints a fresh version strictly greater than everything observed.
  Version next() { return {++counter_, writer_}; }

  std::uint32_t writer_id() const { return writer_; }

 private:
  std::uint64_t counter_ = 0;
  std::uint32_t writer_;
};

}  // namespace geored::store
