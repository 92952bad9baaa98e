#include "store/version.h"

#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>

namespace geored::store {

Payload::Payload(std::string_view bytes) {
  if (bytes.empty()) return;
  if (bytes.size() > std::numeric_limits<std::size_t>::max() - sizeof(Block)) {
    throw std::length_error("payload larger than the address space");
  }
  void* memory = ::operator new(sizeof(Block) + bytes.size());
  block_ = ::new (memory) Block{1, bytes.size()};
  std::memcpy(block_->bytes(), bytes.data(), bytes.size());
}

void Payload::destroy(Block* block) noexcept {
  const std::size_t allocated = sizeof(Block) + block->size;
  block->~Block();
  ::operator delete(static_cast<void*>(block), allocated);
}

}  // namespace geored::store
