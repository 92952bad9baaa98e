// Minimal binary serialization used to ship clustering summaries between
// simulated data centers and to account for network bandwidth (Table II).
//
// Fixed-width fields are little-endian; counts that are usually small travel
// as LEB128 varints (seven bits per byte, least significant group first, the
// high bit set on every byte but the last). It is not a general-purpose wire
// format: it carries the summary frames (cluster/summary_frame.h) and the
// checkpoints.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/ensure.h"

namespace geored {

/// Raised when decoded bytes cannot be a well-formed geored wire message:
/// a read past the end of the buffer, a length field larger than the bytes
/// that follow it, or field values no writer could have produced. Derives
/// from std::invalid_argument so existing recovery paths keep working, while
/// transport code (src/net/) can distinguish corrupt frames from API misuse.
class WireFormatError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Most entries a stream loader reserves from a count read from its input
/// (Topology::load, Topology::from_rtt_matrix_stream, wl::Trace::load).
/// Storage beyond it grows as entries are parsed, so a hostile count fails
/// on its first missing entry instead of sizing an allocation for entries
/// that are not there.
inline constexpr std::size_t kMaxHeaderReserve = std::size_t{1} << 16;

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Bytes ByteWriter::write_varint(value) appends: one per started 7-bit
/// group, 1 to kMaxVarintBytes.
constexpr std::size_t varint_size(std::uint64_t value) noexcept {
  return (static_cast<std::size_t>(std::bit_width(value | 1)) + 6) / 7;
}

/// Append-only binary writer.
class ByteWriter {
 public:
  void write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }
  void write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }
  void write_f64(double v) { write_raw(&v, sizeof v); }
  /// The values back to back, with no length prefix.
  void write_f64s(std::span<const double> values) {
    write_raw(values.data(), values.size_bytes());
  }

  void write_varint(std::uint64_t v) {
    std::uint8_t encoded[kMaxVarintBytes];
    std::size_t length = 0;
    for (; v >= 0x80; v >>= 7) encoded[length++] = static_cast<std::uint8_t>(v | 0x80);
    encoded[length++] = static_cast<std::uint8_t>(v);
    write_raw(encoded, length);
  }

  void write_f64_vector(const std::vector<double>& values) {
    write_u32(static_cast<std::uint32_t>(values.size()));
    for (double v : values) write_f64(v);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }

 private:
  void write_raw(const void* data, std::size_t len) {
    if (len == 0) return;
    const std::size_t offset = bytes_.size();
    bytes_.resize(offset + len);
    std::memcpy(bytes_.data() + offset, data, len);
  }

  std::vector<std::uint8_t> bytes_;
};

/// Sequential binary reader over a byte vector produced by ByteWriter.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint32_t read_u32() { return read_raw<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_raw<std::uint64_t>(); }
  double read_f64() { return read_raw<double>(); }
  /// Fills `values` from the next values.size() doubles.
  void read_f64s(std::span<double> values) {
    if (values.size_bytes() > remaining()) {
      throw WireFormatError("ByteReader: read past end of buffer (truncated frame)");
    }
    if (values.empty()) return;
    std::memcpy(values.data(), bytes_.data() + offset_, values.size_bytes());
    offset_ += values.size_bytes();
  }

  /// A canonical LEB128 varint: at most kMaxVarintBytes bytes, no bit past
  /// the 64th, and no redundant final zero group, so every value has exactly
  /// one accepted encoding. Anything else throws WireFormatError.
  std::uint64_t read_varint() {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
      if (offset_ == bytes_.size()) {
        throw WireFormatError("ByteReader: read past end of buffer (truncated varint)");
      }
      const std::uint8_t byte = bytes_[offset_++];
      const std::uint64_t group = byte & 0x7fu;
      if (i == kMaxVarintBytes - 1 && group > 1) {
        throw WireFormatError("ByteReader: varint overflows 64 bits");
      }
      value |= group << (7 * i);
      if ((byte & 0x80u) == 0) {
        if (group == 0 && i > 0) {
          throw WireFormatError("ByteReader: non-canonical varint (redundant final group)");
        }
        return value;
      }
    }
    throw WireFormatError("ByteReader: varint longer than " +
                          std::to_string(kMaxVarintBytes) + " bytes");
  }

  std::vector<double> read_f64_vector() {
    const std::uint32_t n = read_u32();
    // Validate the count against the bytes actually present before sizing
    // the vector: a corrupt length prefix must throw, not allocate gigabytes.
    if (static_cast<std::size_t>(n) * sizeof(double) > remaining()) {
      throw WireFormatError("ByteReader: f64 vector length " + std::to_string(n) +
                            " exceeds the " + std::to_string(remaining()) +
                            " bytes remaining (truncated or corrupt frame)");
    }
    std::vector<double> values(n);
    for (auto& v : values) v = read_f64();
    return values;
  }

  bool exhausted() const { return offset_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - offset_; }

 private:
  template <typename T>
  T read_raw() {
    if (offset_ + sizeof(T) > bytes_.size()) {
      throw WireFormatError("ByteReader: read past end of buffer (truncated frame)");
    }
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t offset_ = 0;
};

}  // namespace geored
