#include "common/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace geored {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  ByteWriter writer;
  writer.write_u32(0xdeadbeefu);
  writer.write_u64(0x0123456789abcdefULL);
  writer.write_f64(-3.25);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.read_f64(), -3.25);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialize, VectorRoundTrip) {
  ByteWriter writer;
  const std::vector<double> values{1.0, -2.5, 1e-300, 1e300};
  writer.write_f64_vector(values);
  writer.write_f64_vector({});
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_f64_vector(), values);
  EXPECT_TRUE(reader.read_f64_vector().empty());
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialize, SizeAccounting) {
  ByteWriter writer;
  EXPECT_EQ(writer.size(), 0u);
  writer.write_u32(1);
  EXPECT_EQ(writer.size(), 4u);
  writer.write_f64(1.0);
  EXPECT_EQ(writer.size(), 12u);
  writer.write_f64_vector({1.0, 2.0});
  EXPECT_EQ(writer.size(), 12u + 4u + 16u);
}

TEST(Serialize, ReadPastEndThrows) {
  ByteWriter writer;
  writer.write_u32(5);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u32(), 5u);
  EXPECT_THROW(reader.read_u32(), std::invalid_argument);
  EXPECT_THROW(ByteReader(writer.bytes()).read_u64(), std::invalid_argument);
}

TEST(Serialize, RemainingTracksOffset) {
  ByteWriter writer;
  writer.write_u64(1);
  writer.write_u32(2);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.remaining(), 12u);
  reader.read_u64();
  EXPECT_EQ(reader.remaining(), 4u);
}

TEST(Serialize, VarintRoundTripsAtEveryLength) {
  // The largest value of each length, and the smallest of the next.
  std::vector<std::uint64_t> values{0};
  for (unsigned bits = 7; bits < 64; bits += 7) {
    values.push_back((std::uint64_t{1} << bits) - 1);
    values.push_back(std::uint64_t{1} << bits);
  }
  values.push_back(std::numeric_limits<std::uint64_t>::max());
  for (const std::uint64_t value : values) {
    ByteWriter writer;
    writer.write_varint(value);
    EXPECT_EQ(writer.size(), varint_size(value)) << value;
    ByteReader reader(writer.bytes());
    EXPECT_EQ(reader.read_varint(), value);
    EXPECT_TRUE(reader.exhausted());
  }
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(std::numeric_limits<std::uint64_t>::max()), kMaxVarintBytes);
}

TEST(Serialize, VarintRejectsTruncatedOverlongAndPaddedEncodings) {
  const auto read = [](std::vector<std::uint8_t> bytes) {
    ByteReader reader(bytes);
    return reader.read_varint();
  };
  EXPECT_THROW(read({}), WireFormatError);
  EXPECT_THROW(read({0x80}), WireFormatError);              // truncated
  EXPECT_THROW(read({0x80, 0x00}), WireFormatError);        // redundant final group
  EXPECT_THROW(read({0xff, 0x80, 0x00}), WireFormatError);  // the same, longer
  std::vector<std::uint8_t> eleven(10, 0x80);
  eleven.push_back(0x01);
  EXPECT_THROW(read(eleven), WireFormatError);  // longer than 10 bytes
  std::vector<std::uint8_t> overflow(9, 0xff);
  overflow.push_back(0x02);
  EXPECT_THROW(read(overflow), WireFormatError);  // bit 64 set
  EXPECT_EQ(read({0x7f}), 127u);
  EXPECT_EQ(read({0x80, 0x01}), 128u);
}

TEST(Serialize, F64SpansCarryNoLengthPrefix) {
  const std::vector<double> values{1.5, -0.0, 1e300};
  ByteWriter writer;
  writer.write_f64s(values);
  writer.write_f64s({});
  EXPECT_EQ(writer.size(), 3 * sizeof(double));
  std::vector<double> back(3);
  ByteReader reader(writer.bytes());
  reader.read_f64s(back);
  EXPECT_EQ(back, values);
  EXPECT_TRUE(std::signbit(back[1]));
  std::vector<double> past(1);
  EXPECT_THROW(reader.read_f64s(past), WireFormatError);
}

}  // namespace
}  // namespace geored
