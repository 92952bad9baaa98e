// Negative and fuzz coverage for the hardened summary frame decode: a real
// transport (src/net/) can deliver truncated, oversized-count, or bit-flipped
// frames, and read_clusters must answer every such frame with a typed
// WireFormatError — never undefined behavior, a gigabyte allocation, or
// silently corrupt clusters — and every frame it accepts must re-encode to
// the bytes it read. The randomized sweeps honor GEORED_FUZZ_ITERS like the
// other fuzz budgets.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "cluster/summarizer.h"
#include "common/random.h"
#include "common/serialize.h"

namespace geored::cluster {
namespace {

/// A well-formed frame to mutate: a few clusters of a 2-D population with
/// explicit weights. Its first cluster (at most 50 accesses) has a one-byte
/// header, so the offsets below are fixed.
std::vector<std::uint8_t> good_frame(std::uint64_t seed) {
  Rng rng(seed);
  SummarizerConfig config;
  config.max_clusters = 4;
  MicroClusterSummarizer summarizer(config);
  for (int i = 0; i < 50; ++i) {
    summarizer.add(Point{rng.normal(0.0, 20.0), rng.normal(100.0, 20.0)}, rng.uniform(0.0, 5.0));
  }
  ByteWriter writer;
  write_clusters(writer, summarizer.clusters());
  return writer.bytes();
}

// good_frame's layout: n, d = 2, then the first cluster's header, weight,
// sum[2] and sum2[2].
constexpr std::size_t kDimOffset = 1;
constexpr std::size_t kHeaderOffset = 2;
constexpr std::size_t kWeightOffset = 3;
constexpr std::size_t kSumOffset = kWeightOffset + 8;
constexpr std::size_t kSum2Offset = kSumOffset + 2 * 8;

std::vector<MicroCluster> decode(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes);
  return read_clusters(reader);
}

/// Decodes `bytes` as a frame. When it is accepted, the clusters must
/// re-encode to exactly the bytes read, and serialized_size must count them.
void decode_or_throw_typed(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes);
  std::vector<MicroCluster> clusters;
  try {
    clusters = read_clusters(reader);
  } catch (const WireFormatError&) {
    return;  // The one acceptable failure mode.
  }
  const std::size_t consumed = bytes.size() - reader.remaining();
  const std::vector<std::uint8_t> read(bytes.begin(),
                                       bytes.begin() + static_cast<std::ptrdiff_t>(consumed));
  ByteWriter again;
  write_clusters(again, clusters);
  EXPECT_EQ(again.bytes(), read) << "an accepted frame re-encodes differently";
  EXPECT_EQ(serialized_size(clusters), consumed);
}

std::vector<std::uint8_t> concat(const std::vector<std::uint8_t>& head,
                                 const std::vector<std::uint8_t>& tail) {
  std::vector<std::uint8_t> bytes = head;
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  return bytes;
}

std::vector<std::uint8_t> varint(std::uint64_t value) {
  ByteWriter writer;
  writer.write_varint(value);
  return writer.bytes();
}

/// A one-cluster frame at d = 1 with the given header, optional explicit
/// weight, and moments.
std::vector<std::uint8_t> one_cluster_frame(std::uint64_t header, const double* weight,
                                            double sum, double sum2) {
  ByteWriter writer;
  writer.write_varint(1);
  writer.write_varint(1);
  writer.write_varint(header);
  if (weight != nullptr) writer.write_f64(*weight);
  writer.write_f64(sum);
  writer.write_f64(sum2);
  return writer.bytes();
}

TEST(WireNegative, GoodFrameDecodes) {
  const auto frame = good_frame(1);
  EXPECT_FALSE(decode(frame).empty());
  ASSERT_EQ(frame[kDimOffset], 2u);
  ASSERT_EQ(frame[kHeaderOffset] & 1u, 0u) << "the first cluster's weight must be explicit";
  // The hand-built frames below are well-formed until a field is broken.
  const double weight = 2.5;
  EXPECT_EQ(decode(one_cluster_frame((5u << 1) | 1u, nullptr, 10.0, 30.0)).size(), 1u);
  EXPECT_EQ(decode(one_cluster_frame(5u << 1, &weight, 10.0, 30.0)).size(), 1u);
  EXPECT_TRUE(decode(varint(0)).empty());
}

TEST(WireNegative, EveryTruncationThrowsTyped) {
  const auto frame = good_frame(2);
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(decode(cut), WireFormatError) << "kept " << keep << " bytes";
  }
}

TEST(WireNegative, OversizedClusterCountThrowsBeforeAllocating) {
  // Claim ~4 billion clusters in place of the leading count. The decoder
  // must reject the count against the bytes present, not reserve.
  const auto frame = good_frame(3);
  const std::vector<std::uint8_t> rest(frame.begin() + kDimOffset, frame.end());
  EXPECT_THROW(decode(concat(varint(0xfffffffe), rest)), WireFormatError);
}

TEST(WireNegative, OversizedVectorLengthThrowsBeforeAllocating) {
  // The dimension sizes both moment vectors of every cluster: claim 500
  // million doubles.
  const auto frame = good_frame(4);
  const std::vector<std::uint8_t> rest(frame.begin() + kHeaderOffset, frame.end());
  EXPECT_THROW(decode(concat(concat({frame[0]}, varint(500'000'000)), rest)), WireFormatError);
}

TEST(WireNegative, NegativeWeightThrows) {
  auto frame = good_frame(5);
  const double negative = -1.0;
  std::memcpy(frame.data() + kWeightOffset, &negative, sizeof negative);
  EXPECT_THROW(decode(frame), WireFormatError);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(frame.data() + kWeightOffset, &nan, sizeof nan);
  EXPECT_THROW(decode(frame), WireFormatError);
}

TEST(WireNegative, NonFiniteMomentThrows) {
  auto frame = good_frame(6);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(frame.data() + kSumOffset, &nan, sizeof nan);
  EXPECT_THROW(decode(frame), WireFormatError);
  frame = good_frame(6);
  const double inf = std::numeric_limits<double>::infinity();
  std::memcpy(frame.data() + kSum2Offset, &inf, sizeof inf);
  EXPECT_THROW(decode(frame), WireFormatError);
}

TEST(WireNegative, NegativeSecondMomentThrows) {
  auto frame = good_frame(8);
  const double negative = -4.0;
  std::memcpy(frame.data() + kSum2Offset, &negative, sizeof negative);
  EXPECT_THROW(decode(frame), WireFormatError);
}

TEST(WireNegative, WireFormatErrorIsInvalidArgument) {
  // Existing recovery paths catch std::invalid_argument; the typed error
  // must stay inside that hierarchy.
  const auto frame = good_frame(7);
  const std::vector<std::uint8_t> cut(frame.begin(), frame.begin() + 3);
  EXPECT_THROW(decode(cut), std::invalid_argument);
}

TEST(WireNegative, ElevenByteVarintThrows) {
  // Ten continuation bytes, then a final group: one byte past the longest
  // encoding of a 64-bit value.
  std::vector<std::uint8_t> bytes(10, 0x80);
  bytes.push_back(0x00);
  EXPECT_THROW(decode(bytes), WireFormatError);
  bytes.assign(10, 0x81);
  bytes.push_back(0x01);
  EXPECT_THROW(decode(bytes), WireFormatError);
}

TEST(WireNegative, VarintOverflowing64BitsThrows) {
  // Nine full groups carry 63 bits; a tenth group of 2 sets bit 64.
  std::vector<std::uint8_t> bytes(9, 0xff);
  bytes.push_back(0x02);
  EXPECT_THROW(decode(bytes), WireFormatError);
  // The largest 64-bit value is a legal varint; as a cluster count it then
  // fails the bytes-left bound.
  bytes.back() = 0x01;
  ByteReader reader(bytes);
  EXPECT_EQ(reader.read_varint(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(decode(concat(bytes, varint(1))), WireFormatError);
}

TEST(WireNegative, NonCanonicalVarintThrows) {
  // The cluster count with a redundant zero group: the same value, but not
  // the one encoding the writer emits.
  const auto frame = good_frame(9);
  ASSERT_LT(frame[0], 0x80u);
  std::vector<std::uint8_t> padded{static_cast<std::uint8_t>(frame[0] | 0x80u), 0x00};
  for (std::size_t i = 1; i < frame.size(); ++i) padded.push_back(frame[i]);
  EXPECT_THROW(decode(padded), WireFormatError);
  EXPECT_THROW(decode({0x80, 0x00}), WireFormatError);  // zero, padded
}

TEST(WireNegative, ClusterCountPastTheBytesLeftThrows) {
  // 2^32 clusters claimed with 3 bytes left: a cluster takes at least
  // 1 + 16·d bytes.
  const std::vector<std::uint8_t> bytes =
      concat(concat(varint(std::uint64_t{1} << 32), varint(1)), {0x03, 0x00, 0x00});
  EXPECT_THROW(decode(bytes), WireFormatError);
}

TEST(WireNegative, ZeroDimensionWithClustersThrows) {
  std::vector<std::uint8_t> bytes = concat(varint(1), varint(0));
  bytes.push_back(0x03);  // a header: count 1, weight elided
  EXPECT_THROW(decode(bytes), WireFormatError);
}

TEST(WireNegative, ZeroCountThrows) {
  // Count 0 with the weight elided, and with an explicit weight of 0.
  EXPECT_THROW(decode(one_cluster_frame(0x01, nullptr, 0.0, 0.0)), WireFormatError);
  const double zero = 0.0;
  EXPECT_THROW(decode(one_cluster_frame(0x00, &zero, 0.0, 0.0)), WireFormatError);
}

TEST(WireNegative, ExplicitWeightEqualToCountThrows) {
  // The encoder elides a weight equal to the count, so an explicit one is
  // a second encoding of the same cluster.
  const double five = 5.0;
  EXPECT_THROW(decode(one_cluster_frame(5u << 1, &five, 10.0, 30.0)), WireFormatError);
}

/// Randomized bit-flip sweep: flipping any single bit of a good frame must
/// either decode (the flip hit a benign mantissa/count bit) and re-encode to
/// the bytes read, or throw WireFormatError — nothing else. Under asan/ubsan
/// this doubles as a memory-safety proof for hostile frames.
void run_bitflip_fuzz(std::uint64_t seed) {
  const auto frame = good_frame(seed);
  Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = frame;
    const std::size_t byte = rng.below(mutated.size());
    const int bit = static_cast<int>(rng.below(8));
    mutated[byte] = static_cast<std::uint8_t>(mutated[byte] ^ (1u << bit));
    decode_or_throw_typed(mutated);
  }
}

/// Random-garbage sweep: arbitrary byte strings must decode or throw typed,
/// and the empty buffer in particular must throw (no count to read).
void run_garbage_fuzz(std::uint64_t seed) {
  Rng rng(seed * 131 + 17);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> garbage(rng.below(300));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    decode_or_throw_typed(garbage);
  }
}

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, SingleBitFlipsDecodeOrThrowTyped) { run_bitflip_fuzz(GetParam()); }
TEST_P(WireFuzz, RandomGarbageDecodesOrThrowsTyped) { run_garbage_fuzz(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range<std::uint64_t>(1, 11));

// Runtime-tunable extended sweep, mirroring SummarizerFuzzBudget: CI's
// sanitizer job raises GEORED_FUZZ_ITERS for a deeper hunt.
TEST(WireFuzzBudget, ExtendedRandomSweep) {
  std::uint64_t iters = 5;
  if (const char* env = std::getenv("GEORED_FUZZ_ITERS")) {
    iters = std::strtoull(env, nullptr, 10);
  }
  for (std::uint64_t seed = 2000; seed < 2000 + iters; ++seed) {
    run_bitflip_fuzz(seed);
    run_garbage_fuzz(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace geored::cluster
