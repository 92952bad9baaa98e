// Negative and fuzz coverage for the hardened summary frame decoders: a real
// transport (src/net/) can deliver truncated, oversized-count, or bit-flipped
// frames, and read_clusters, read_centroid_frame, read_moment_frame,
// read_departure_mask and read_departing_moment_frame must answer every such
// frame with a typed WireFormatError — never undefined behavior, a gigabyte
// allocation, or silently corrupt clusters — and every frame they accept
// must re-encode to the bytes they read. read_v3_clusters, the checkpoint v3
// reader, also accepts the explicit weights those frames carried, checks
// them and drops them. The randomized sweeps honor GEORED_FUZZ_ITERS like
// the other fuzz budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "cluster/cluster_view.h"
#include "cluster/summarizer.h"
#include "common/random.h"
#include "common/serialize.h"
#include "core/replication_manager.h"
#include "reference/microcluster.h"

namespace geored::cluster {
namespace {

/// A well-formed frame to mutate: a few clusters of a 2-D population. Its
/// first cluster (at most 50 accesses) has a one-byte header, so the offsets
/// below are fixed.
ClusterBuffer good_clusters(std::uint64_t seed) {
  Rng rng(seed);
  SummarizerConfig config;
  config.max_clusters = 4;
  MicroClusterSummarizer summarizer(config);
  for (int i = 0; i < 50; ++i) {
    summarizer.add(Point{rng.normal(0.0, 20.0), rng.normal(100.0, 20.0)});
  }
  return ClusterBuffer(summarizer.clusters());
}

std::vector<std::uint8_t> good_frame(std::uint64_t seed) {
  ByteWriter writer;
  write_clusters(writer, good_clusters(seed).view());
  return writer.bytes();
}

// good_frame's layout: n, d = 2, then the first cluster's header, sum[2]
// and sum2[2].
constexpr std::size_t kDimOffset = 1;
constexpr std::size_t kHeaderOffset = 2;
constexpr std::size_t kSumOffset = kHeaderOffset + 1;
constexpr std::size_t kSum2Offset = kSumOffset + 2 * 8;

/// good_clusters(seed) as a checkpoint v3 frame held them: each cluster with
/// an explicit weight of 1.5 times its count (header w = 0).
std::vector<std::uint8_t> v3_frame(std::uint64_t seed) {
  const ClusterBuffer clusters = good_clusters(seed);
  const ClusterView view = clusters.view();
  ByteWriter writer;
  writer.write_varint(view.size());
  writer.write_varint(view.dim());
  for (std::size_t i = 0; i < view.size(); ++i) {
    writer.write_varint(view.count(i) << 1);
    writer.write_f64(1.5 * static_cast<double>(view.count(i)));
    writer.write_f64s(view.sum(i));
    writer.write_f64s(view.sum2(i));
  }
  return writer.bytes();
}

// v3_frame's first cluster: its weight follows the one-byte header.
constexpr std::size_t kV3WeightOffset = kHeaderOffset + 1;

ClusterBuffer decode(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes);
  return read_clusters(reader);
}

ClusterBuffer decode_v3(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes);
  ClusterBuffer clusters = read_v3_clusters(reader);
  EXPECT_TRUE(reader.exhausted());
  return clusters;
}

/// Decodes `bytes` as a frame. When it is accepted, the clusters must
/// re-encode to exactly the bytes read, and serialized_size must count them.
void decode_or_throw_typed(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes);
  ClusterBuffer clusters;
  try {
    clusters = read_clusters(reader);
  } catch (const WireFormatError&) {
    return;  // The one acceptable failure mode.
  }
  const std::size_t consumed = bytes.size() - reader.remaining();
  const std::vector<std::uint8_t> read(bytes.begin(),
                                       bytes.begin() + static_cast<std::ptrdiff_t>(consumed));
  ByteWriter again;
  write_clusters(again, clusters.view());
  EXPECT_EQ(again.bytes(), read) << "an accepted frame re-encodes differently";
  EXPECT_EQ(serialized_size(clusters.view()), consumed);
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
  ASSERT_EQ(frame[kHeaderOffset] & 0x81u, 1u) << "a one-byte header with w = 1";
  // A checkpoint v3 frame with explicit weights decodes to the same rows,
  // which re-encode without them.
  const ClusterBuffer v3 = decode_v3(v3_frame(1));
  ByteWriter again;
  write_clusters(again, v3.view());
  EXPECT_EQ(again.bytes(), frame);
  EXPECT_EQ(decode_v3(frame).size(), decode(frame).size());
  // The hand-built frames below are well-formed until a field is broken.
  const double weight = 2.5;
  EXPECT_EQ(decode(one_cluster_frame((5u << 1) | 1u, nullptr, 10.0, 30.0)).size(), 1u);
  EXPECT_EQ(decode_v3(one_cluster_frame(5u << 1, &weight, 10.0, 30.0)).size(), 1u);
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
  // The weights a checkpoint v3 frame carried are checked before they are
  // dropped.
  auto frame = v3_frame(5);
  const double negative = -1.0;
  std::memcpy(frame.data() + kV3WeightOffset, &negative, sizeof negative);
  EXPECT_THROW(decode_v3(frame), WireFormatError);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(frame.data() + kV3WeightOffset, &nan, sizeof nan);
  EXPECT_THROW(decode_v3(frame), WireFormatError);
}

TEST(WireNegative, WeightFlagZeroThrowsOutsideCheckpointV3) {
  // w = 0 in a full frame and in a centroid frame, whatever weight follows.
  EXPECT_THROW(decode(v3_frame(5)), WireFormatError);
  const double weight = 2.5;
  ByteWriter centroid;
  centroid.write_varint(1);
  centroid.write_varint(1);
  centroid.write_varint(5u << 1);
  centroid.write_f64(weight);
  centroid.write_f64(10.0);
  ByteReader centroid_reader(centroid.bytes());
  EXPECT_THROW(read_centroid_frame(centroid_reader), WireFormatError);

  // And in a v4 checkpoint: one replica holding one cluster of count 1,
  // whose header 0x03 becomes 0x02 followed by an explicit weight. The
  // same bytes with version 3 restore to the state saved.
  std::vector<place::CandidateInfo> candidates;
  for (topo::NodeId node = 0; node < 4; ++node) {
    candidates.push_back(
        {node, Point{100.0 * node}, std::numeric_limits<double>::infinity()});
  }
  core::ManagerConfig config;
  config.replication_degree = 1;
  core::ReplicationManager primary(candidates, config, 7);
  primary.serve(Point{150.0});
  ByteWriter saved;
  primary.save(saved);
  std::vector<std::uint8_t> blob = saved.bytes();
  // Header (44 bytes), the placement (a u32 count and one id), then the
  // frame: n = 1, d = 1, the cluster header.
  constexpr std::size_t kClusterHeader = 44 + 4 + 4 + 2;
  ASSERT_EQ(blob[4], core::kCheckpointVersion);
  ASSERT_EQ(blob[kClusterHeader - 2], 1u);
  ASSERT_EQ(blob[kClusterHeader], 0x03u);
  blob[kClusterHeader] = 0x02;
  std::uint8_t weight_bytes[sizeof weight];
  std::memcpy(weight_bytes, &weight, sizeof weight);
  blob.insert(blob.begin() + kClusterHeader + 1, weight_bytes, weight_bytes + sizeof weight);
  core::ReplicationManager standby(candidates, config, 7);
  ByteReader v4_reader(blob);
  EXPECT_THROW(standby.restore(v4_reader), WireFormatError);
  blob[4] = 3;
  ByteReader v3_reader(blob);
  standby.restore(v3_reader);
  ByteWriter restored;
  standby.save(restored);
  EXPECT_EQ(restored.bytes(), saved.bytes());
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
  bytes.push_back(0x03);  // a header: count 1, w = 1
  EXPECT_THROW(decode(bytes), WireFormatError);
}

TEST(WireNegative, ZeroCountThrows) {
  // Count 0, and (as a checkpoint v3 held it) count 0 with an explicit
  // weight of 0.
  EXPECT_THROW(decode(one_cluster_frame(0x01, nullptr, 0.0, 0.0)), WireFormatError);
  const double zero = 0.0;
  EXPECT_THROW(decode_v3(one_cluster_frame(0x00, &zero, 0.0, 0.0)), WireFormatError);
}

TEST(WireNegative, ExplicitWeightEqualToCountThrows) {
  // A checkpoint v3 encoder elided a weight equal to the count, so an
  // explicit one is a second encoding of the same cluster.
  const double five = 5.0;
  EXPECT_THROW(decode_v3(one_cluster_frame(5u << 1, &five, 10.0, 30.0)), WireFormatError);
}

// --- The two phases: centroid frames and moment frames -------------------

std::vector<std::uint8_t> good_centroid_frame(std::uint64_t seed) {
  ByteWriter writer;
  write_centroid_frame(writer, good_clusters(seed).view());
  return writer.bytes();
}

std::vector<std::uint8_t> good_moment_frame(std::uint64_t seed) {
  ByteWriter writer;
  write_moment_frame(writer, good_clusters(seed).view());
  return writer.bytes();
}

// good_centroid_frame's layout: n, d = 2, then the first cluster's header
// and sum[2].
constexpr std::size_t kCentroidSumOffset = kHeaderOffset + 1;
// good_moment_frame's layout: n, d = 2, then sum2[2] cluster by cluster.
constexpr std::size_t kMomentValuesOffset = 2;

ClusterBuffer decode_centroids(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes);
  return read_centroid_frame(reader);
}

/// Decodes `bytes` as the moment frame completing the centroid frame of
/// good_clusters(seed), and returns the completed clusters.
ClusterBuffer complete(std::uint64_t seed, const std::vector<std::uint8_t>& bytes) {
  ClusterBuffer clusters = decode_centroids(good_centroid_frame(seed));
  ByteReader reader(bytes);
  read_moment_frame(reader, clusters);
  return clusters;
}

/// Decodes `bytes` as a centroid frame. When it is accepted, the clusters
/// must re-encode to exactly the bytes read, and centroid_frame_size must
/// count them.
void decode_centroids_or_throw_typed(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes);
  ClusterBuffer clusters;
  try {
    clusters = read_centroid_frame(reader);
  } catch (const WireFormatError&) {
    return;
  }
  const std::size_t consumed = bytes.size() - reader.remaining();
  const std::vector<std::uint8_t> read(bytes.begin(),
                                       bytes.begin() + static_cast<std::ptrdiff_t>(consumed));
  ByteWriter again;
  write_centroid_frame(again, clusters.view());
  EXPECT_EQ(again.bytes(), read) << "an accepted centroid frame re-encodes differently";
  EXPECT_EQ(centroid_frame_size(clusters.view()), consumed);
}

/// Decodes `bytes` as the moment frame completing the centroid frame of
/// good_clusters(seed). When it is accepted, the completed clusters must
/// re-encode to exactly the bytes read, and moment_frame_size must count
/// them; when it is rejected, no cluster may have changed.
void decode_moments_or_throw_typed(std::uint64_t seed,
                                   const std::vector<std::uint8_t>& bytes) {
  ClusterBuffer clusters = decode_centroids(good_centroid_frame(seed));
  ByteReader reader(bytes);
  try {
    read_moment_frame(reader, clusters);
  } catch (const WireFormatError&) {
    for (const auto& cluster : to_micro_clusters(clusters.view())) {
      EXPECT_EQ(cluster.sum2().dim(), 0u);
    }
    return;
  }
  const std::size_t consumed = bytes.size() - reader.remaining();
  const std::vector<std::uint8_t> read(bytes.begin(),
                                       bytes.begin() + static_cast<std::ptrdiff_t>(consumed));
  ByteWriter again;
  write_moment_frame(again, clusters.view());
  EXPECT_EQ(again.bytes(), read) << "an accepted moment frame re-encodes differently";
  EXPECT_EQ(moment_frame_size(clusters.view()), consumed);
}

TEST(WireNegative, TwoPhasesCompleteTheFullFrame) {
  const auto clusters = good_clusters(21);
  const auto centroids = good_centroid_frame(21);
  const auto moments = good_moment_frame(21);
  EXPECT_EQ(centroids.size(), centroid_frame_size(clusters.view()));
  EXPECT_EQ(moments.size(), moment_frame_size(clusters.view()));
  EXPECT_EQ(moments.size(), 2 + clusters.size() * 2 * sizeof(double));
  // Each phase repeats the header (n and d); everything else is shipped once.
  EXPECT_EQ(centroids.size() + moments.size(), good_frame(21).size() + 2);
  const auto phase_one = decode_centroids(centroids);
  for (const auto& cluster : to_micro_clusters(phase_one.view())) {
    EXPECT_EQ(cluster.sum2().dim(), 0u);
  }
  ByteWriter full;
  write_clusters(full, complete(21, moments).view());
  EXPECT_EQ(full.bytes(), good_frame(21));
  // An empty source ships one byte in each phase.
  EXPECT_TRUE(decode_centroids(varint(0)).empty());
  EXPECT_EQ(moment_frame_size({}), 1u);
  ClusterBuffer none;
  const std::vector<std::uint8_t> empty = varint(0);
  ByteReader reader(empty);
  read_moment_frame(reader, none);
  EXPECT_TRUE(reader.exhausted());
}

TEST(WireNegative, EveryCentroidFrameTruncationThrowsTyped) {
  const auto frame = good_centroid_frame(22);
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(decode_centroids(cut), WireFormatError) << "kept " << keep << " bytes";
  }
}

TEST(WireNegative, EveryMomentFrameTruncationThrowsTyped) {
  const auto frame = good_moment_frame(23);
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(complete(23, cut), WireFormatError) << "kept " << keep << " bytes";
  }
}

/// `frame` with the one-byte varint at `offset` re-encoded with a redundant
/// zero group: the same value, but not the encoding the writer emits.
std::vector<std::uint8_t> pad_varint_at(const std::vector<std::uint8_t>& frame,
                                        std::size_t offset) {
  std::vector<std::uint8_t> padded;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (i != offset) {
      padded.push_back(frame[i]);
      continue;
    }
    padded.push_back(static_cast<std::uint8_t>(frame[i] | 0x80u));
    padded.push_back(0x00);
  }
  return padded;
}

TEST(WireNegative, CentroidFrameVarintsMustBeCanonicalAndShort) {
  const auto frame = good_centroid_frame(24);
  std::vector<std::uint8_t> eleven(10, 0x80);
  eleven.push_back(0x00);
  EXPECT_THROW(decode_centroids(eleven), WireFormatError);
  EXPECT_THROW(decode_centroids(pad_varint_at(frame, 0)), WireFormatError);
  EXPECT_THROW(decode_centroids(pad_varint_at(frame, kDimOffset)), WireFormatError);
}

TEST(WireNegative, MomentFrameVarintsMustBeCanonicalAndShort) {
  const auto frame = good_moment_frame(25);
  std::vector<std::uint8_t> eleven(10, 0x80);
  eleven.push_back(0x00);
  EXPECT_THROW(complete(25, eleven), WireFormatError);
  EXPECT_THROW(complete(25, pad_varint_at(frame, 0)), WireFormatError);
  EXPECT_THROW(complete(25, pad_varint_at(frame, kDimOffset)), WireFormatError);
}

TEST(WireNegative, CentroidFrameCountOrDimensionPastTheBytesLeftThrows) {
  const auto frame = good_centroid_frame(26);
  const std::vector<std::uint8_t> after_n(frame.begin() + kDimOffset, frame.end());
  EXPECT_THROW(decode_centroids(concat(varint(0xfffffffe), after_n)), WireFormatError);
  const std::vector<std::uint8_t> after_d(frame.begin() + kHeaderOffset, frame.end());
  EXPECT_THROW(decode_centroids(concat(concat({frame[0]}, varint(500'000'000)), after_d)),
               WireFormatError);
  // 2^32 clusters with 3 bytes left: a cluster takes at least 1 + 8·d bytes.
  EXPECT_THROW(decode_centroids(concat(concat(varint(std::uint64_t{1} << 32), varint(1)),
                                       {0x03, 0x00, 0x00})),
               WireFormatError);
  EXPECT_THROW(decode_centroids(concat(varint(1), varint(0))), WireFormatError);
}

TEST(WireNegative, MomentFrameValuesPastTheBytesLeftThrow) {
  // n and d match the centroid frame, but 3 bytes cannot hold n·d doubles.
  const auto frame = good_moment_frame(27);
  const std::vector<std::uint8_t> header(frame.begin(), frame.begin() + kMomentValuesOffset);
  EXPECT_THROW(complete(27, concat(header, {0x00, 0x00, 0x00})), WireFormatError);
}

TEST(WireNegative, MomentFrameMustMatchItsCentroidFrame) {
  const auto frame = good_moment_frame(28);
  const std::vector<std::uint8_t> after_n(frame.begin() + 1, frame.end());
  const std::vector<std::uint8_t> after_d(frame.begin() + kMomentValuesOffset, frame.end());
  // One cluster more, one fewer, and none at all.
  EXPECT_THROW(complete(28, concat(varint(frame[0] + 1u), after_n)), WireFormatError);
  EXPECT_THROW(complete(28, concat(varint(frame[0] - 1u), after_n)), WireFormatError);
  EXPECT_THROW(complete(28, varint(0)), WireFormatError);
  // Another dimension, even with the bytes for it.
  std::vector<std::uint8_t> three_d = concat({frame[0]}, varint(3));
  three_d.insert(three_d.end(), after_d.begin(), after_d.end());
  three_d.resize(three_d.size() + 8u * frame[0], 0);
  EXPECT_THROW(complete(28, three_d), WireFormatError);
  EXPECT_THROW(complete(28, concat(concat({frame[0]}, varint(1)), after_d)), WireFormatError);
  // A huge claimed count is a mismatch before it sizes anything.
  EXPECT_THROW(complete(28, concat(varint(0xfffffffe), after_n)), WireFormatError);
}

TEST(WireNegative, NegativeOrNonFiniteSecondMomentInAMomentFrameThrows) {
  const double bad_values[] = {-4.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()};
  for (const double bad : bad_values) {
    for (const std::size_t value : {std::size_t{0}, std::size_t{3}}) {
      auto frame = good_moment_frame(29);
      std::memcpy(frame.data() + kMomentValuesOffset + 8 * value, &bad, sizeof bad);
      EXPECT_THROW(complete(29, frame), WireFormatError) << bad << " at value " << value;
      // A rejected frame leaves every cluster as phase 1 decoded it.
      decode_moments_or_throw_typed(29, frame);
    }
  }
}

TEST(WireNegative, CentroidFrameRejectsWhatNoEncoderEmits) {
  // A header with w = 0, whatever weight follows it; a zero count; and a
  // non-finite sum.
  const auto one_cluster = [](std::uint64_t header, const double* weight, double sum) {
    ByteWriter writer;
    writer.write_varint(1);
    writer.write_varint(1);
    writer.write_varint(header);
    if (weight != nullptr) writer.write_f64(*weight);
    writer.write_f64(sum);
    return writer.bytes();
  };
  const double five = 5.0;
  const double weight = 2.5;
  EXPECT_THROW(decode_centroids(one_cluster(5u << 1, &weight, 10.0)), WireFormatError);
  EXPECT_EQ(decode_centroids(one_cluster((5u << 1) | 1u, nullptr, 10.0)).size(), 1u);
  EXPECT_THROW(decode_centroids(one_cluster(5u << 1, &five, 10.0)), WireFormatError);
  EXPECT_THROW(decode_centroids(one_cluster(0x01, nullptr, 10.0)), WireFormatError);
  const double negative = -1.0;
  EXPECT_THROW(decode_centroids(one_cluster(5u << 1, &negative, 10.0)), WireFormatError);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(decode_centroids(one_cluster(5u << 1, &nan, 10.0)), WireFormatError);
  EXPECT_THROW(decode_centroids(one_cluster((5u << 1) | 1u, nullptr, nan)), WireFormatError);
  auto frame = good_centroid_frame(30);
  std::memcpy(frame.data() + kCentroidSumOffset, &nan, sizeof nan);
  EXPECT_THROW(decode_centroids(frame), WireFormatError);
}

// --- Phase 2 on the hand-off plan: departure masks and departing frames --

/// good_clusters(seed)'s departure mask: every other cluster departs.
DepartureMask good_mask(std::uint64_t seed) {
  const auto clusters = good_clusters(seed);
  DepartureMask mask(clusters.size());
  for (std::size_t i = 0; i < clusters.size(); i += 2) mask.set(i);
  return mask;
}

std::vector<std::uint8_t> good_mask_bytes(std::uint64_t seed) {
  const DepartureMask mask = good_mask(seed);
  return {mask.bytes().begin(), mask.bytes().end()};
}

std::vector<std::uint8_t> good_departing_frame(std::uint64_t seed) {
  ByteWriter writer;
  write_departing_moment_frame(writer, good_clusters(seed).view(), good_mask(seed));
  return writer.bytes();
}

// good_departing_frame's layout: n′, d = 2, then sum2[2] cluster by cluster.
constexpr std::size_t kDepartingValuesOffset = 2;

/// The rows phase 1 of good_clusters(seed) leaves at the coordinator.
ClusterBuffer phase_one_rows(std::uint64_t seed) {
  ClusterBuffer rows;
  rows.append_centroids(decode_centroids(good_centroid_frame(seed)).view(), 0);
  return rows;
}

/// Phase 2 over the rows of good_clusters(seed): the replica decodes
/// `mask_bytes`, and the coordinator decodes `frame` against the mask it
/// sent (good_mask) and fills in the departing rows' moments.
ClusterBuffer hand_off(std::uint64_t seed, const std::vector<std::uint8_t>& mask_bytes,
                       const std::vector<std::uint8_t>& frame) {
  ClusterBuffer rows = phase_one_rows(seed);
  read_departure_mask(mask_bytes, rows.size());
  const DepartureMask mask = good_mask(seed);
  ByteReader reader(frame);
  const std::vector<double> sum2 = read_departing_moment_frame(reader, mask, rows.dim());
  std::size_t next = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!mask.departs(i)) continue;
    rows.set_moments(i, std::span<const double>(sum2).subspan(next * rows.dim(), rows.dim()));
    ++next;
  }
  return rows;
}

/// Decodes `mask_bytes` over good_clusters(seed). When it is accepted, it
/// re-encodes to the same bytes and marks at least one cluster.
void decode_mask_or_throw_typed(std::uint64_t seed,
                                const std::vector<std::uint8_t>& mask_bytes) {
  const std::size_t clusters = good_clusters(seed).size();
  DepartureMask mask;
  try {
    mask = read_departure_mask(mask_bytes, clusters);
  } catch (const WireFormatError&) {
    return;
  }
  EXPECT_EQ(std::vector<std::uint8_t>(mask.bytes().begin(), mask.bytes().end()), mask_bytes);
  EXPECT_GT(mask.departing(), 0u);
}

/// Decodes `frame` as the departing moment frame answering good_mask(seed)
/// and fills in the phase-1 rows. When it is accepted, the rows re-encode
/// to exactly the bytes read; when it is rejected, every row is as phase 1
/// decoded it.
void decode_departing_or_throw_typed(std::uint64_t seed,
                                     const std::vector<std::uint8_t>& frame) {
  ClusterBuffer rows = phase_one_rows(seed);
  const DepartureMask mask = good_mask(seed);
  ByteReader reader(frame);
  std::vector<double> sum2;
  try {
    sum2 = read_departing_moment_frame(reader, mask, rows.dim());
  } catch (const WireFormatError&) {
    for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_FALSE(rows.has_moments(i));
    ByteWriter centroids;
    write_centroid_frame(centroids, rows.view());
    EXPECT_EQ(centroids.bytes(), good_centroid_frame(seed));
    return;
  }
  std::size_t next = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!mask.departs(i)) continue;
    rows.set_moments(i, std::span<const double>(sum2).subspan(next * rows.dim(), rows.dim()));
    ++next;
  }
  const std::size_t consumed = frame.size() - reader.remaining();
  const std::vector<std::uint8_t> read(frame.begin(),
                                       frame.begin() + static_cast<std::ptrdiff_t>(consumed));
  ByteWriter again;
  write_departing_moment_frame(again, rows.view(), mask);
  EXPECT_EQ(again.bytes(), read) << "an accepted departing frame re-encodes differently";
  EXPECT_EQ(departing_moment_frame_size(mask.departing(), rows.dim()), consumed);
}

TEST(WireNegative, DepartingFramesShipOnlyTheMarkedMoments) {
  const auto clusters = good_clusters(41);
  ASSERT_GE(clusters.size(), 3u);
  const DepartureMask mask = good_mask(41);
  const auto frame = good_departing_frame(41);
  EXPECT_EQ(mask.bytes().size(), departure_mask_size(clusters.size()));
  EXPECT_EQ(mask.bytes().size(), 1u);
  EXPECT_EQ(frame.size(), departing_moment_frame_size(mask.departing(), 2));
  EXPECT_EQ(frame.size(), 2 + mask.departing() * 2 * sizeof(double));
  // The marked rows get their moments bit for bit; the others stay without.
  const ClusterBuffer rows = hand_off(41, good_mask_bytes(41), frame);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows.has_moments(i), mask.departs(i)) << i;
    if (!mask.departs(i)) continue;
    const auto sum2 = rows.view().sum2(i);
    const auto want = clusters.view().sum2(i);
    EXPECT_TRUE(std::equal(sum2.begin(), sum2.end(), want.begin(), want.end())) << i;
  }
  // Every cluster departing costs one mask byte more than the moment frame.
  DepartureMask all(clusters.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) all.set(i);
  ByteWriter every;
  write_departing_moment_frame(every, clusters.view(), all);
  EXPECT_EQ(every.bytes(), good_moment_frame(41));
  // No mask marks nothing, and no departing frame is empty.
  ByteWriter none;
  EXPECT_THROW(
      write_departing_moment_frame(none, clusters.view(), DepartureMask(clusters.size())),
      std::invalid_argument);
  EXPECT_EQ(none.size(), 0u);
}

TEST(WireNegative, DepartureMasksRoundTripAtEveryLength) {
  for (std::size_t n = 1; n <= 24; ++n) {
    DepartureMask mask(n);
    for (std::size_t i = n - 1;; i -= 3) {
      mask.set(i);
      if (i < 3) break;
    }
    ASSERT_EQ(mask.bytes().size(), (n + 7) / 8);
    const DepartureMask read = read_departure_mask(mask.bytes(), n);
    EXPECT_TRUE(std::equal(read.bytes().begin(), read.bytes().end(), mask.bytes().begin(),
                           mask.bytes().end()))
        << n;
    EXPECT_EQ(read.departing(), mask.departing());
  }
}

TEST(WireNegative, DepartureMaskOfTheWrongLengthThrows) {
  const auto bytes = good_mask_bytes(42);
  const std::size_t clusters = good_clusters(42).size();
  EXPECT_NO_THROW(read_departure_mask(bytes, clusters));
  EXPECT_THROW(read_departure_mask({}, clusters), WireFormatError);
  EXPECT_THROW(read_departure_mask(concat(bytes, {0x00}), clusters), WireFormatError);
  EXPECT_THROW(read_departure_mask(concat(bytes, bytes), clusters), WireFormatError);
  // Nine clusters take two bytes; one byte is a mask of the wrong length.
  EXPECT_THROW(read_departure_mask(std::vector<std::uint8_t>{0x01}, 9), WireFormatError);
  EXPECT_NO_THROW(read_departure_mask(std::vector<std::uint8_t>{0x01, 0x00}, 9));
}

TEST(WireNegative, DepartureMaskBitsPastItsClustersThrow) {
  EXPECT_THROW(read_departure_mask(std::vector<std::uint8_t>{0x08}, 3), WireFormatError);
  EXPECT_THROW(read_departure_mask(std::vector<std::uint8_t>{0x81}, 7), WireFormatError);
  EXPECT_NO_THROW(read_departure_mask(std::vector<std::uint8_t>{0xff}, 8));
  EXPECT_THROW(read_departure_mask(std::vector<std::uint8_t>{0x01, 0x02}, 9), WireFormatError);
  EXPECT_NO_THROW(read_departure_mask(std::vector<std::uint8_t>{0x00, 0x01}, 9));
}

TEST(WireNegative, AllZeroDepartureMaskThrows) {
  EXPECT_THROW(read_departure_mask(std::vector<std::uint8_t>{0x00}, 4), WireFormatError);
  EXPECT_THROW(read_departure_mask(std::vector<std::uint8_t>{0x00, 0x00}, 16),
               WireFormatError);
  // A source of no clusters has no mask to send: it is never asked.
  EXPECT_THROW(read_departure_mask({}, 0), WireFormatError);
}

TEST(WireNegative, EveryDepartingFrameTruncationThrowsTyped) {
  const auto frame = good_departing_frame(43);
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(hand_off(43, good_mask_bytes(43), cut), WireFormatError)
        << "kept " << keep << " bytes";
    decode_departing_or_throw_typed(43, cut);
  }
}

TEST(WireNegative, DepartingFrameVarintsMustBeCanonicalAndShort) {
  const auto frame = good_departing_frame(44);
  std::vector<std::uint8_t> eleven(10, 0x80);
  eleven.push_back(0x00);
  EXPECT_THROW(hand_off(44, good_mask_bytes(44), eleven), WireFormatError);
  EXPECT_THROW(hand_off(44, good_mask_bytes(44), pad_varint_at(frame, 0)), WireFormatError);
  EXPECT_THROW(hand_off(44, good_mask_bytes(44), pad_varint_at(frame, kDimOffset)),
               WireFormatError);
}

TEST(WireNegative, DepartingFrameMustAnswerItsMask) {
  const auto frame = good_departing_frame(45);
  const std::vector<std::uint8_t> after_n(frame.begin() + 1, frame.end());
  const std::vector<std::uint8_t> after_d(frame.begin() + kDepartingValuesOffset, frame.end());
  const auto mask = good_mask_bytes(45);
  EXPECT_NO_THROW(hand_off(45, mask, frame));
  // n′ one more or one fewer than the mask's popcount, or none at all.
  EXPECT_THROW(hand_off(45, mask, concat(varint(frame[0] + 1u), after_n)), WireFormatError);
  EXPECT_THROW(hand_off(45, mask, concat(varint(frame[0] - 1u), after_n)), WireFormatError);
  EXPECT_THROW(hand_off(45, mask, varint(0)), WireFormatError);
  // Another dimension, even with the bytes for it.
  std::vector<std::uint8_t> three_d = concat({frame[0]}, varint(3));
  three_d.insert(three_d.end(), after_d.begin(), after_d.end());
  three_d.resize(three_d.size() + 8u * frame[0], 0);
  EXPECT_THROW(hand_off(45, mask, three_d), WireFormatError);
  // A huge claimed count is a mismatch before it sizes anything, and the
  // right count with 3 bytes left cannot hold its values.
  EXPECT_THROW(hand_off(45, mask, concat(varint(0xfffffffe), after_n)), WireFormatError);
  const std::vector<std::uint8_t> header(frame.begin(),
                                         frame.begin() + kDepartingValuesOffset);
  EXPECT_THROW(hand_off(45, mask, concat(header, {0x00, 0x00, 0x00})), WireFormatError);
  // The replica rejects a mask that marks nothing before it answers.
  EXPECT_THROW(hand_off(45, std::vector<std::uint8_t>(mask.size(), 0), frame),
               WireFormatError);
}

TEST(WireNegative, NegativeOrNonFiniteSecondMomentInADepartingFrameThrows) {
  const double bad_values[] = {-4.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()};
  for (const double bad : bad_values) {
    for (const std::size_t value : {std::size_t{0}, std::size_t{3}}) {
      auto frame = good_departing_frame(46);
      std::memcpy(frame.data() + kDepartingValuesOffset + 8 * value, &bad, sizeof bad);
      EXPECT_THROW(hand_off(46, good_mask_bytes(46), frame), WireFormatError)
          << bad << " at value " << value;
      // A rejected frame leaves every cluster as phase 1 decoded it.
      decode_departing_or_throw_typed(46, frame);
    }
  }
}

/// Decodes `bytes` as a checkpoint v3 frame. When it is accepted, its rows
/// (their weights dropped) must make a frame that read_clusters accepts and
/// that re-encodes to itself.
void decode_v3_or_throw_typed(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes);
  ClusterBuffer clusters;
  try {
    clusters = read_v3_clusters(reader);
  } catch (const WireFormatError&) {
    return;
  }
  ByteWriter rows;
  write_clusters(rows, clusters.view());
  decode_or_throw_typed(rows.bytes());
  EXPECT_EQ(decode(rows.bytes()).size(), clusters.size());
}

/// Randomized bit-flip sweep: flipping any single bit of a good frame must
/// either decode (the flip hit a benign mantissa/count bit) and re-encode to
/// the bytes read, or throw WireFormatError — nothing else. Under asan/ubsan
/// this doubles as a memory-safety proof for hostile frames.
void run_bitflip_fuzz(std::uint64_t seed) {
  const auto frame = good_frame(seed);
  const auto v3 = v3_frame(seed);
  const auto centroids = good_centroid_frame(seed);
  const auto moments = good_moment_frame(seed);
  const auto mask = good_mask_bytes(seed);
  const auto departing = good_departing_frame(seed);
  Rng rng(seed * 31 + 7);
  const auto flip = [&rng](std::vector<std::uint8_t> bytes) {
    const std::size_t byte = rng.below(bytes.size());
    const int bit = static_cast<int>(rng.below(8));
    bytes[byte] = static_cast<std::uint8_t>(bytes[byte] ^ (1u << bit));
    return bytes;
  };
  for (int trial = 0; trial < 200; ++trial) {
    decode_or_throw_typed(flip(frame));
    decode_v3_or_throw_typed(flip(v3));
    decode_centroids_or_throw_typed(flip(centroids));
    decode_moments_or_throw_typed(seed, flip(moments));
    decode_mask_or_throw_typed(seed, flip(mask));
    decode_departing_or_throw_typed(seed, flip(departing));
  }
}

/// Random-garbage sweep: arbitrary byte strings must decode or throw typed,
/// and the empty buffer in particular must throw (no count to read). Moment
/// and departing frames get their true header, so the garbage reaches the
/// values; masks get garbage of their own length too.
void run_garbage_fuzz(std::uint64_t seed) {
  Rng rng(seed * 131 + 17);
  const auto moments = good_moment_frame(seed);
  const std::vector<std::uint8_t> header(moments.begin(),
                                         moments.begin() + kMomentValuesOffset);
  const auto departing = good_departing_frame(seed);
  const std::vector<std::uint8_t> departing_header(
      departing.begin(), departing.begin() + kDepartingValuesOffset);
  const std::size_t mask_size = good_mask_bytes(seed).size();
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> garbage(rng.below(300));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    decode_or_throw_typed(garbage);
    decode_v3_or_throw_typed(garbage);
    decode_centroids_or_throw_typed(garbage);
    decode_moments_or_throw_typed(seed, garbage);
    decode_moments_or_throw_typed(seed, concat(header, garbage));
    decode_mask_or_throw_typed(seed, garbage);
    decode_mask_or_throw_typed(
        seed, std::vector<std::uint8_t>(garbage.begin(),
                                        garbage.begin() + static_cast<std::ptrdiff_t>(std::min(
                                                              mask_size, garbage.size()))));
    decode_departing_or_throw_typed(seed, garbage);
    decode_departing_or_throw_typed(seed, concat(departing_header, garbage));
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
