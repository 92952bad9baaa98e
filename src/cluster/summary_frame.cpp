#include "cluster/summary_frame.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ensure.h"

namespace geored::cluster {

namespace {

/// Counts whose (count << 1) | 1 header still fits 64 bits.
constexpr std::uint64_t kCountLimit = std::uint64_t{1} << 63;

/// Which moments a frame carries per cluster: the full frame both, the
/// centroid frame (phase 1) the first alone.
enum class Moments { kSumOnly, kBoth };

std::size_t moments_per_dim(Moments moments) { return moments == Moments::kBoth ? 2 : 1; }

/// What a decoder makes of a cluster header with w = 0: only a checkpoint
/// v3 frame may carry one, followed by the cluster's explicit weight.
enum class Weights { kRejected, kCheckedAndDropped };

/// A cluster's header: its count, and w = 1.
std::uint64_t cluster_header(std::uint64_t count) { return (count << 1) | 1; }

/// A checkpoint v3 encoder set w = 1 exactly when the weight's bits equal
/// those of double(count).
bool weight_is_count(std::uint64_t count, double weight) {
  return std::bit_cast<std::uint64_t>(weight) ==
         std::bit_cast<std::uint64_t>(static_cast<double>(count));
}

[[noreturn]] void reject(const std::string& what) {
  throw WireFormatError("corrupt summary frame: " + what);
}

// The per-value checks every decoder applies: what no encoder could emit
// from a summarizer's clusters. A weight is checked only in the checkpoint
// layouts that stored one (v1 to v3), and then dropped.

void check_weight(double weight) {
  if (!std::isfinite(weight) || weight < 0.0) reject("non-finite or negative weight");
}

void check_sums(std::span<const double> sum) {
  for (const double value : sum) {
    if (!std::isfinite(value)) reject("non-finite moments");
  }
}

void check_second_moments(std::span<const double> sum2) {
  for (const double value : sum2) {
    if (!std::isfinite(value)) reject("non-finite moments");
    if (value < 0.0) reject("negative second moment");
  }
}

void write_frame(ByteWriter& writer, const ClusterView& clusters, Moments moments) {
  const std::size_t dim = clusters.dim();
  const std::size_t n = clusters.size();
  for (std::size_t i = 0; i < n; ++i) {
    GEORED_ENSURE(clusters.count(i) > 0 && clusters.count(i) < kCountLimit,
                  "a summary frame carries cluster counts in [1, 2^63)");
    GEORED_ENSURE(dim > 0 && clusters.sum(i).size() == dim &&
                      (moments == Moments::kSumOnly || clusters.sum2(i).size() == dim),
                  "the clusters of a summary frame share one positive dimension");
  }
  writer.write_varint(n);
  if (n == 0) return;
  writer.write_varint(dim);
  for (std::size_t i = 0; i < n; ++i) {
    writer.write_varint(cluster_header(clusters.count(i)));
    writer.write_f64s(clusters.sum(i));
    if (moments == Moments::kBoth) writer.write_f64s(clusters.sum2(i));
  }
}

std::size_t frame_size(const ClusterView& clusters, Moments moments) noexcept {
  const std::size_t n = clusters.size();
  std::size_t bytes = varint_size(n);
  if (n == 0) return bytes;
  const std::size_t dim = clusters.dim();
  bytes += varint_size(dim);
  for (std::size_t i = 0; i < n; ++i) {
    bytes += varint_size(cluster_header(clusters.count(i))) +
             moments_per_dim(moments) * dim * sizeof(double);
  }
  return bytes;
}

ClusterBuffer read_frame(ByteReader& reader, Moments moments, Weights weights) {
  ClusterBuffer clusters;
  const std::uint64_t n = reader.read_varint();
  if (n == 0) return clusters;
  const std::uint64_t dim = reader.read_varint();
  if (dim == 0) reject("dimension 0 with " + std::to_string(n) + " clusters");
  // Both header fields are bounded by the bytes left before anything is
  // sized from them: a cluster takes at least a one-byte header and its
  // moments' doubles.
  const std::size_t left = reader.remaining();
  const std::size_t doubles_per_dim = moments_per_dim(moments);
  if (dim > left / (doubles_per_dim * sizeof(double))) {
    reject("dimension " + std::to_string(dim) + " cannot fit in the " + std::to_string(left) +
           " bytes remaining");
  }
  const std::size_t min_cluster_bytes = 1 + doubles_per_dim * sizeof(double) * dim;
  if (n > left / min_cluster_bytes) {
    reject("cluster count " + std::to_string(n) + " cannot fit in the " +
           std::to_string(left) + " bytes remaining");
  }
  clusters.reserve(n);
  // One cluster's moments, checked before its row is appended.
  std::vector<double> sum(dim);
  std::vector<double> sum2(moments == Moments::kBoth ? dim : 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t header = reader.read_varint();
    const std::uint64_t count = header >> 1;
    if (count == 0) reject("cluster count 0");
    if ((header & 1) == 0) {
      if (weights == Weights::kRejected) {
        reject("a cluster header with w = 0 (only checkpoint v3 stored weights)");
      }
      const double weight = reader.read_f64();
      if (weight_is_count(count, weight)) reject("explicit weight equal to the count");
      check_weight(weight);
    }
    reader.read_f64s(sum);
    reader.read_f64s(sum2);
    check_sums(sum);
    check_second_moments(sum2);
    clusters.append(
        ClusterView(1, dim, &count, sum.data(), sum2.empty() ? nullptr : sum2.data()));
  }
  return clusters;
}

}  // namespace

void write_clusters(ByteWriter& writer, ClusterView clusters) {
  write_frame(writer, clusters, Moments::kBoth);
}

std::size_t serialized_size(ClusterView clusters) noexcept {
  return frame_size(clusters, Moments::kBoth);
}

ClusterBuffer read_clusters(ByteReader& reader) {
  return read_frame(reader, Moments::kBoth, Weights::kRejected);
}

ClusterBuffer read_v3_clusters(ByteReader& reader) {
  return read_frame(reader, Moments::kBoth, Weights::kCheckedAndDropped);
}

void write_centroid_frame(ByteWriter& writer, ClusterView clusters) {
  write_frame(writer, clusters, Moments::kSumOnly);
}

std::size_t centroid_frame_size(ClusterView clusters) noexcept {
  return frame_size(clusters, Moments::kSumOnly);
}

ClusterBuffer read_centroid_frame(ByteReader& reader) {
  return read_frame(reader, Moments::kSumOnly, Weights::kRejected);
}

namespace {

/// The mask marking every one of `clusters` clusters: a moment frame is the
/// departing moment frame in which every cluster departs.
DepartureMask every_cluster(std::size_t clusters) {
  DepartureMask mask(clusters);
  for (std::size_t i = 0; i < clusters; ++i) mask.set(i);
  return mask;
}

}  // namespace

void write_moment_frame(ByteWriter& writer, ClusterView clusters) {
  if (clusters.empty()) {
    writer.write_varint(0);
    return;
  }
  write_departing_moment_frame(writer, clusters, every_cluster(clusters.size()));
}

std::size_t moment_frame_size(ClusterView clusters) noexcept {
  if (clusters.empty()) return varint_size(0);
  return departing_moment_frame_size(clusters.size(), clusters.dim());
}

void read_moment_frame(ByteReader& reader, ClusterBuffer& clusters) {
  if (clusters.empty()) {
    const std::uint64_t n = reader.read_varint();
    if (n != 0) reject("moment frame of " + std::to_string(n) + " clusters completes none");
    return;
  }
  const std::size_t dim = clusters.dim();
  const std::vector<double> sum2 =
      read_departing_moment_frame(reader, every_cluster(clusters.size()), dim);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    clusters.set_moments(i, std::span<const double>(sum2).subspan(i * dim, dim));
  }
}

DepartureMask::DepartureMask(std::size_t clusters)
    : clusters_(clusters), bytes_(departure_mask_size(clusters), 0) {}

void DepartureMask::set(std::size_t i) {
  GEORED_ENSURE(i < clusters_, "departure mask bit past its clusters");
  bytes_[i / 8] = static_cast<std::uint8_t>(bytes_[i / 8] | (1U << (i % 8)));
}

std::size_t DepartureMask::departing() const {
  std::size_t marked = 0;
  for (const std::uint8_t byte : bytes_) {
    marked += static_cast<std::size_t>(std::popcount(byte));
  }
  return marked;
}

DepartureMask read_departure_mask(std::span<const std::uint8_t> bytes, std::size_t clusters) {
  if (bytes.size() != departure_mask_size(clusters)) {
    reject("departure mask of " + std::to_string(bytes.size()) + " bytes over " +
           std::to_string(clusters) + " clusters");
  }
  // Bits past the last cluster sit in the top of the final byte.
  if (clusters % 8 != 0 && (bytes.back() >> (clusters % 8)) != 0) {
    reject("departure mask marks a cluster past the " + std::to_string(clusters) +
           " it covers");
  }
  DepartureMask mask(clusters);
  for (std::size_t i = 0; i < clusters; ++i) {
    if (((bytes[i / 8] >> (i % 8)) & 1U) != 0) mask.set(i);
  }
  if (mask.departing() == 0) reject("departure mask marks no cluster");
  return mask;
}

void write_departing_moment_frame(ByteWriter& writer, ClusterView clusters,
                                  const DepartureMask& mask) {
  GEORED_ENSURE(mask.clusters() == clusters.size(),
                "a departure mask covers its source's clusters");
  const std::size_t departing = mask.departing();
  GEORED_ENSURE(departing > 0, "a departing moment frame carries at least one cluster");
  const std::size_t dim = clusters.dim();
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    if (!mask.departs(i)) continue;
    GEORED_ENSURE(dim > 0 && clusters.sum(i).size() == dim && clusters.sum2(i).size() == dim,
                  "the clusters of a moment frame share one positive dimension");
  }
  writer.write_varint(departing);
  writer.write_varint(dim);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    if (mask.departs(i)) writer.write_f64s(clusters.sum2(i));
  }
}

std::vector<double> read_departing_moment_frame(  // lint: no-ensure (rejects, typed)
    ByteReader& reader, const DepartureMask& mask, std::size_t dim) {
  const std::uint64_t departing = reader.read_varint();
  if (departing != mask.departing()) {
    reject("moment frame of " + std::to_string(departing) + " clusters where " +
           std::to_string(mask.departing()) + " are expected");
  }
  const std::uint64_t frame_dim = reader.read_varint();
  if (frame_dim != dim) {
    reject("moment frame of dimension " + std::to_string(frame_dim) +
           " completes a centroid frame of dimension " + std::to_string(dim));
  }
  // n′ and d match what the caller holds, so n′·d cannot overflow; the bytes
  // left bound it before the result is sized.
  if (departing * dim > reader.remaining() / sizeof(double)) {
    reject(std::to_string(departing * dim) + " second moments cannot fit in the " +
           std::to_string(reader.remaining()) + " bytes remaining");
  }
  std::vector<double> sum2(departing * dim);
  reader.read_f64s(sum2);
  check_second_moments(sum2);
  return sum2;
}

ClusterBuffer read_fixed_width_clusters(ByteReader& reader, std::size_t dim) {
  const std::uint32_t n = reader.read_u32();
  // A cluster took at least 24 bytes: count, weight and two empty vectors.
  constexpr std::size_t kMinClusterBytes = 2 * sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t);
  if (static_cast<std::size_t>(n) * kMinClusterBytes > reader.remaining()) {
    reject("cluster count " + std::to_string(n) + " cannot fit in the " +
           std::to_string(reader.remaining()) + " bytes remaining");
  }
  ClusterBuffer clusters;
  clusters.reserve(n);
  bool foreign = false;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t count = reader.read_u64();
    const double weight = reader.read_f64();
    const std::vector<double> sum = reader.read_f64_vector();
    const std::vector<double> sum2 = reader.read_f64_vector();
    if (sum.size() != sum2.size()) reject("moment dimension mismatch");
    check_weight(weight);
    check_sums(sum);
    check_second_moments(sum2);
    // Every cluster is checked against the caller's dimension, count 0
    // included, once the whole frame has decoded.
    foreign |= sum.size() != dim;
    if (foreign) continue;
    clusters.append(ClusterView(1, dim, &count, sum.data(), sum2.data()));
  }
  GEORED_ENSURE(!foreign, "checkpoint summaries must have the candidates' dimension");
  return clusters;
}

}  // namespace geored::cluster
