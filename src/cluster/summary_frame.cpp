#include "cluster/summary_frame.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/ensure.h"

namespace geored::cluster {

namespace detail {

/// The decoders' way into MicroCluster: moments exactly as decoded.
struct FrameAccess {
  static MicroCluster make(std::uint64_t count, double weight, std::vector<double> sum,
                           std::vector<double> sum2) {
    MicroCluster cluster;
    cluster.count_ = count;
    cluster.weight_ = weight;
    cluster.sum_ = Point(std::move(sum));
    cluster.sum2_ = Point(std::move(sum2));
    return cluster;
  }
};

}  // namespace detail

namespace {

/// Counts whose (count << 1) | w header still fits 64 bits.
constexpr std::uint64_t kCountLimit = std::uint64_t{1} << 63;

/// The frame's w flag: the weight carries nothing the count does not.
bool weight_is_count(std::uint64_t count, double weight) {
  return std::bit_cast<std::uint64_t>(weight) ==
         std::bit_cast<std::uint64_t>(static_cast<double>(count));
}

std::uint64_t cluster_header(const MicroCluster& cluster) {
  return (cluster.count() << 1) |
         static_cast<std::uint64_t>(weight_is_count(cluster.count(), cluster.weight()));
}

[[noreturn]] void reject(const std::string& what) {
  throw WireFormatError("corrupt summary frame: " + what);
}

/// The per-moment checks every decoder applies: what no encoder could emit
/// from a summarizer's clusters.
void check_moments(double weight, const std::vector<double>& sum,
                   const std::vector<double>& sum2) {
  if (!std::isfinite(weight) || weight < 0.0) reject("non-finite or negative weight");
  for (std::size_t d = 0; d < sum.size(); ++d) {
    if (!std::isfinite(sum[d]) || !std::isfinite(sum2[d])) reject("non-finite moments");
    if (sum2[d] < 0.0) reject("negative second moment in dimension " + std::to_string(d));
  }
}

}  // namespace

void write_clusters(ByteWriter& writer, const std::vector<MicroCluster>& clusters) {
  const std::size_t dim = clusters.empty() ? 0 : clusters.front().sum().dim();
  for (const auto& cluster : clusters) {
    GEORED_ENSURE(cluster.count() > 0 && cluster.count() < kCountLimit,
                  "a summary frame carries cluster counts in [1, 2^63)");
    GEORED_ENSURE(dim > 0 && cluster.sum().dim() == dim && cluster.sum2().dim() == dim,
                  "the clusters of a summary frame share one positive dimension");
  }
  writer.write_varint(clusters.size());
  if (clusters.empty()) return;
  writer.write_varint(dim);
  for (const auto& cluster : clusters) {
    const std::uint64_t header = cluster_header(cluster);
    writer.write_varint(header);
    if ((header & 1) == 0) writer.write_f64(cluster.weight());
    writer.write_f64s(cluster.sum().values());
    writer.write_f64s(cluster.sum2().values());
  }
}

std::size_t serialized_size(const std::vector<MicroCluster>& clusters) noexcept {
  std::size_t bytes = varint_size(clusters.size());
  if (clusters.empty()) return bytes;
  const std::size_t dim = clusters.front().sum().dim();
  bytes += varint_size(dim);
  for (const auto& cluster : clusters) {
    const std::uint64_t header = cluster_header(cluster);
    bytes += varint_size(header) + ((header & 1) == 0 ? sizeof(double) : 0) +
             2 * dim * sizeof(double);
  }
  return bytes;
}

std::vector<MicroCluster> read_clusters(ByteReader& reader) {
  std::vector<MicroCluster> clusters;
  const std::uint64_t n = reader.read_varint();
  if (n == 0) return clusters;
  const std::uint64_t dim = reader.read_varint();
  if (dim == 0) reject("dimension 0 with " + std::to_string(n) + " clusters");
  // Both header fields are bounded by the bytes left before anything is
  // sized from them: a cluster takes at least a one-byte header and 2·d
  // doubles.
  const std::size_t left = reader.remaining();
  if (dim > left / (2 * sizeof(double))) {
    reject("dimension " + std::to_string(dim) + " cannot fit in the " + std::to_string(left) +
           " bytes remaining");
  }
  const std::size_t min_cluster_bytes = 1 + 2 * sizeof(double) * dim;
  if (n > left / min_cluster_bytes) {
    reject("cluster count " + std::to_string(n) + " cannot fit in the " +
           std::to_string(left) + " bytes remaining");
  }
  clusters.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t header = reader.read_varint();
    const std::uint64_t count = header >> 1;
    if (count == 0) reject("cluster count 0");
    double weight = static_cast<double>(count);
    if ((header & 1) == 0) {
      weight = reader.read_f64();
      if (weight_is_count(count, weight)) reject("explicit weight equal to the count");
    }
    std::vector<double> sum(dim);
    std::vector<double> sum2(dim);
    reader.read_f64s(sum);
    reader.read_f64s(sum2);
    check_moments(weight, sum, sum2);
    clusters.push_back(detail::FrameAccess::make(count, weight, std::move(sum), std::move(sum2)));
  }
  return clusters;
}

std::vector<MicroCluster> read_fixed_width_clusters(ByteReader& reader) {
  const std::uint32_t n = reader.read_u32();
  // A cluster took at least 24 bytes: count, weight and two empty vectors.
  constexpr std::size_t kMinClusterBytes = 2 * sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t);
  if (static_cast<std::size_t>(n) * kMinClusterBytes > reader.remaining()) {
    reject("cluster count " + std::to_string(n) + " cannot fit in the " +
           std::to_string(reader.remaining()) + " bytes remaining");
  }
  std::vector<MicroCluster> clusters;
  clusters.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t count = reader.read_u64();
    const double weight = reader.read_f64();
    std::vector<double> sum = reader.read_f64_vector();
    std::vector<double> sum2 = reader.read_f64_vector();
    if (sum.size() != sum2.size()) reject("moment dimension mismatch");
    check_moments(weight, sum, sum2);
    clusters.push_back(detail::FrameAccess::make(count, weight, std::move(sum), std::move(sum2)));
  }
  return clusters;
}

}  // namespace geored::cluster
