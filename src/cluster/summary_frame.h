// The summary frames: the wire encodings of a replica's micro-clusters.
//
// Every path that ships or stores summaries uses them: the four collectors
// (direct, hierarchical, decentralized, rpc) and the manager checkpoint.
// Their sizes are the unit of the Table II bandwidth accounting
// (EpochReport::summary_bytes, sim::TrafficClass::kSummary).
//
// All three frames use LEB128 varints and little-endian IEEE doubles.
//
// The full frame (the checkpoint, and the hierarchical source -> aggregator
// hop, where aggregators merge clusters):
//
//   varint  n                      cluster count
//   varint  d                      dimension; present only when n > 0
//   n times:
//     varint  (count << 1) | w     w = 1
//     f64     sum[d]
//     f64     sum2[d]
//
// A collection round ships it in two phases, because propose and gate read
// only each cluster's count and sum (Algorithm 1 clusters the
// micro-cluster centroids), and only the hand-off of an adopting epoch
// (core::redistribute_to_nearest) needs the second moments — and of those,
// only the moments of a cluster handed to a replica other than the one that
// reported it. A staying cluster's moments never leave its replica.
//
//   centroid frame (phase 1, every epoch): the full frame without sum2;
//   departure mask (phase 2, coordinator -> source, only when the epoch
//   adopts and the source has a departing cluster):
//     u8      bits[⌈n/8⌉]          bit i (byte i/8, bit i%8, least
//                                  significant first) marks cluster i of
//                                  the source's centroid frame; at least one
//                                  bit is set and none past n
//   departing moment frame (phase 2, the source's reply):
//     varint  n′                   the mask's popcount, at least 1
//     varint  d                    must equal the centroid frame's
//     f64     sum2[n′·d]           the marked clusters', in cluster order
//   moment frame (phase 2 of the hierarchical tree, whose merged clusters
//   all depart): the departing moment frame of a mask that marks every
//   cluster, or varint 0 for a source with none
//     varint  n                    must equal its centroid frame's
//     varint  d                    must equal its centroid frame's; present
//                                  only when n > 0
//     f64     sum2[n·d]            cluster by cluster
//
// Every writer sets w = 1, and every decoder but one rejects w = 0. The bit
// is what is left of a cluster's data-volume weight, which no decision reads:
// checkpoint v3 frames set w = 0 for a weight whose bits differed from those
// of double(count) and put it as an f64 after the header. read_v3_clusters
// still reads such frames, checks each weight as v3 did, and drops it. At
// d = 5 a cluster of 64 to 8,191 accesses takes 82 bytes in the full frame,
// 42 in the centroid frame and 40 in a moment frame.
//
// The writers and sizes read a ClusterView (cluster/cluster_view.h): a
// summarizer's rows in place, or a ClusterBuffer's. The decoders return a
// ClusterBuffer, and read_moment_frame completes one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/cluster_view.h"
#include "common/serialize.h"

namespace geored::cluster {

/// Appends the full frame of `clusters`. Throws std::invalid_argument,
/// writing nothing, unless every cluster has a count in [1, 2^63) and all
/// share one positive dimension in both moments.
void write_clusters(ByteWriter& writer, ClusterView clusters);

/// Bytes write_clusters(clusters) appends, computed without writing them.
/// Allocates nothing.
std::size_t serialized_size(ClusterView clusters) noexcept;

/// Decodes one full frame. Hardened against hostile bytes: truncated input;
/// a varint longer than 10 bytes, past 64 bits or not canonical; a cluster
/// count the bytes left cannot hold at 1 + 16·d bytes per cluster; d = 0
/// with clusters; a cluster count of 0 (one of 2^63 or more cannot be
/// written: its header would overflow the varint); a header with w = 0; a
/// moment that is not finite; and a negative second moment all throw
/// geored::WireFormatError before anything is sized from them. Every frame
/// it accepts re-encodes to the same bytes: its rows, in frame order, each
/// with its second moments.
ClusterBuffer read_clusters(ByteReader& reader);

/// read_clusters for a checkpoint v3 frame, which may hold w = 0 headers,
/// each followed by an explicit weight. The weight is checked as v3 always
/// did: one whose bits equal those of double(count), which the encoder
/// would have elided, and one that is not finite or is negative throw
/// geored::WireFormatError. It is then dropped, so such a frame re-encodes
/// without it.
ClusterBuffer read_v3_clusters(ByteReader& reader);

/// Appends the centroid frame of `clusters` (phase 1): the full frame
/// without the second moments. Throws std::invalid_argument, writing
/// nothing, unless every count is in [1, 2^63) and every sum shares one
/// positive dimension; the second moments are not read.
void write_centroid_frame(ByteWriter& writer, ClusterView clusters);

/// Bytes write_centroid_frame(clusters) appends. Allocates nothing.
std::size_t centroid_frame_size(ClusterView clusters) noexcept;

/// Decodes one centroid frame, with read_clusters' checks at 1 + 8·d bytes
/// per cluster. The rows carry count and sum, what propose and gate
/// read, and no second moments until read_moment_frame completes them.
/// Every frame it accepts re-encodes to the same bytes.
ClusterBuffer read_centroid_frame(ByteReader& reader);

/// Appends the moment frame of `clusters` (phase 2): the second moments
/// their centroid frame left out. Throws std::invalid_argument, writing
/// nothing, unless the clusters share one positive dimension in both
/// moments.
void write_moment_frame(ByteWriter& writer, ClusterView clusters);

/// Bytes write_moment_frame(clusters) appends: it depends only on their
/// count and dimension. Allocates nothing.
std::size_t moment_frame_size(ClusterView clusters) noexcept;

/// Decodes the moment frame that completes `clusters`, the rows decoded
/// from its centroid frame, and sets their second moments. Throws
/// geored::WireFormatError, changing no row, on truncated input, a
/// malformed varint, an n or d that differs from the rows', an n·d the
/// bytes left cannot hold (checked before anything is sized), and a second
/// moment that is negative or not finite. Every frame it accepts
/// re-encodes to the same bytes.
void read_moment_frame(ByteReader& reader, ClusterBuffer& clusters);

/// Which clusters of a source's centroid frame leave the source in an
/// adopting epoch's hand-off: the departure mask of the frame format above.
class DepartureMask {
 public:
  DepartureMask() = default;
  /// A mask over `clusters` clusters with no bit set.
  explicit DepartureMask(std::size_t clusters);

  std::size_t clusters() const { return clusters_; }
  void set(std::size_t i);
  bool departs(std::size_t i) const { return ((bytes_[i / 8] >> (i % 8)) & 1U) != 0; }
  /// The marked clusters (the departing frame's n′).
  std::size_t departing() const;
  /// The encoded mask: ⌈clusters/8⌉ bytes.
  std::span<const std::uint8_t> bytes() const { return bytes_; }

 private:
  std::size_t clusters_ = 0;
  std::vector<std::uint8_t> bytes_;
};

/// Bytes of the departure mask over `clusters` clusters: ⌈clusters/8⌉.
constexpr std::size_t departure_mask_size(std::size_t clusters) noexcept {
  return (clusters + 7) / 8;
}

/// Decodes the departure mask over a centroid frame of `clusters` clusters
/// from `bytes`, the whole mask. Throws geored::WireFormatError on a mask of
/// the wrong length, a bit set past `clusters`, and a mask with no bit set.
DepartureMask read_departure_mask(std::span<const std::uint8_t> bytes, std::size_t clusters);

/// Appends the departing moment frame: the second moments of the clusters
/// `mask` marks. Throws std::invalid_argument, writing nothing, unless the
/// mask covers exactly `clusters`, marks at least one of them, and the
/// marked clusters share one positive dimension in both moments.
void write_departing_moment_frame(ByteWriter& writer, ClusterView clusters,
                                  const DepartureMask& mask);

/// Bytes of a departing moment frame of `departing` clusters in dimension
/// `dim`. Allocates nothing.
constexpr std::size_t departing_moment_frame_size(std::size_t departing,
                                                  std::size_t dim) noexcept {
  return varint_size(departing) + varint_size(dim) + departing * dim * sizeof(double);
}

/// Decodes the departing moment frame answering `mask` over a centroid frame
/// of dimension `dim`: returns the marked clusters' second moments, n′·d
/// values in cluster order. Throws geored::WireFormatError, returning
/// nothing, on truncated input, a malformed varint, an n′ other than the
/// mask's popcount, a d other than `dim`, an n′·d the bytes left cannot hold
/// (checked before anything is sized), and a second moment that is negative
/// or not finite. Every frame it accepts re-encodes to the same bytes.
std::vector<double> read_departing_moment_frame(ByteReader& reader, const DepartureMask& mask,
                                                std::size_t dim);

/// Decodes the fixed-width layout that checkpoint versions 1 and 2 stored
/// per replica (u32 cluster count; per cluster a u64 count, an f64 weight,
/// and sum and sum2 each as a u32 length and its doubles), with the checks
/// it always had; they throw geored::WireFormatError. Each weight is
/// checked, then dropped, as read_v3_clusters does. A layout of several
/// dimensions can hold a cluster of count 0, which no row keeps, so every
/// cluster's dimension is checked against `dim`, the checkpoint's, once the
/// whole layout has decoded: another one throws std::invalid_argument. The
/// clusters of positive count become the rows, in order. Kept for those
/// checkpoints alone: nothing writes it.
ClusterBuffer read_fixed_width_clusters(ByteReader& reader, std::size_t dim);

}  // namespace geored::cluster
