// The summary frame: the one wire encoding of a replica's micro-clusters.
//
// Every path that ships or stores summaries uses it: the four collectors
// (direct, hierarchical, decentralized, rpc) and the manager checkpoint. Its
// size is the unit of the Table II bandwidth accounting
// (EpochReport::summary_bytes, sim::TrafficClass::kSummary).
//
// One frame, with LEB128 varints and little-endian IEEE doubles:
//
//   varint  n                      cluster count
//   varint  d                      dimension; present only when n > 0
//   n times:
//     varint  (count << 1) | w
//     f64     weight               present only when w = 0
//     f64     sum[d]
//     f64     sum2[d]
//
// w = 1 exactly when the weight's bits equal those of double(count), as they
// do for unit-weight traffic; the decoder then takes the weight from the
// count, so every double round-trips bit for bit. At d = 5 a cluster of
// 64 to 8,191 accesses takes 82 bytes with its weight elided and 90 with it;
// the fixed-width layout this replaced took 104 whatever the count.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/microcluster.h"
#include "common/serialize.h"

namespace geored::cluster {

/// Appends the frame of `clusters`: the per-source message of Algorithm 1.
/// Throws std::invalid_argument, writing nothing, unless every cluster has a
/// count in [1, 2^63) and all share one positive dimension.
void write_clusters(ByteWriter& writer, const std::vector<MicroCluster>& clusters);

/// Bytes write_clusters(clusters) appends, computed without writing them.
/// Allocates nothing.
std::size_t serialized_size(const std::vector<MicroCluster>& clusters) noexcept;

/// Decodes one frame. Hardened against hostile bytes: truncated input; a
/// varint longer than 10 bytes, past 64 bits or not canonical; a cluster
/// count the bytes left cannot hold at 1 + 16·d bytes per cluster; d = 0
/// with clusters; a cluster count of 0 (one of 2^63 or more cannot be
/// written: its header would overflow the varint); an explicit weight equal
/// to the count, which the encoder would have elided; a weight that is not
/// finite or is negative; a moment that is not finite; and a negative second
/// moment all throw geored::WireFormatError before anything is sized from
/// them. Every frame it accepts re-encodes to the same bytes.
std::vector<MicroCluster> read_clusters(ByteReader& reader);

/// Decodes the fixed-width layout that checkpoint versions 1 and 2 stored
/// per replica (u32 cluster count; per cluster a u64 count, an f64 weight,
/// and sum and sum2 each as a u32 length and its doubles), with the checks
/// it always had. Kept for those checkpoints alone: nothing writes it.
std::vector<MicroCluster> read_fixed_width_clusters(ByteReader& reader);

}  // namespace geored::cluster
