// CandidateTable: the candidate data centers, indexed once and shared.
//
// Every group of a fleet sees the same candidates, and the candidates'
// coordinates are what routing, the migration gate and the degree curve
// read per access or per summary. The table holds them once: the candidate
// list, the coordinates as one PointSet (row i is candidate i), and a
// node-to-position hash index sized by the candidate count, never by the
// largest node id. It is immutable after construction, so a fleet's
// managers share it through shared_ptr<const CandidateTable> and read it
// from concurrent group epochs without a lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/ensure.h"
#include "common/point_set.h"
#include "placement/types.h"

namespace geored::place {

class CandidateTable {
 public:
  /// find()'s answer for a node that is not a candidate.
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Throws std::invalid_argument for an empty list or for candidates of
  /// different coordinate dimensions. A node listed more than once resolves
  /// to its first entry.
  explicit CandidateTable(std::vector<CandidateInfo> candidates);

  const std::vector<CandidateInfo>& candidates() const { return candidates_; }
  std::size_t size() const { return candidates_.size(); }
  /// The candidates' (and so the clients') coordinate dimension.
  std::size_t dim() const { return coords_.dim(); }
  /// Candidate coordinates; row i is candidates()[i].coords.
  const PointSet& coords() const { return coords_; }

  /// Position of `node`'s first entry, or npos when it is not a candidate.
  std::size_t find(topo::NodeId node) const {
    for (std::size_t slot = home_slot(node);; slot = (slot + 1) & mask_) {
      const Slot& entry = slots_[slot];
      if (entry.position == kEmpty) return npos;
      if (entry.node == node) return entry.position;
    }
  }

  /// As find(), but throws std::invalid_argument for a node that is not a
  /// candidate.
  std::size_t position_of(topo::NodeId node) const {
    const std::size_t position = find(node);
    GEORED_ENSURE(position != npos,
                  "node " + std::to_string(node) + " is not a candidate data center");
    return position;
  }

  /// Squared distance from `node`'s coordinates to the dim() components at
  /// `query`, with Point::distance_squared_to's arithmetic.
  double distance_squared(topo::NodeId node, const double* query) const {
    return coords_.distance_squared(position_of(node), query);
  }

 private:
  static constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  struct Slot {
    topo::NodeId node = 0;
    std::uint32_t position = kEmpty;
  };

  /// Fibonacci hashing into the top bits: consecutive ids spread over the
  /// slots instead of clustering.
  std::size_t home_slot(topo::NodeId node) const {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(node) * 0x9e3779b97f4a7c15ULL) >>
                                    shift_);
  }

  std::vector<CandidateInfo> candidates_;
  PointSet coords_;
  /// Open addressing with linear probing: a power of two of at least twice
  /// the candidate count, so every probe sequence ends at an empty slot.
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
};

}  // namespace geored::place
