// ReplicatedKvStore: a Dynamo-style geo-replicated key-value store built on
// the paper's placement machinery — the kind of system ([4],[5],[6] in the
// paper) the replica placement technique is meant to serve, and the
// "quorum-based approaches" its future-work section points at.
//
//   * Objects are hashed into groups; each group is the paper's "virtual
//     object" (§II-A) with its own ReplicationManager: per-replica
//     micro-cluster summaries, macro-clustering epochs, migration gating.
//   * Writes go to all n replicas of the group and complete after w acks;
//     reads query the r closest replicas and return the newest version
//     (last-writer-wins with Lamport versions). r + w > n gives quorum
//     intersection; r + w <= n trades freshness for latency, and the store
//     counts the stale reads that result.
//   * Group migrations triggered by placement epochs copy the group's data
//     to the new replicas over the simulated network, charged as migration
//     traffic; reads racing a migration observe realistic transient
//     staleness.
//
// Everything runs on the discrete-event simulator; the store is
// single-threaded by construction like every geored component.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/fleet_manager.h"
#include "serve/latency_histogram.h"
#include "core/replication_manager.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "store/object_table.h"
#include "store/storage_node.h"
#include "store/version.h"

namespace geored::store {

struct QuorumConfig {
  std::size_t n = 3;  ///< replicas per group (the placement degree k)
  std::size_t r = 1;  ///< replicas a read must hear from
  std::size_t w = 2;  ///< replicas a write must hear from
};

/// Header bytes on every store message.
inline constexpr std::size_t kRequestOverheadBytes = 64;

struct StoreConfig {
  QuorumConfig quorum;
  std::size_t groups = 16;            ///< object groups ("virtual objects")
  core::ManagerConfig manager;        ///< per-group placement parameters
                                      ///< (replication_degree is overridden by quorum.n)

  /// Read repair (Dynamo's anti-entropy on the read path): when a quorum
  /// read observes replicas with divergent versions, the newest value is
  /// asynchronously written back to the stale replicas contacted. Converges
  /// weakly-consistent configurations without waiting for the next write.
  bool read_repair = false;
};

struct GetResult {
  VersionedValue value;
  double latency_ms = 0.0;
  /// True when a strictly newer version had already been committed when
  /// this read started (measured against the oracle commit log).
  bool stale = false;
};

struct PutResult {
  Version version;
  double latency_ms = 0.0;
};

class ReplicatedKvStore {
 public:
  ReplicatedKvStore(sim::Simulator& simulator, sim::Network& network,
                    std::vector<place::CandidateInfo> candidates, StoreConfig config,
                    std::uint64_t seed);

  /// Which group an object belongs to (stable hash).
  std::uint32_t group_of(ObjectId id) const;

  const place::Placement& placement_of_group(std::uint32_t group) const;
  const core::ReplicationManager& manager_of_group(std::uint32_t group) const;

  /// Asynchronous write: completes (calls `done`) after w replica acks.
  /// `data` is the value's shared Payload (a string converts into one,
  /// copying its bytes once); no replica, message or later read copies the
  /// bytes again. Throws std::invalid_argument, with no state changed, for a
  /// client that is not a topology node or coordinates of the wrong
  /// dimension (get() likewise).
  void put(topo::NodeId client, const Point& client_coords, ObjectId id, Payload data,
           std::function<void(const PutResult&)> done);

  /// Asynchronous read: completes after r replica replies with the newest
  /// version observed among them.
  void get(topo::NodeId client, const Point& client_coords, ObjectId id,
           std::function<void(const GetResult&)> done);

  /// Runs one placement epoch for every group (via the FleetManager, one
  /// parallel task per group) and performs the resulting data migrations
  /// over the network in group order. Returns one report per group.
  std::vector<core::EpochReport> run_placement_epochs();

  // --- Observability ----------------------------------------------------
  const OnlineStats& get_latency() const { return get_latency_; }
  const OnlineStats& put_latency() const { return put_latency_; }
  /// Full latency distributions for tail accounting: OnlineStats carries
  /// mean/variance, the histograms carry p50/p99/p999 (byte-stable quantile
  /// buckets, mergeable across stores — see serve/latency_histogram.h).
  const serve::LatencyHistogram& get_latency_histogram() const {
    return get_latency_histogram_;
  }
  const serve::LatencyHistogram& put_latency_histogram() const {
    return put_latency_histogram_;
  }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t stale_reads() const { return stale_reads_; }
  std::uint64_t not_found_reads() const { return not_found_reads_; }
  std::uint64_t read_repairs() const { return read_repairs_; }
  /// Storage replica state of one data center (tests / tooling).
  const StorageNode& storage_at(topo::NodeId node) const;

 private:
  /// An in-flight put. It lives in put_ops_ from put() until the last of
  /// its n acks arrives; every network callback of the op captures only
  /// {this, op slot, replica}, which std::function stores inline.
  struct PutOp {
    ObjectId id = 0;
    std::uint32_t group = 0;
    topo::NodeId client = 0;
    std::size_t acks = 0;         ///< acks received
    std::size_t outstanding = 0;  ///< deliveries and acks still in flight
    double started_at = 0.0;
    VersionedValue value;         ///< shared by every replica's write
    std::function<void(const PutResult&)> done;
  };
  /// An in-flight get, alive until its last reply (and any read repair it
  /// sends) has arrived. Its vectors keep their capacity across reuse.
  struct GetOp {
    ObjectId id = 0;
    std::uint32_t group = 0;
    topo::NodeId client = 0;
    std::size_t outstanding = 0;  ///< requests, replies and repairs in flight
    double started_at = 0.0;
    Version committed_at_start;
    std::vector<topo::NodeId> targets;  ///< replica per request index
    std::vector<VersionedValue> read;   ///< what targets[i] returned
    std::vector<std::pair<topo::NodeId, Version>> replies;  ///< arrival order
    VersionedValue best;
    std::function<void(const GetResult&)> done;
  };
  /// Reused per-op state plus a free list of released slots. A deque, so
  /// growing it never moves the records of ops in flight. When the last op
  /// in flight is released, a slab holding more than twice the records in
  /// flight at its peak since the previous drain shrinks to that peak, so a
  /// burst (a bulk load) gives its records back, and a load whose peak
  /// repeats keeps its records and never reallocates.
  template <typename Op>
  struct OpSlab {
    std::deque<Op> ops;
    std::vector<std::uint32_t> free;
    /// Most ops in flight at once since the previous drain.
    std::size_t peak = 0;
    std::uint32_t acquire();
    /// Frees `slot`; may shrink the slab, so the caller must hold no
    /// reference into it afterwards.
    void release(std::uint32_t slot);
  };

  /// Rejects a call whose client is not a topology node or whose
  /// coordinates do not match the candidates' dimension, before any state
  /// (access counts, clocks, stats) changes.
  void validate_client(topo::NodeId client, const Point& client_coords) const;
  StorageNode& storage_of(topo::NodeId node);
  /// The placement members sorted by predicted distance to `coords`
  /// (ties by node id), in a reused buffer.
  const std::vector<std::pair<double, topo::NodeId>>& rank_replicas(
      const place::Placement& placement, const Point& coords);
  void deliver_put(std::uint32_t slot, topo::NodeId replica);
  void ack_put(std::uint32_t slot);
  void serve_get(std::uint32_t slot, std::uint32_t index);
  void reply_get(std::uint32_t slot, std::uint32_t index);
  void repair(std::uint32_t slot, topo::NodeId replica);
  void migrate_group(std::uint32_t group, const place::Placement& old_placement,
                     const place::Placement& new_placement);

  sim::Simulator& simulator_;
  sim::Network& network_;
  StoreConfig config_;
  std::uint64_t seed_;

  /// Per-group placement pipelines; the store's groups are the fleet's, and
  /// so is the candidate table (fleet_->candidates()).
  std::unique_ptr<core::FleetManager> fleet_;
  /// One storage replica per candidate, indexed by the candidate table's
  /// position (a repeated candidate shares its first entry's storage).
  std::vector<StorageNode> storage_;
  /// One writer clock per topology node; an unused clock is a fresh one.
  std::vector<LamportClock> clocks_;

  OpSlab<PutOp> put_ops_;
  OpSlab<GetOp> get_ops_;
  std::vector<std::pair<double, topo::NodeId>> ranked_;

  /// Oracle commit log for staleness accounting: newest version whose put
  /// has completed, per object.
  ObjectTable<Version> committed_;

  OnlineStats get_latency_;
  OnlineStats put_latency_;
  serve::LatencyHistogram get_latency_histogram_;
  serve::LatencyHistogram put_latency_histogram_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t stale_reads_ = 0;
  std::uint64_t not_found_reads_ = 0;
  std::uint64_t read_repairs_ = 0;
};

}  // namespace geored::store
