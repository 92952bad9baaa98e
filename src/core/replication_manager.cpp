#include "core/replication_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/ensure.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "placement/evaluate.h"
#include "placement/random_placement.h"

namespace geored::core {

namespace {

/// Client coordinates must live in the candidates' space: a non-finite
/// component would poison the recording replica's centroids, and a foreign
/// dimension would wedge every later epoch. Checked before anything is
/// staged or counted.
void ensure_client_coords(const double* values, std::size_t rows, std::size_t dim,
                          std::size_t expected_dim) {
  GEORED_ENSURE(dim == expected_dim, "client coordinates must have the candidates' dimension");
  const bool finite =
      std::all_of(values, values + rows * dim, [](double v) { return std::isfinite(v); });
  GEORED_ENSURE(finite, "client coordinates must be finite");
}

/// A checkpoint count must fit the bytes left at `min_bytes` per entry
/// before it sizes an allocation: a corrupt count throws, never asks for
/// gigabytes.
void ensure_count_fits(std::uint32_t count, std::size_t min_bytes, const ByteReader& reader,
                       const char* what) {
  if (static_cast<std::size_t>(count) * min_bytes > reader.remaining()) {
    throw WireFormatError(std::string("corrupt checkpoint: ") + what + " " +
                          std::to_string(count) + " cannot fit in the " +
                          std::to_string(reader.remaining()) + " bytes remaining");
  }
}

}  // namespace

ReplicationManager::ReplicationManager(std::vector<place::CandidateInfo> candidates,
                                       ManagerConfig config, std::uint64_t seed)
    : ReplicationManager(std::move(candidates), config, seed,
                         std::make_unique<DirectCollector>()) {}

ReplicationManager::ReplicationManager(std::vector<place::CandidateInfo> candidates,
                                       ManagerConfig config, std::uint64_t seed,
                                       std::unique_ptr<SummaryCollector> collector)
    : candidates_(std::move(candidates)),
      config_(config),
      seed_(seed),
      degree_(config.replication_degree),
      collector_(std::move(collector)) {
  GEORED_ENSURE(!candidates_.empty(), "manager needs at least one candidate data center");
  coord_dim_ = candidates_.front().coords.dim();
  for (const auto& candidate : candidates_) {
    GEORED_ENSURE(candidate.coords.dim() == coord_dim_,
                  "candidate coordinates must share one dimension");
  }
  GEORED_ENSURE(config_.replication_degree >= 1, "replication degree must be >= 1");
  GEORED_ENSURE(config_.min_degree >= 1 && config_.min_degree <= config_.max_degree,
                "degree bounds must satisfy 1 <= min <= max");
  GEORED_ENSURE(collector_ != nullptr, "the summary collector must be set");
  GEORED_ENSURE(config_.ingest_batch_grain >= 1, "ingest_batch_grain must be >= 1");
  GEORED_ENSURE(config_.ingest_shards >= 1, "ingest_shards must be >= 1");
  degree_ = std::clamp(degree_, config_.min_degree, config_.max_degree);
  ingest_shards_.reserve(config_.ingest_shards);
  for (std::size_t s = 0; s < config_.ingest_shards; ++s) {
    ingest_shards_.push_back(std::make_unique<IngestShard>());
  }

  place::PlacementInput input;
  input.candidates = candidates_;
  input.k = degree_;
  input.seed = seed_;
  placement_ = place::RandomPlacement().place(input);
  for (const auto node : placement_) {
    summarizers_.emplace(node, cluster::MicroClusterSummarizer(config_.summarizer));
  }
}

void ReplicationManager::drop_retired_staging(
    std::map<topo::NodeId, PendingBatch>& pending) const {
  // Staging lives only as long as its replica. Callers run after the flush,
  // so every batch dropped here is already empty.
  std::erase_if(pending, [this](const auto& entry) {
    const bool retired = !summarizers_.contains(entry.first);
    GEORED_DCHECK(!retired || entry.second.coords.empty(),
                  "a retired replica's staging must be flushed before it is dropped");
    return retired;
  });
}

const place::CandidateInfo& ReplicationManager::candidate_info(topo::NodeId node) const {
  const auto it = std::find_if(candidates_.begin(), candidates_.end(),
                               [node](const place::CandidateInfo& c) { return c.node == node; });
  GEORED_ENSURE(it != candidates_.end(), "node is not a candidate data center");
  return *it;
}

topo::NodeId ReplicationManager::serve(const Point& client_coords, double data_weight) {
  GEORED_CHECK(!placement_.empty(), "manager has no replicas");
  const auto best = route(client_coords);
  GEORED_ENSURE(best.has_value(), "no replica is at a finite distance from the client");
  record_access(*best, client_coords, data_weight);
  return *best;
}

std::optional<topo::NodeId> ReplicationManager::route(const Point& client_coords,
                                                      const std::set<topo::NodeId>& down) const {
  ensure_client_coords(client_coords.values().data(), 1, client_coords.dim(), coord_dim_);
  std::optional<topo::NodeId> best;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const auto node : placement_) {
    if (down.contains(node)) continue;
    const double dist = client_coords.distance_squared_to(candidate_info(node).coords);
    if (dist < best_dist) {
      best_dist = dist;
      best = node;
    }
  }
  return best;
}

void ReplicationManager::record_access(topo::NodeId replica, const Point& client_coords,
                                       double data_weight) {
  const auto it = summarizers_.find(replica);
  GEORED_ENSURE(it != summarizers_.end(), "node does not currently hold a replica");
  GEORED_ENSURE(std::isfinite(data_weight) && data_weight >= 0.0,
                "access weight must be finite and non-negative");
  ensure_client_coords(client_coords.values().data(), 1, client_coords.dim(), coord_dim_);
  IngestShard& shard = shard_of(replica);
  const MutexLock lock(shard.mutex);
  PendingBatch& batch = shard.pending[replica];
  batch.coords.push_back(client_coords);
  batch.weights.push_back(data_weight);
  ++shard.accesses;
  if (batch.coords.size() >= config_.ingest_batch_grain) {
    // Grain-triggered ingestion under the shard lock is race-free: this
    // replica's summarizer is only ever written under this same shard's
    // mutex (replica -> shard is a fixed mapping) or with every shard held.
    it->second.add_batch(batch.coords, batch.weights);
    batch.coords.clear();
    batch.weights.clear();
  }
}

void ReplicationManager::record_access_batch(topo::NodeId replica, const PointSet& client_coords,
                                             std::span<const double> data_weights) {
  const auto it = summarizers_.find(replica);
  GEORED_ENSURE(it != summarizers_.end(), "node does not currently hold a replica");
  GEORED_ENSURE(data_weights.empty() || data_weights.size() == client_coords.size(),
                "access weight count must match coordinate row count");
  for (const double weight : data_weights) {
    GEORED_ENSURE(std::isfinite(weight) && weight >= 0.0,
                  "access weight must be finite and non-negative");
  }
  const std::size_t n = client_coords.size();
  if (n == 0) return;
  ensure_client_coords(client_coords.row(0), n, client_coords.dim(), coord_dim_);
  IngestShard& shard = shard_of(replica);
  const MutexLock lock(shard.mutex);
  shard.accesses += n;
  const auto staged = shard.pending.find(replica);
  const std::size_t staged_rows =
      staged == shard.pending.end() ? 0 : staged->second.coords.size();
  if (staged_rows + n < config_.ingest_batch_grain) {
    PendingBatch& batch = shard.pending[replica];
    batch.coords.append_rows(client_coords.row(0), n, client_coords.dim());
    if (data_weights.empty()) {
      batch.weights.insert(batch.weights.end(), n, 1.0);
    } else {
      batch.weights.insert(batch.weights.end(), data_weights.begin(), data_weights.end());
    }
    return;
  }
  // The grain is reached: ingest the staged tail, then the caller's rows in
  // place, with no copy. add_batch(A); add_batch(B) equals add_batch(A ++ B)
  // (both are per-row add in order), so the summary does not depend on
  // where the split falls. Same single-writer argument as record_access:
  // the shard mutex is the one lock this replica's summarizer is ever
  // written under.
  if (staged_rows > 0) {
    it->second.add_batch(staged->second.coords, staged->second.weights);
    staged->second.coords.clear();
    staged->second.weights.clear();
  }
  it->second.add_batch(client_coords, data_weights);
}

// Thread-safety analysis is disabled here because the flush acquires a
// runtime-sized family of shard mutexes in a loop — a pattern TSA cannot
// verify (it reasons about lexical capability expressions, not loop-carried
// lock sets). The discipline it would otherwise check is simple and local:
// every shard mutex is acquired in ascending index order (the single global
// acquisition order, so flushes never deadlock each other or the record
// paths, which take exactly one shard), all staged state is read only while
// every lock is held, and every lock is released on every exit — a throwing
// ingest included, or every later record, epoch and checkpoint call would
// wait on the held shards forever.
void ReplicationManager::flush_ingest() const GEORED_NO_THREAD_SAFETY_ANALYSIS {
  struct HeldShards {
    const std::vector<std::unique_ptr<IngestShard>>& shards;
    std::size_t held = 0;
    ~HeldShards() GEORED_NO_THREAD_SAFETY_ANALYSIS {
      while (held > 0) shards[--held]->mutex.unlock();
    }
  } locks{ingest_shards_};
  for (; locks.held < ingest_shards_.size(); ++locks.held) {
    ingest_shards_[locks.held]->mutex.lock();
  }
  // Gather the replicas with staged accesses across all shards, sorted by
  // node id, so the work list — and thus which summarizer each parallel
  // chunk touches — is deterministic and independent of the shard count
  // (each replica lives in exactly one shard, so the merge is a disjoint
  // union). Each replica's stream ingests sequentially in recorded order;
  // replicas are independent, so any thread count yields bytewise the same
  // summaries. Every shard mutex stays held across the parallel ingest
  // (chunks never take them), so concurrent record calls wait for the
  // flush instead of staging into batches mid-drain.
  struct WorkItem {
    topo::NodeId node;
    PendingBatch* batch;
    cluster::MicroClusterSummarizer* summarizer;
  };
  std::vector<WorkItem> work;
  for (auto& shard : ingest_shards_) {
    for (auto& [node, batch] : shard->pending) {
      if (batch.coords.empty()) continue;
      work.push_back({node, &batch, &summarizers_.at(node)});
    }
  }
  std::sort(work.begin(), work.end(),
            [](const WorkItem& a, const WorkItem& b) { return a.node < b.node; });
  if (!work.empty()) {
    parallel_for(
        work.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            work[i].summarizer->add_batch(work[i].batch->coords, work[i].batch->weights);
            work[i].batch->coords.clear();
            work[i].batch->weights.clear();
          }
        },
        /*min_parallel=*/2);
  }
}

std::uint64_t ReplicationManager::epoch_accesses() const {
  std::uint64_t total = 0;
  for (const auto& shard : ingest_shards_) {
    const MutexLock lock(shard->mutex);
    total += shard->accesses;
  }
  return total;
}

const std::vector<cluster::MicroCluster>& ReplicationManager::summary_of(
    topo::NodeId replica) const {
  flush_ingest();
  const auto it = summarizers_.find(replica);
  GEORED_ENSURE(it != summarizers_.end(), "node does not currently hold a replica");
  return it->second.clusters();
}

double ReplicationManager::estimate_average_delay(
    const place::Placement& placement,
    const std::vector<cluster::MicroCluster>& summaries) const {
  // Per-access delay estimated from the summaries themselves: each
  // micro-cluster's population is assumed to sit at its centroid and read
  // from the nearest replica (in coordinate space).
  double total = 0.0, accesses = 0.0;
  for (const auto& micro : summaries) {
    if (micro.count() == 0) continue;
    const Point centroid = micro.centroid();
    double best = std::numeric_limits<double>::infinity();
    for (const auto node : placement) {
      best = std::min(best, centroid.distance_to(candidate_info(node).coords));
    }
    total += best * static_cast<double>(micro.count());
    accesses += static_cast<double>(micro.count());
  }
  return accesses > 0.0 ? total / accesses : 0.0;
}

void ReplicationManager::maybe_adjust_degree(std::uint64_t epoch_accesses) {
  if (!config_.dynamic_degree) return;
  const auto accesses = static_cast<double>(epoch_accesses);
  const auto replicas = static_cast<double>(degree_);
  if (accesses > config_.grow_accesses_per_replica * replicas &&
      degree_ < config_.max_degree) {
    ++degree_;
  } else if (accesses < config_.shrink_accesses_per_replica * replicas &&
             degree_ > config_.min_degree) {
    --degree_;
  }
}

void ReplicationManager::set_degree(std::size_t degree) {
  GEORED_ENSURE(degree >= 1, "replication degree must be >= 1");
  degree_ = std::clamp(degree, config_.min_degree, config_.max_degree);
  budget_granted_ = true;
}

void ReplicationManager::set_budget_weight(double weight) {
  GEORED_ENSURE(std::isfinite(weight) && weight > 0.0,
                "budget weight must be positive and finite");
  budget_weight_ = weight;
}

std::vector<double> ReplicationManager::delay_by_degree_curve(std::size_t min_degree,
                                                              std::size_t max_degree) const {
  GEORED_ENSURE(min_degree >= 1 && min_degree <= max_degree,
                "degree bounds must satisfy 1 <= min <= max");
  flush_ingest();
  std::vector<cluster::MicroCluster> summaries;
  double weight = 0.0;
  for (const auto& [node, summarizer] : summarizers_) {
    for (const auto& micro : summarizer.clusters()) {
      summaries.push_back(micro);
      weight += static_cast<double>(micro.count());
    }
  }
  // A cold-start probe of the registry's online-clustering strategy; the
  // warm-start centroids are left untouched so probing cannot perturb them.
  const auto probe = place::make_strategy("online");
  std::vector<double> curve;
  curve.reserve(max_degree - min_degree + 1);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = min_degree; k <= max_degree; ++k) {
    place::PlacementInput input;
    input.candidates = candidates_;
    input.k = k;
    input.summaries = summaries;
    // A seed stream distinct from the epoch proposals', so the probe and
    // the next run_epoch never correlate.
    input.seed = seed_ ^ (0xd1b54a32d192ed03ULL + epoch_index_);
    const double per_access = estimate_average_delay(probe->place(input), summaries);
    // More replicas can only help; clustering noise may say otherwise, so
    // each level is floored by its predecessors — the allocator requires a
    // non-increasing curve.
    best = std::min(best, per_access);
    // Scaled by summarized access weight: the budget allocator compares
    // absolute delay totals across groups, and hot objects matter more.
    curve.push_back(best * weight);
  }
  return curve;
}

void ReplicationManager::save(ByteWriter& writer) const {
  flush_ingest();
  writer.write_u32(kCheckpointMagic);
  writer.write_u32(kCheckpointVersion);
  writer.write_u64(epoch_index_);
  writer.write_u64(this->epoch_accesses());
  writer.write_u64(degree_);
  // v2: the external budget state, so a restored stand-by resumes a fleet
  // allocator's decisions instead of reverting to the configured defaults.
  writer.write_u32(budget_granted_ ? 1 : 0);
  writer.write_f64(budget_weight_);
  writer.write_u32(static_cast<std::uint32_t>(placement_.size()));
  for (const auto node : placement_) writer.write_u32(node);
  for (const auto node : placement_) {
    summarizers_.at(node).serialize(writer);
  }
  writer.write_u32(static_cast<std::uint32_t>(warm_centroids_.size()));
  for (const auto& centroid : warm_centroids_) {
    writer.write_f64_vector(centroid.values());
  }
}

void ReplicationManager::restore(ByteReader& reader) {
  // Drain staged accesses into the summarizers being replaced, matching the
  // unbatched semantics where every recorded access had been ingested by
  // the time restore ran.
  flush_ingest();
  const std::uint32_t magic = reader.read_u32();
  GEORED_ENSURE(magic == kCheckpointMagic,
                "not a replication-manager checkpoint (bad magic)");
  const std::uint32_t version = reader.read_u32();
  GEORED_ENSURE(version >= 1 && version <= kCheckpointVersion,
                "unsupported checkpoint format version " + std::to_string(version) +
                    " (this build reads versions 1.." + std::to_string(kCheckpointVersion) + ")");
  const std::uint64_t epoch_index = reader.read_u64();
  const std::uint64_t epoch_accesses = reader.read_u64();
  const auto degree = static_cast<std::size_t>(reader.read_u64());
  GEORED_ENSURE(degree >= 1, "corrupt checkpoint: zero degree");
  // v1 predates external budget state; restore the documented defaults
  // (no grant recorded, neutral weight).
  bool budget_granted = false;
  double budget_weight = 1.0;
  if (version >= 2) {
    budget_granted = reader.read_u32() != 0;
    budget_weight = reader.read_f64();
    GEORED_ENSURE(std::isfinite(budget_weight) && budget_weight > 0.0,
                  "corrupt checkpoint: budget weight must be positive and finite");
  }
  // Counts are bounded by the bytes left before they size anything: 4 bytes
  // per node id, and at least a 4-byte length prefix per warm centroid.
  const std::uint32_t placement_size = reader.read_u32();
  ensure_count_fits(placement_size, sizeof(std::uint32_t), reader, "placement size");
  // A placement must name at least one replica, each once: an empty one
  // cannot serve, and a repeated node would drop the second copy's
  // summaries. Its size may differ from the degree — a checkpoint taken
  // before a set_degree took effect holds the old size.
  GEORED_ENSURE(placement_size >= 1, "corrupt checkpoint: empty placement");
  place::Placement placement;
  placement.reserve(placement_size);
  for (std::uint32_t i = 0; i < placement_size; ++i) {
    const topo::NodeId node = reader.read_u32();
    candidate_info(node);  // throws for unknown candidates
    GEORED_ENSURE(std::find(placement.begin(), placement.end(), node) == placement.end(),
                  "corrupt checkpoint: placement repeats node " + std::to_string(node));
    placement.push_back(node);
  }
  // Summaries and warm centroids of another dimension would wedge the next
  // flush or epoch, so they are rejected here, before anything is committed.
  std::map<topo::NodeId, cluster::MicroClusterSummarizer> summarizers;
  for (const auto node : placement) {
    cluster::MicroClusterSummarizer summarizer(config_.summarizer);
    for (const auto& micro : cluster::MicroClusterSummarizer::deserialize_clusters(reader)) {
      GEORED_ENSURE(micro.sum().dim() == coord_dim_,
                    "checkpoint summaries must have the candidates' dimension");
      summarizer.merge_cluster(micro);
    }
    summarizers.emplace(node, std::move(summarizer));
  }
  const std::uint32_t centroid_count = reader.read_u32();
  ensure_count_fits(centroid_count, sizeof(std::uint32_t), reader, "warm centroid count");
  std::vector<Point> centroids;
  centroids.reserve(centroid_count);
  for (std::uint32_t i = 0; i < centroid_count; ++i) {
    centroids.emplace_back(reader.read_f64_vector());
    GEORED_ENSURE(centroids.back().dim() == coord_dim_,
                  "checkpoint warm centroids must have the candidates' dimension");
  }
  // All parsed and validated: commit. The restored access count lands in
  // shard 0 (the sum across shards is the observable value; its split is
  // staging layout, not state).
  epoch_index_ = epoch_index;
  degree_ = degree;
  budget_granted_ = budget_granted;
  budget_weight_ = budget_weight;
  placement_ = std::move(placement);
  summarizers_ = std::move(summarizers);
  for (std::size_t s = 0; s < ingest_shards_.size(); ++s) {
    const MutexLock lock(ingest_shards_[s]->mutex);
    ingest_shards_[s]->accesses = s == 0 ? epoch_accesses : 0;
    drop_retired_staging(ingest_shards_[s]->pending);
  }
  warm_centroids_ = std::move(centroids);
}

EpochReport ReplicationManager::run_epoch(const std::set<topo::NodeId>& excluded) {
  EpochReport report;
  {
    const StageTimer timer(report.stages.ingest_flush_ms);
    flush_ingest();
  }
  report.old_placement = placement_;
  report.epoch_accesses = epoch_accesses();

  // Candidates usable this epoch.
  std::vector<place::CandidateInfo> usable;
  usable.reserve(candidates_.size());
  for (const auto& candidate : candidates_) {
    if (!excluded.contains(candidate.node)) usable.push_back(candidate);
  }
  GEORED_ENSURE(!usable.empty(), "every candidate data center is excluded");
  bool current_placement_impaired = false;
  for (const auto node : placement_) {
    if (excluded.contains(node)) current_placement_impaired = true;
  }

  // 1. Demand-adaptive degree. Adjusted before collection so protocol
  //    collectors see the k actually in force this epoch; collection reads
  //    neither the degree nor the access counter, so the order cannot
  //    change results.
  maybe_adjust_degree(report.epoch_accesses);
  report.degree = degree_;

  // 2. Collect summaries from every replica (and account their wire size —
  //    this is the O(km) bandwidth of Table II). A replica on an excluded
  //    (failed) data center cannot report: its summary is skipped and the
  //    source accounted as lost, exactly like a collection-protocol loss —
  //    the epoch proceeds on what the live replicas know.
  std::vector<SummarySource> sources;
  sources.reserve(summarizers_.size());
  std::size_t excluded_sources = 0;
  for (const auto& [node, summarizer] : summarizers_) {
    if (excluded.contains(node)) {
      ++excluded_sources;
      continue;
    }
    sources.push_back({node, summarizer.clusters()});
  }
  const std::uint64_t epoch_seed = seed_ ^ (0x9e3779b97f4a7c15ULL + epoch_index_);
  CollectedSummaries collected = [&] {
    const StageTimer timer(report.stages.collect_ms);
    return collector_->collect(sources, {usable, degree_, epoch_seed});
  }();
  report.summary_bytes = collected.summary_bytes;
  report.stale_sources = collected.stale_sources.size();
  report.lost_sources = collected.lost_sources.size() + excluded_sources;

  // 3. Propose a placement by online clustering (Algorithm 1) over the
  //    usable candidates — unless the collection protocol already agreed on
  //    one (decentralized collection decides in-protocol). The macro
  //    centroids are kept even when warm starts are off, so checkpoints
  //    capture them either way.
  if (collected.agreed_proposal.has_value()) {
    report.proposed_placement = std::move(*collected.agreed_proposal);
  } else {
    const StageTimer timer(report.stages.propose_ms);
    place::PlacementInput input;
    input.candidates = usable;
    input.k = degree_;
    input.summaries = collected.summaries;
    input.seed = epoch_seed;
    place::OnlineClusteringConfig strategy = config_.strategy;
    if (config_.warm_start_macro_clusters) strategy.warm_start_centroids = warm_centroids_;
    place::OnlineClusteringDetails details =
        place::OnlineClusteringPlacement(strategy).place_detailed(input);
    warm_centroids_ = std::move(details.macro_centroids);
    report.proposed_placement = std::move(details.placement);
  }

  // 4. Migration gate.
  {
    const StageTimer timer(report.stages.gate_ms);
    report.old_estimated_delay_ms = estimate_average_delay(placement_, collected.summaries);
    report.new_estimated_delay_ms =
        estimate_average_delay(report.proposed_placement, collected.summaries);
    std::size_t moved = 0;
    for (const auto node : report.proposed_placement) {
      if (std::find(placement_.begin(), placement_.end(), node) == placement_.end()) ++moved;
    }
    report.replicas_moved = moved;
    report.decision = decide_migration(config_.migration, report.old_estimated_delay_ms,
                                       report.new_estimated_delay_ms, moved);
  }

  // 5. Adopt or retain. A degree change must be applied even if the gate
  // rejects the proposal's quality gain; in that case adopt the proposal
  // anyway (capacity change dominates cost considerations here, as in the
  // paper's discussion). Likewise when a current replica sits on an
  // excluded (failed) data center: availability overrides the cost gate.
  // Retained summaries age instead, so stale populations fade (recency).
  const bool degree_changed = report.proposed_placement.size() != placement_.size();
  {
    const StageTimer timer(report.stages.adopt_ms);
    if (report.decision.migrate || degree_changed || current_placement_impaired) {
      placement_ = report.proposed_placement;
      summarizers_ = redistribute_to_nearest(placement_, collected.summaries, candidates_,
                                             config_.summarizer);
    } else {
      for (auto& [node, summarizer] : summarizers_) summarizer.decay();
    }
  }
  report.adopted_placement = placement_;

  for (const auto& shard : ingest_shards_) {
    const MutexLock lock(shard->mutex);
    shard->accesses = 0;
    drop_retired_staging(shard->pending);
  }
  ++epoch_index_;
  return report;
}

}  // namespace geored::core
