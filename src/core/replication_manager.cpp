#include "core/replication_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "common/ensure.h"
#include "common/random.h"
#include "common/serialize.h"
#include "cluster/moment_store.h"
#include "placement/evaluate.h"
#include "placement/online_clustering.h"
#include "placement/random_placement.h"

namespace geored::core {

namespace {

/// Client coordinates must live in the candidates' space: a non-finite
/// component would poison the recording replica's centroids, and a foreign
/// dimension would wedge every later epoch. Checked before anything is
/// ingested or counted.
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

/// A restored micro-cluster, row i of `clusters`, must describe a set of
/// points (per dimension count·sum2 >= sum², the invariant the moment debug
/// checks assert) and keep what an epoch derives from it finite: its
/// centroid, its variance, and its squared distance to every candidate. The
/// wire checks already hold each stored moment finite, but a sum with a
/// flipped exponent bit puts the centroid so far out that every squared
/// distance overflows, and the next epoch runs out of candidates to assign.
void ensure_moments_usable(const cluster::ClusterBuffer& clusters, std::size_t i,
                           const place::CandidateTable& candidates) {
  const cluster::ClusterView rows = clusters.view();
  const std::span<const double> sum = rows.sum(i);
  const std::span<const double> sum2 = rows.sum2(i);
  GEORED_ENSURE(cluster::detail::moment_row_consistent(rows.count(i), sum.data(), sum2.data(),
                                                       sum.size()),
                "corrupt checkpoint: a summary's moments describe no set of points");
  const double* centroid = clusters.centroid(i);
  const auto n = static_cast<double>(rows.count(i));
  double variance = 0.0;
  for (std::size_t d = 0; d < sum.size(); ++d) {
    variance += sum2[d] / n - centroid[d] * centroid[d];
  }
  GEORED_ENSURE(std::all_of(centroid, centroid + sum.size(),
                            [](double v) { return std::isfinite(v); }) &&
                    std::isfinite(variance),
                "corrupt checkpoint: a summary's centroid or variance is not finite");
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    GEORED_ENSURE(
        std::isfinite(candidates.coords().distance_squared(c, centroid)),
        "corrupt checkpoint: a summary's squared distance to a candidate is not finite");
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
    : ReplicationManager(std::make_shared<const place::CandidateTable>(std::move(candidates)),
                         config, seed, std::move(collector)) {}

ReplicationManager::ReplicationManager(std::shared_ptr<const place::CandidateTable> candidates,
                                       ManagerConfig config, std::uint64_t seed,
                                       std::unique_ptr<SummaryCollector> collector)
    : candidates_(std::move(candidates)),
      config_(config),
      seed_(seed),
      degree_(config.replication_degree),
      collector_(std::move(collector)) {
  GEORED_ENSURE(candidates_ != nullptr, "the candidate table must be set");
  GEORED_ENSURE(config_.replication_degree >= 1, "replication degree must be >= 1");
  GEORED_ENSURE(config_.min_degree >= 1 && config_.min_degree <= config_.max_degree,
                "degree bounds must satisfy 1 <= min <= max");
  GEORED_ENSURE(collector_ != nullptr, "the summary collector must be set");
  degree_ = std::clamp(degree_, config_.min_degree, config_.max_degree);

  placement_ = place::random_placement(candidates_->candidates(), degree_, seed_);
  for (const auto node : placement_) {
    summarizers_.emplace(node, cluster::MicroClusterSummarizer(config_.summarizer));
  }
}

topo::NodeId ReplicationManager::serve(const Point& client_coords) {
  GEORED_CHECK(!placement_.empty(), "manager has no replicas");
  const auto best = route(client_coords);
  GEORED_ENSURE(best.has_value(), "no replica is at a finite distance from the client");
  record_access(*best, client_coords);
  return *best;
}

std::optional<topo::NodeId> ReplicationManager::route(const Point& client_coords,
                                                      const std::set<topo::NodeId>& down) const {
  const double* client = client_coords.values().data();
  ensure_client_coords(client, 1, client_coords.dim(), candidates_->dim());
  std::optional<topo::NodeId> best;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const auto node : placement_) {
    if (down.contains(node)) continue;
    // Row minus client, where Point::distance_squared_to takes client minus
    // row: a negated difference squares to the same bits.
    const double dist = candidates_->distance_squared(node, client);
    if (dist < best_dist) {
      best_dist = dist;
      best = node;
    }
  }
  return best;
}

void ReplicationManager::record_access(topo::NodeId replica, const Point& client_coords) {
  const auto it = summarizers_.find(replica);
  GEORED_ENSURE(it != summarizers_.end(), "node does not currently hold a replica");
  ensure_client_coords(client_coords.values().data(), 1, client_coords.dim(),
                       candidates_->dim());
  const MutexLock lock(ingest_->mutex);
  it->second.add(client_coords);
  ++ingest_->accesses;
}

void ReplicationManager::record_access_batch(topo::NodeId replica,
                                             const PointSet& client_coords) {
  const auto it = summarizers_.find(replica);
  GEORED_ENSURE(it != summarizers_.end(), "node does not currently hold a replica");
  const std::size_t n = client_coords.size();
  if (n == 0) return;
  ensure_client_coords(client_coords.row(0), n, client_coords.dim(), candidates_->dim());
  const MutexLock lock(ingest_->mutex);
  it->second.add_batch(client_coords);
  ingest_->accesses += n;
}

std::uint64_t ReplicationManager::epoch_accesses() const {
  const MutexLock lock(ingest_->mutex);
  return ingest_->accesses;
}

cluster::ClusterView ReplicationManager::summary_of(topo::NodeId replica) const {
  const auto it = summarizers_.find(replica);
  GEORED_ENSURE(it != summarizers_.end(), "node does not currently hold a replica");
  return it->second.clusters();
}

double ReplicationManager::estimate_average_delay(
    const place::Placement& placement, const cluster::ClusterBuffer& summaries) const {
  // Per-access delay estimated from the summaries themselves: each
  // micro-cluster's population is assumed to sit at its centroid and read
  // from the nearest replica (in coordinate space).
  double total = 0.0, accesses = 0.0;
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const double* centroid = summaries.centroid(i);
    double best = std::numeric_limits<double>::infinity();
    for (const auto node : placement) {
      // Point::distance_to's sqrt of the squared distance (see route).
      best = std::min(best, std::sqrt(candidates_->distance_squared(node, centroid)));
    }
    const auto count = static_cast<double>(summaries.count(i));
    total += best * count;
    accesses += count;
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
  // Every level reads the same summaries, gathered once in node order, and
  // the candidates by reference; only k changes between probes.
  cluster::ClusterBuffer summaries;
  std::size_t rows = 0;
  for (const auto& [node, summarizer] : summarizers_) rows += summarizer.clusters().size();
  summaries.reserve(rows);
  for (const auto& [node, summarizer] : summarizers_) {
    summaries.append_centroids(summarizer.clusters());
  }
  double weight = 0.0;
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    weight += static_cast<double>(summaries.count(i));
  }
  // A seed stream distinct from the epoch proposals', so the probe and the
  // next run_epoch never correlate.
  const std::uint64_t seed = seed_ ^ (0xd1b54a32d192ed03ULL + epoch_index_);
  // A cold-start probe of the registry's online-clustering strategy; the
  // warm-start centroids are left untouched so probing cannot perturb them.
  const PointSet cold_start;
  std::vector<double> curve;
  curve.reserve(max_degree - min_degree + 1);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = min_degree; k <= max_degree; ++k) {
    const place::Placement placement =
        place::OnlineClusteringPlacement::place_detailed(candidates_->candidates(), k,
                                                         summaries, cold_start, seed)
            .placement;
    const double per_access = estimate_average_delay(placement, summaries);
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
  // v3: one summary frame per replica; v4: with no weights.
  for (const auto node : placement_) {
    cluster::write_clusters(writer, summarizers_.at(node).clusters());
  }
  writer.write_u32(static_cast<std::uint32_t>(warm_centroids_.size()));
  for (std::size_t c = 0; c < warm_centroids_.size(); ++c) {
    writer.write_u32(static_cast<std::uint32_t>(warm_centroids_.dim()));
    writer.write_f64s({warm_centroids_.row(c), warm_centroids_.dim()});
  }
}

void ReplicationManager::restore(ByteReader& reader) {
  commit_checkpoint(parse_checkpoint(reader));
}

ReplicationManager::Checkpoint ReplicationManager::parse_checkpoint(ByteReader& reader) const {
  Checkpoint checkpoint;
  const std::uint32_t magic = reader.read_u32();
  GEORED_ENSURE(magic == kCheckpointMagic,
                "not a replication-manager checkpoint (bad magic)");
  const std::uint32_t version = reader.read_u32();
  GEORED_ENSURE(version >= 1 && version <= kCheckpointVersion,
                "unsupported checkpoint format version " + std::to_string(version) +
                    " (this build reads versions 1.." + std::to_string(kCheckpointVersion) + ")");
  checkpoint.epoch_index = reader.read_u64();
  checkpoint.epoch_accesses = reader.read_u64();
  checkpoint.degree = static_cast<std::size_t>(reader.read_u64());
  // Every path that sets the degree keeps it within the configured bounds;
  // one outside them would have the next epoch place more replicas than
  // this manager may hold, or more than there are candidates.
  GEORED_ENSURE(
      checkpoint.degree >= config_.min_degree && checkpoint.degree <= config_.max_degree,
      "corrupt checkpoint: degree " + std::to_string(checkpoint.degree) +
          " is outside this manager's bounds [" + std::to_string(config_.min_degree) + ", " +
          std::to_string(config_.max_degree) + "]");
  // v1 predates external budget state; restore the documented defaults
  // (no grant recorded, neutral weight).
  if (version >= 2) {
    checkpoint.budget_granted = reader.read_u32() != 0;
    checkpoint.budget_weight = reader.read_f64();
    GEORED_ENSURE(std::isfinite(checkpoint.budget_weight) && checkpoint.budget_weight > 0.0,
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
  place::Placement& placement = checkpoint.placement;
  placement.reserve(placement_size);
  for (std::uint32_t i = 0; i < placement_size; ++i) {
    const topo::NodeId node = reader.read_u32();
    candidates_->position_of(node);  // throws for unknown candidates
    GEORED_ENSURE(std::find(placement.begin(), placement.end(), node) == placement.end(),
                  "corrupt checkpoint: placement repeats node " + std::to_string(node));
    placement.push_back(node);
  }
  // Summaries and warm centroids of another dimension, and summaries whose
  // moments overflow, would wedge the next epoch, and a non-finite warm
  // centroid would seed its k-means with a non-finite centroid, so they are
  // rejected here, before anything is committed. A fixed-width cluster of
  // count 0 becomes no row, so its decoder checks its dimension. Before v4
  // the summaries held weights, which their decoders check and drop.
  for (const auto node : placement) {
    const cluster::ClusterBuffer clusters =
        version >= 4   ? cluster::read_clusters(reader)
        : version == 3 ? cluster::read_v3_clusters(reader)
                       : cluster::read_fixed_width_clusters(reader, candidates_->dim());
    GEORED_ENSURE(clusters.empty() || clusters.dim() == candidates_->dim(),
                  "checkpoint summaries must have the candidates' dimension");
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      ensure_moments_usable(clusters, i, *candidates_);
    }
    cluster::MicroClusterSummarizer summarizer(config_.summarizer);
    summarizer.merge_cluster(clusters.view());
    checkpoint.summarizers.emplace(node, std::move(summarizer));
  }
  const std::uint32_t centroid_count = reader.read_u32();
  ensure_count_fits(centroid_count, sizeof(std::uint32_t), reader, "warm centroid count");
  PointSet& centroids = checkpoint.warm_centroids;
  centroids.reserve(centroid_count);
  for (std::uint32_t i = 0; i < centroid_count; ++i) {
    const std::vector<double> centroid = reader.read_f64_vector();
    GEORED_ENSURE(centroid.size() == candidates_->dim(),
                  "checkpoint warm centroids must have the candidates' dimension");
    GEORED_ENSURE(std::all_of(centroid.begin(), centroid.end(),
                              [](double v) { return std::isfinite(v); }),
                  "corrupt checkpoint: a warm centroid is not finite");
    centroids.push_back_row(centroid.data(), centroid.size());
  }
  return checkpoint;
}

void ReplicationManager::commit_checkpoint(Checkpoint checkpoint) noexcept {
  epoch_index_ = checkpoint.epoch_index;
  degree_ = checkpoint.degree;
  budget_granted_ = checkpoint.budget_granted;
  budget_weight_ = checkpoint.budget_weight;
  placement_ = std::move(checkpoint.placement);
  summarizers_ = std::move(checkpoint.summarizers);
  {
    const MutexLock lock(ingest_->mutex);
    ingest_->accesses = checkpoint.epoch_accesses;
  }
  warm_centroids_ = std::move(checkpoint.warm_centroids);
}

EpochReport ReplicationManager::run_epoch(const std::set<topo::NodeId>& excluded) {
  EpochReport report;
  report.old_placement = placement_;
  report.epoch_accesses = epoch_accesses();

  // Candidates usable this epoch: all of them, read in place, unless a
  // failed data center must be left out.
  const std::vector<place::CandidateInfo>& all = candidates_->candidates();
  const bool any_excluded = std::any_of(all.begin(), all.end(), [&](const auto& candidate) {
    return excluded.contains(candidate.node);
  });
  std::vector<place::CandidateInfo> filtered;
  if (any_excluded) {
    for (const auto& candidate : all) {
      if (!excluded.contains(candidate.node)) filtered.push_back(candidate);
    }
  }
  const std::vector<place::CandidateInfo>& usable = any_excluded ? filtered : all;
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

  // 2. Collect the replicas' centroid frames (phase 1) and account their
  //    wire size — with phase 2 below, the O(km) bandwidth of Table II. A
  //    replica on an excluded (failed) data center cannot report: its
  //    summary is skipped and the source accounted as lost, exactly like a
  //    collection-protocol loss — the epoch proceeds on what the live
  //    replicas know.
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
  const CollectionContext context{usable, degree_, epoch_seed};
  CollectedSummaries collected = [&] {
    const StageTimer timer(report.stages.collect_ms);
    return collector_->collect(sources, context);
  }();
  report.stale_sources = collected.stale_sources.size();
  report.lost_sources = collected.lost_sources.size() + excluded_sources;

  // 3. Propose a placement by online clustering (Algorithm 1) over the
  //    usable candidates, warm-started from the last epoch's macro
  //    centroids — unless the collection protocol already agreed on one
  //    (decentralized collection decides in-protocol).
  if (collected.agreed_proposal.has_value()) {
    report.proposed_placement = std::move(*collected.agreed_proposal);
  } else {
    const StageTimer timer(report.stages.propose_ms);
    place::OnlineClusteringDetails details = place::OnlineClusteringPlacement::place_detailed(
        usable, degree_, collected.summaries, warm_centroids_, epoch_seed);
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
  // An adopting epoch first plans the hand-off (each cluster's destination)
  // and then collects the second moments of the clusters that change
  // replica (phase 2); propose and gate never read them. Retained summaries
  // age instead, so stale populations fade (recency).
  const bool degree_changed = report.proposed_placement.size() != placement_.size();
  const bool adopt = report.decision.migrate || degree_changed || current_placement_impaired;
  if (adopt) {
    {
      const StageTimer timer(report.stages.adopt_ms);
      plan_handoff(report.proposed_placement, *candidates_, collected.summaries);
    }
    const StageTimer timer(report.stages.collect_ms);
    collector_->collect_moments(sources, context, collected);
  }
  report.summary_bytes = collected.summary_bytes;
  report.handoff_lost_sources = collected.handoff_lost_sources.size();
  {
    const StageTimer timer(report.stages.adopt_ms);
    if (adopt) {
      placement_ = report.proposed_placement;
      redistribute_to_nearest(placement_, collected.summaries, config_.summarizer,
                              summarizers_);
    } else {
      for (auto& [node, summarizer] : summarizers_) summarizer.decay();
    }
  }
  report.adopted_placement = placement_;

  {
    const MutexLock lock(ingest_->mutex);
    ingest_->accesses = 0;
  }
  ++epoch_index_;
  return report;
}

}  // namespace geored::core
