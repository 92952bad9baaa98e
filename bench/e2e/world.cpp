// The shared world and the bookkeeping every workload uses.
#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/summarizer.h"
#include "common/random.h"
#include "driver.h"
#include "netcoord/embedding.h"
#include "placement/evaluate.h"
#include "topology/planetlab_model.h"

namespace geored::e2e {

World make_world(Scale scale) {
  World world;
  topo::PlanetLabModelConfig topo_config;
  topo_config.node_count = World::kNodes;
  const double t0 = core::trace_now_ms();
  world.topology = topo::generate_planetlab_like(topo_config, kWorldSeed);
  const double t1 = core::trace_now_ms();
  coord::RnpConfig rnp;
  rnp.vivaldi.dimensions = World::kDim;
  coord::GossipConfig gossip;
  if (scale == Scale::kSmoke) gossip.rounds = 32;
  const auto coords = coord::run_rnp(world.topology, rnp, gossip, kWorldSeed + 1);
  const double t2 = core::trace_now_ms();
  world.generate_ms = t1 - t0;
  world.embed_ms = t2 - t1;

  world.site_coords = PointSet(World::kDim);
  for (topo::NodeId node = 0; node < World::kNodes; ++node) {
    if (node < World::kCandidates) {
      world.candidates.push_back({node, coords[node].position,
                                  std::numeric_limits<double>::infinity()});
    } else {
      world.sites.push_back(node);
      world.site_coords.push_back(coords[node].position);
    }
  }

  Rng rng(kWorldSeed + 2);
  constexpr std::size_t kJitterRows = 1 << 16;
  world.jitter = PointSet(World::kDim);
  world.jitter.reserve(kJitterRows);
  double row[World::kDim];
  for (std::size_t i = 0; i < kJitterRows; ++i) {
    for (double& value : row) value = rng.normal(0.0, World::kJitterMs);
    world.jitter.push_back_row(row, World::kDim);
  }
  return world;
}

void FineHistogram::record(double ms) {
  const double bucket = std::floor(std::max(ms, 0.0) / kStepMs);
  const auto index =
      bucket < static_cast<double>(kBuckets - 1) ? static_cast<std::size_t>(bucket) : kBuckets - 1;
  ++counts_[index];
  ++total_;
}

double FineHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) return (static_cast<double>(b) + 0.5) * kStepMs;
  }
  return static_cast<double>(kBuckets) * kStepMs;
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xffU;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const place::Placement& placement) {
  add(static_cast<std::uint64_t>(placement.size()));
  for (const auto node : placement) add(static_cast<std::uint64_t>(node));
}

void Digest::add(const serve::LatencyHistogram& histogram) {
  add(histogram.total());
  for (std::size_t b = 0; b < serve::LatencyHistogram::kBuckets; ++b) {
    if (histogram.bucket_count(b) != 0) {
      add(static_cast<std::uint64_t>(b));
      add(histogram.bucket_count(b));
    }
  }
}

void Results::check(bool ok, const std::string& what) {
  if (ok) return;
  constexpr std::size_t kKeptMessages = 20;
  if (check_failures.size() < kKeptMessages) check_failures.push_back(what);
  ++check_failure_count;
}

double account_group(const core::EpochReport& report, const core::ReplicationManager& manager,
                     std::uint64_t recorded_accesses, const topo::Topology& topology,
                     const std::vector<place::ClientRecord>& clients, Results& results) {
  results.check(report.epoch_accesses == recorded_accesses,
                "epoch_accesses " + std::to_string(report.epoch_accesses) + " != recorded " +
                    std::to_string(recorded_accesses));
  const place::Placement& adopted = report.adopted_placement;
  results.check(adopted.size() == report.degree, "adopted placement size != degree");
  place::Placement sorted = adopted;
  std::sort(sorted.begin(), sorted.end());
  results.check(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                "adopted placement repeats a data center");
  results.check(sorted.empty() || sorted.back() < World::kCandidates,
                "adopted placement holds a non-candidate node");
  results.check(adopted == manager.placement(), "adopted placement is not in force");

  if (results.prefix) {
    results.digest.add(adopted);
    results.digest.add(static_cast<std::uint64_t>(report.summary_bytes));
    results.digest.add(report.epoch_accesses);
  }
  if (results.timed) {
    results.stages.ingest_flush_ms += report.stages.ingest_flush_ms;
    results.stages.collect_ms += report.stages.collect_ms;
    results.stages.propose_ms += report.stages.propose_ms;
    results.stages.gate_ms += report.stages.gate_ms;
    results.stages.adopt_ms += report.stages.adopt_ms;
  }
  if (!results.deterministic) return 0.0;

  results.summary_bytes += static_cast<double>(report.summary_bytes);
  ++results.group_epochs;
  if (adopted != report.old_placement) ++results.migrations;
  for (const auto node : adopted) {
    if (std::find(report.old_placement.begin(), report.old_placement.end(), node) ==
        report.old_placement.end()) {
      ++results.replicas_moved;
    }
    const auto& summary = manager.summary_of(node);
    results.clusters_sum += static_cast<double>(summary.size());
    results.summary_replica_bytes_sum += static_cast<double>(cluster::serialized_size(summary));
    ++results.replica_samples;
  }
  results.degree_sum += static_cast<double>(report.degree);
  if (clients.empty()) return 0.0;
  const double proposed_true =
      place::true_average_delay(topology, report.proposed_placement, clients);
  results.estimate_error_sum +=
      std::abs(report.new_estimated_delay_ms - proposed_true) / proposed_true;
  ++results.estimate_samples;
  return place::true_total_delay(topology, report.old_placement, clients);
}

}  // namespace geored::e2e
