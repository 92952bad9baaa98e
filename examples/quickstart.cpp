// Quickstart: the geored public API in ~60 lines.
//
// 1. Generate a wide-area topology (or load your own RTT matrix).
// 2. Assign network coordinates to every node with RNP.
// 3. Create a ReplicationManager over the candidate data centers.
// 4. Route client accesses through it.
// 5. Run a placement epoch: the manager summarizes recent usage,
//    macro-clusters it, and migrates replicas when worthwhile.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/replication_manager.h"
#include "netcoord/embedding.h"
#include "topology/planetlab_model.h"

using namespace geored;

int main() {
  // A 226-node PlanetLab-like world; node 0..19 will be data centers.
  const auto topology = topo::generate_planetlab_like(topo::PlanetLabModelConfig{}, 42);
  const auto coords =
      coord::run_rnp(topology, coord::RnpConfig{}, coord::GossipConfig{}, /*seed=*/7);
  std::printf("topology: %zu nodes; RNP median prediction error %.1f ms\n", topology.size(),
              coord::evaluate_embedding(topology, coords).absolute_error_ms.p50);

  std::vector<place::CandidateInfo> candidates;
  for (topo::NodeId dc = 0; dc < 20; ++dc) {
    candidates.push_back({dc, coords[dc].position,
                          std::numeric_limits<double>::infinity()});
  }

  core::ManagerConfig config;
  config.replication_degree = 3;       // the paper's k
  config.summarizer.max_clusters = 4;  // the paper's m (near-optimal per Fig. 3)
  config.migration.min_relative_gain = 0.05;
  core::ReplicationManager manager(candidates, config, /*seed=*/1);

  std::printf("initial (random) placement:");
  for (const auto node : manager.placement()) std::printf(" dc%u", node);
  std::printf("\n");

  // Clients (nodes 20..225) read the object; the manager routes each access
  // to the replica with the lowest predicted latency and summarizes it.
  for (int day = 0; day < 3; ++day) {
    for (topo::NodeId client = 20; client < topology.size(); ++client) {
      for (int access = 0; access < 50; ++access) {
        manager.serve(coords[client].position);
      }
    }
    const auto report = manager.run_epoch();
    std::printf(
        "epoch %d: %llu accesses, %zu B of summaries shipped, "
        "est. delay %.1f -> %.1f ms, %s\n",
        day, static_cast<unsigned long long>(report.epoch_accesses), report.summary_bytes,
        report.old_estimated_delay_ms, report.new_estimated_delay_ms,
        report.decision.migrate ? "MIGRATED" : report.decision.reason.c_str());
    std::printf("         placement now:");
    for (const auto node : manager.placement()) std::printf(" dc%u", node);
    std::printf("\n");
  }
  return 0;
}
