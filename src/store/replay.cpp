#include "store/replay.h"

#include <memory>
#include <set>

#include "common/ensure.h"

namespace geored::store {

ReplayReport replay_trace(sim::Simulator& simulator, ReplicatedKvStore& store,
                          const wl::Trace& trace,
                          const std::vector<topo::NodeId>& client_nodes,
                          const std::vector<Point>& client_coords,
                          const ReplayConfig& config) {
  GEORED_ENSURE(!client_nodes.empty(), "replay needs at least one client node");
  GEORED_ENSURE(client_nodes.size() == client_coords.size(),
                "one coordinate per client node required");
  GEORED_ENSURE(config.placement_epoch_ms >= 0.0, "epoch period must be non-negative");

  ReplayReport report;
  if (trace.empty()) return report;

  // Seed every object that the trace ever touches so reads can succeed
  // even when they precede the trace's first write of that object.
  std::set<std::uint64_t> objects;
  for (const auto& event : trace.events()) objects.insert(event.object);
  std::size_t i = 0;
  for (const auto object : objects) {
    const std::size_t c = i++ % client_nodes.size();
    store.put(client_nodes[c], client_coords[c], object, std::string(128, 's'),
              [](const PutResult&) {});
  }
  simulator.run();

  // Seeding consumed some virtual time; replay the trace's timeline shifted
  // past it so no event lands in the simulator's past.
  const double offset = simulator.now();
  const double horizon = offset + trace.duration_ms() + 1.0;
  struct EpochWindow {
    double get_sum = 0.0;
    std::uint64_t gets = 0;
  };
  auto window = std::make_shared<EpochWindow>();

  // Placement epochs.
  if (config.placement_epoch_ms > 0.0) {
    for (double t = offset + config.placement_epoch_ms; t <= horizon;
         t += config.placement_epoch_ms) {
      simulator.schedule_at(t, [&simulator, &store, &report, window] {
        for (const auto& epoch_report : store.run_placement_epochs()) {
          report.migrations += epoch_report.decision.migrate ? 1 : 0;
        }
        ++report.epochs;
        report.get_mean_by_epoch.push_back(
            window->gets > 0 ? window->get_sum / static_cast<double>(window->gets) : 0.0);
        *window = EpochWindow{};
      });
    }
  }

  // The trace itself.
  for (const auto& event : trace.events()) {
    const std::size_t c = event.client % client_nodes.size();
    const topo::NodeId node = client_nodes[c];
    const Point& coords = client_coords[c];
    simulator.schedule_at(offset + event.time_ms, [&store, window, node, coords, event] {
      if (event.is_write) {
        store.put(node, coords, event.object, std::string(event.bytes, 'd'),
                  [](const PutResult&) {});
      } else {
        store.get(node, coords, event.object, [window](const GetResult& result) {
          window->get_sum += result.latency_ms;
          ++window->gets;
        });
      }
    });
  }

  simulator.run();

  report.reads = store.reads();
  report.writes = store.writes();
  report.stale_reads = store.stale_reads();
  report.not_found_reads = store.not_found_reads();
  report.get_mean_ms = store.get_latency().mean();
  report.put_mean_ms = store.put_latency().mean();
  return report;
}

}  // namespace geored::store
