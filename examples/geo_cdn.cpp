// geo_cdn: a follow-the-sun content service on the scenario engine.
//
// A popular object is read from every continent, and each region's demand
// peaks at its local noon of a compressed day, so the client population's
// center of gravity circles the globe. Clients pick replicas by network
// coordinates, replica servers summarize their user populations into
// micro-clusters, and every epoch Algorithm 1 proposes a placement that is
// adopted when the latency gain clears the migration threshold. Watch the
// placement chase the sun in the "migr" column while the delay stays low.
//
// The whole experiment lives in scenarios/follow_the_sun.json (the same
// world the migration-threshold ablation sweeps); this example is a thin
// wrapper that loads it, runs the scenario engine, and prints the per-epoch
// table. Edit the json (day length, floor, k, threshold) and re-run — no
// recompilation needed.
//
// Build & run:  ./build/examples/geo_cdn
#include <cstdio>

#include "scenario/runner.h"

using namespace geored;

int main() {
  const auto config =
      scenario::load_scenario_file(GEORED_SCENARIO_DIR "/follow_the_sun.json");
  std::printf("scenario %s: %s\n", config.name.c_str(), config.description.c_str());
  std::printf("seed %llu, %zu epochs x %.0f ms\n\n",
              static_cast<unsigned long long>(config.seed), config.epochs,
              config.epoch_ms);

  const auto result = scenario::run_scenario(config);
  std::fputs(result.table().c_str(), stdout);

  std::size_t migrations = 0;
  for (const auto& row : result.epochs) migrations += row.groups_migrated;
  std::printf("\nmigrations over %zu epochs: %zu\n", result.epochs.size(), migrations);
  return 0;
}
