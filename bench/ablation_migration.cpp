// Ablation A2 — The migration threshold (paper §III-C).
//
// "Our approach carries out data migration only when the gain ... compared
// to the migration cost is higher than a certain threshold." This harness
// runs scenarios/follow_the_sun.json on the scenario engine — every region's
// demand peaks at its local noon, so the client population's center of
// gravity circles the globe — and sweeps the relative-gain threshold. It
// reports how many migrations each setting performs, the bytes they moved,
// and the achieved mean access delay: the cost/quality trade-off the
// threshold tunes.
#include <cstdint>
#include <cstdio>

#include "bench_util.h"
#include "scenario/runner.h"

using namespace geored;

namespace {

/// The replicated object: every new replica site copies it once.
constexpr double kObjectMb = 256.0;

/// Sweep value standing for "never migrate" (both gain gates unreachable).
constexpr double kNever = 1e9;

}  // namespace

int main() {
  const auto base = scenario::load_scenario_file(GEORED_SCENARIO_DIR "/follow_the_sun.json");
  bench::print_header("Ablation: migration threshold vs churn and delay",
                      "scenarios/follow_the_sun.json: 100-node topology, 12 DCs, k=2, m=4, "
                      "diurnal period 200 s, 30 epochs x 20 s");

  std::printf("%-22s %12s %16s %14s\n", "relative threshold", "migrations", "migration MB",
              "mean delay");

  double delay_loose = 0.0, delay_strict = 0.0;
  std::size_t migrations_loose = 0, migrations_strict = 0;
  for (const double threshold : {0.0, 0.05, 0.20, 0.50, kNever}) {
    scenario::ScenarioConfig config = base;
    config.manager.migration.min_relative_gain = threshold;
    if (threshold == kNever) config.manager.migration.min_absolute_gain_ms = 1e18;
    const auto result = scenario::run_scenario(config);

    std::size_t migrations = 0, replicas_moved = 0;
    std::uint64_t accesses = 0;
    double delay_sum = 0.0;
    for (const auto& row : result.epochs) {
      migrations += row.groups_migrated;
      replicas_moved += row.replicas_moved;
      accesses += row.accesses;
      delay_sum += row.mean_delay_ms * static_cast<double>(row.accesses);
    }
    const double mean_delay = accesses > 0 ? delay_sum / static_cast<double>(accesses) : 0.0;
    const double migration_mb = static_cast<double>(replicas_moved) * kObjectMb;

    char label[32] = "never migrate";
    if (threshold != kNever) std::snprintf(label, sizeof label, "%.2f", threshold);
    std::printf("%-22s %12zu %16.0f %12.2fms\n", label, migrations, migration_mb, mean_delay);

    if (threshold == 0.0) {
      delay_loose = mean_delay;
      migrations_loose = migrations;
    }
    if (threshold == kNever) {
      delay_strict = mean_delay;
      migrations_strict = migrations;
    }
  }

  std::printf("\npaper-shape checks:\n");
  bench::print_check("never-migrate performs zero migrations", migrations_strict == 0);
  bench::print_check("migrating tracks the moving population (lower delay than frozen)",
                     delay_loose < delay_strict);
  bench::print_check("threshold 0 migrates at least as often as threshold infinity",
                     migrations_loose >= migrations_strict);
  return 0;
}
