// Scenario execution: a parsed ScenarioConfig becomes a seeded event
// schedule on sim::Simulator, driving a FleetManager through every epoch.
//
// The runner is the shared experiment loop the hard-coded bench/example
// binaries each used to reimplement: build the world, sample arrivals,
// route and record accesses, run placement epochs with the scheduled
// exclusions, and emit results. Output is structured per-epoch jsonl (fixed
// key order, printf %.10g doubles) plus an aggregated sweep table.
//
// Determinism: every random stream forks from the scenario seed, arrivals
// are sampled and executed in simulator order (single-threaded by design),
// and the epoch pipeline underneath is bit-identical at any thread count —
// so the same (config, seed) reproduces byte-identical jsonl at any
// GEORED_THREADS.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/epoch_trace.h"
#include "scenario/config.h"

namespace geored::scenario {

/// What the serving data plane measured over one epoch (present in the
/// jsonl row only when the scenario has a "serve" block). Quantiles come
/// from the byte-stable serve::LatencyHistogram, so every field is pinned
/// by the golden transcripts.
struct ServeEpochStats {
  bool enabled = false;
  std::uint64_t requests = 0;  ///< admitted + rejected (lost stays in lost_accesses)
  std::uint64_t admitted = 0;  ///< served, including spilled
  std::uint64_t rejected = 0;  ///< dropped by admission control
  std::uint64_t spilled = 0;   ///< served by the second-nearest replica
  double p50_ms = 0.0;         ///< client-observed latency quantiles:
  double p99_ms = 0.0;         ///< RTT + queue wait + service time
  double p999_ms = 0.0;
  double mean_ms = 0.0;
};

/// What one epoch measured and decided, the row behind one jsonl line.
struct EpochRow {
  std::size_t epoch = 0;
  double t_ms = 0.0;  ///< epoch window end (the tick instant)
  std::size_t active_clients = 0;
  std::uint64_t accesses = 0;
  std::uint64_t lost_accesses = 0;  ///< found no live replica
  double mean_delay_ms = 0.0;       ///< measured true-RTT mean over the epoch
  double objective_ms = 0.0;  ///< access-weighted estimated delay of adopted placements
  std::size_t groups_migrated = 0;
  std::size_t replicas_moved = 0;
  std::size_t stale_sources = 0;
  std::size_t lost_sources = 0;
  std::size_t total_degree = 0;
  std::vector<std::size_t> degrees;    ///< per group, after the epoch
  std::vector<topo::NodeId> excluded;  ///< data centers excluded this epoch
  /// Per-region measured delay / access count (region-name keyed, topology
  /// region order, regions with traffic only).
  std::vector<std::pair<std::string, double>> region_delay_ms;
  std::vector<std::pair<std::string, std::uint64_t>> region_accesses;
  /// Serving data plane counters and latency quantiles for the epoch.
  ServeEpochStats serve;
  /// Wall time per pipeline stage, summed over the fleet's group epochs.
  /// Observational (varies run to run); rendered only by the optional
  /// timings sidecar, never by the deterministic jsonl()/table() outputs.
  core::EpochStageTrace stage_totals;
};

struct ScenarioResult {
  std::vector<EpochRow> epochs;
  std::vector<std::string> jsonl_lines;  ///< one line per epoch, no newline

  /// All lines joined with '\n', trailing newline included.
  std::string jsonl() const;

  /// The aggregated sweep table (fixed-width text, one row per epoch).
  std::string table() const;

  /// Per-epoch stage-timing sidecar (one json object per line, trailing
  /// newline included): wall milliseconds each epoch spent in ingest-flush /
  /// collect / propose / gate / adopt across the fleet. Deliberately a
  /// separate stream from jsonl(): timings vary run to run, and the golden
  /// transcripts pin jsonl() byte for byte.
  std::string timings_jsonl() const;
};

/// Runs the scenario to completion. Throws ScenarioError before simulating
/// anything: kBadReference when an event's region pattern matches nothing in
/// the generated topology, kBadSchedule when the outages intersecting some
/// epoch exclude every data center. The result is a pure function of
/// `config`.
ScenarioResult run_scenario(const ScenarioConfig& config);

/// Writes <out_dir>/runs/<name>-seed<seed>.jsonl and
/// <out_dir>/tables/<name>-seed<seed>.txt (directories created as needed);
/// returns the jsonl path.
std::string write_artifacts(const ScenarioConfig& config, const ScenarioResult& result,
                            const std::string& out_dir);

}  // namespace geored::scenario
