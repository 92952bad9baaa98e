// Per-stage wall-clock attribution for the placement epoch.
//
// The epoch's cost story lives in BENCH_perf.json as end-to-end ratios, but
// a ratio cannot say *where* the milliseconds went — and the epoch's four
// steps (the pluggable collect, then the fixed propose / gate / adopt) plus
// the ingest flush have wildly different scaling in clients, k, and
// summarizer budget. This layer records each step's wall time into the
// EpochReport the step ran under, so bench runs, the scenario engine, and
// operators all attribute the critical path the same way. The trace is
// observational only: no retained value, decision, or serialized byte
// depends on it, so the determinism contracts (bit-identical epochs at any
// GEORED_THREADS, golden scenario transcripts) are untouched.
//
// Timing comes from the real monotonic clock at sub-millisecond resolution
// (net::Clock's now_ms() is integer milliseconds — too coarse for stages
// that finish in microseconds). The chrono call is confined to
// epoch_trace.cpp, which is on the geored_lint wall-clock allowlist next to
// net/clock.cpp; everything else keeps going through injected clocks.
#pragma once

namespace geored::core {

/// Wall time spent in each run_epoch stage, in fractional milliseconds.
/// Purely observational: values vary run to run, and nothing downstream of
/// a report may branch on them.
struct EpochStageTrace {
  double ingest_flush_ms = 0.0;  ///< draining the staged access batches
  double collect_ms = 0.0;       ///< SummaryCollector::collect
  double propose_ms = 0.0;       ///< online clustering (0 on an agreed proposal)
  double gate_ms = 0.0;          ///< delay estimates + decide_migration
  double adopt_ms = 0.0;         ///< redistribute_to_nearest, or aging kept summaries

  double total_ms() const {
    return ingest_flush_ms + collect_ms + propose_ms + gate_ms + adopt_ms;
  }
};

/// Monotonic timestamp in fractional milliseconds since an arbitrary fixed
/// origin (steady_clock in epoch_trace.cpp). Differences are meaningful;
/// absolute values are not.
double trace_now_ms();

/// Scoped stage timer: accumulates the enclosed scope's wall time into the
/// given trace slot on destruction. Additive, so one slot can cover several
/// disjoint scopes of the same stage.
class StageTimer {
 public:
  explicit StageTimer(double& slot) : slot_(slot), start_ms_(trace_now_ms()) {}
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() { slot_ += trace_now_ms() - start_ms_; }

 private:
  double& slot_;
  double start_ms_;
};

}  // namespace geored::core
