// Shared pieces of the end-to-end benchmark driver: run options, the world
// every workload runs in, span tracing around calls into the library, the
// accumulators a run reports from, and the workload interface.
//
// The driver only calls the library's public API. It times each call from
// outside and records one span per contiguous run of calls into a layer, so
// nothing inside src/ is instrumented and tracing costs a clock read pair
// per span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/point_set.h"
#include "core/epoch_trace.h"
#include "core/replication_manager.h"
#include "placement/types.h"
#include "serve/latency_histogram.h"
#include "topology/topology.h"

namespace geored::e2e {

/// Workload sizes: `full` is what BENCHMARK.json runs, `smoke` is the
/// seconds-long variant the smoke script uses to compare digests.
enum class Scale { kFull, kSmoke };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< minimum wall time of the measured epoch loop
  bool trace = false;     ///< report per-layer metrics from spans
  std::string spans_path; ///< optional: write every span here at exit
  std::size_t threads = 0;
  Scale scale = Scale::kFull;
};

/// Seed of the world and of the workloads' fixed traits (site and key
/// popularity orders, group biases). The world is the deployment under
/// test and is the same for every --seed: seeds vary the traffic drawn from
/// it and the system's own randomness, so the spread across seeds measures
/// the system rather than the luck of one topology.
inline constexpr std::uint64_t kWorldSeed = 2011;

/// The shared world: a PlanetLab-like topology, RNP coordinates, nodes
/// [0, kCandidates) as candidate data centers and the rest as client sites.
struct World {
  static constexpr std::size_t kNodes = 1000;
  static constexpr std::size_t kCandidates = 100;
  static constexpr std::size_t kDim = 5;
  static constexpr double kJitterMs = 2.0;  ///< per-dimension N(0, 2 ms)

  topo::Topology topology;
  std::vector<place::CandidateInfo> candidates;
  std::vector<topo::NodeId> sites;  ///< client site i is node sites[i]
  PointSet site_coords;             ///< row i = coordinates of sites[i]
  /// Pre-drawn jitter rows; an access adds one chosen by the traffic RNG,
  /// which keeps input generation to a few RNG calls per access.
  PointSet jitter;
  double generate_ms = 0.0;
  double embed_ms = 0.0;
};

/// Builds the world from kWorldSeed. The smoke scale runs the coordinate
/// protocol for fewer rounds: it compares digests, not placement quality.
World make_world(Scale scale);

/// One timed interval. Cycle spans (one per epoch) parent the call spans
/// made inside them; `name` is "layer.call" and always a string literal.
struct Span {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::int32_t parent = -1;
  std::uint32_t epoch = 0;
};

/// Times every call into the library. Call durations are always summed (the
/// untraced end-to-end metrics need them); spans are kept only while
/// recording, which is the whole difference between a traced and an
/// untraced epoch.
class Tracer {
 public:
  void set_recording(bool on) { recording_ = on; }

  void begin_cycle(std::uint32_t epoch) {
    epoch_ = epoch;
    call_ms_ = 0.0;
    cycle_ = push("cycle", core::trace_now_ms(), -1);
  }
  void end_cycle() {
    if (cycle_ >= 0) spans_[static_cast<std::size_t>(cycle_)].end_ms = core::trace_now_ms();
    cycle_ = -1;
  }

  /// Times fn() as one contiguous run of calls into the library.
  template <typename Fn>
  void call(const char* name, Fn&& fn) {
    const double start = core::trace_now_ms();
    fn();
    const double end = core::trace_now_ms();
    call_ms_ += end - start;
    close(push(name, start, cycle_), end);
  }

  /// Times fn() as the driver's own work inside a cycle (dispatching
  /// decisions to replicas); spanned but not counted as a library call.
  template <typename Fn>
  void driver(const char* name, Fn&& fn) {
    const double start = core::trace_now_ms();
    fn();
    close(push(name, start, cycle_), core::trace_now_ms());
  }

  /// Records an interval measured by the caller, outside any cycle.
  void record(const char* name, double start_ms, double end_ms) {
    close(push(name, start_ms, -1), end_ms);
  }

  /// Summed duration of the library calls in the current (or last) cycle.
  double cycle_call_ms() const { return call_ms_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int32_t push(const char* name, double start_ms, std::int32_t parent) {
    if (!recording_) return -1;
    spans_.push_back({name, start_ms, start_ms, parent, epoch_});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index, double end_ms) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ms = end_ms;
  }

  bool recording_ = false;
  std::uint32_t epoch_ = 0;
  std::int32_t cycle_ = -1;
  double call_ms_ = 0.0;
  std::vector<Span> spans_;
};

/// Latency histogram at 10 us resolution for reporting. serve's
/// LatencyHistogram stays the byte-stable record the digest hashes, but its
/// quarter-octave buckets cannot resolve a 1% change in a percentile.
class FineHistogram {
 public:
  static constexpr double kStepMs = 0.01;
  static constexpr std::size_t kBuckets = 400'000;  ///< up to 4 s; the last bucket is overflow

  void record(double ms);
  /// Midpoint of the bucket holding the sample of rank ceil(q * total).
  double quantile(double q) const;

 private:
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t total_ = 0;
};

/// FNV-1a over the run's deterministic outputs.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(const place::Placement& placement);
  void add(const serve::LatencyHistogram& histogram);
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run accumulates. The digest covers the fixed epoch prefix
/// [0, det_epochs); deterministic results (delay, latency, bytes, placement
/// and cluster statistics) cover [warmup, det_epochs), so they do not
/// depend on how many epochs fit in the run's wall time; wall-time results
/// cover every epoch from warmup on.
struct Results {
  // Which of the above the current epoch counts toward; set by the loop.
  bool prefix = false;
  bool deterministic = false;
  bool timed = false;

  double delay_sum_ms = 0.0;   ///< Σ per-epoch true average access delay
  FineHistogram latency;       ///< client-observed virtual latency
  double summary_bytes = 0.0;  ///< Σ EpochReport::summary_bytes
  Digest digest;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t check_failure_count = 0;
  std::vector<std::string> check_failures;  ///< the first few messages

  // Placement and cluster state, summed over group-epochs.
  std::uint64_t group_epochs = 0;
  std::uint64_t migrations = 0;
  std::uint64_t replicas_moved = 0;
  double degree_sum = 0.0;
  double estimate_error_sum = 0.0;
  std::uint64_t estimate_samples = 0;
  double clusters_sum = 0.0;
  double summary_replica_bytes_sum = 0.0;
  std::uint64_t replica_samples = 0;
  // Per-group stage times from EpochReport::stages, summed over epochs.
  core::EpochStageTrace stages;

  std::vector<Metric> metrics;  ///< workload-specific metrics

  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Mean wall milliseconds per traced epoch in each span name.
using SpanMs = std::map<std::string, double>;

/// span_ms[name], or 0 for a span the run did not record.
inline double per_epoch(const SpanMs& span_ms, const char* name) {
  const auto it = span_ms.find(name);
  return it == span_ms.end() ? 0.0 : it->second;
}

/// A workload owns the system under test, built on the shared world.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates epoch `epoch`'s inputs from the seed; untimed.
  virtual void generate(std::uint32_t epoch) = 0;
  /// Makes epoch `epoch`'s calls into the library through `tracer`. Returns
  /// the operations the epoch performed.
  virtual std::uint64_t run(std::uint32_t epoch, Tracer& tracer) = 0;
  /// Checks the epoch's outputs and accumulates its results; untimed.
  virtual void finish(std::uint32_t epoch, Results& results) = 0;
  /// End-of-run checks and workload-specific metrics; `span_ms` is empty
  /// in an untraced run. Untimed.
  virtual void report(Results& results, const SpanMs& span_ms) = 0;
};

struct WorkloadSpec {
  const char* name;
  std::unique_ptr<Workload> (*make)(const World&, std::uint64_t seed, Scale scale);
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();

/// Per-group bookkeeping shared by every workload: correctness checks on an
/// epoch report, placement/cluster statistics, the summary estimate's error
/// against `clients`, and the digest. Returns the true total delay
/// (ms x accesses) of the placement in force during the epoch.
double account_group(const core::EpochReport& report, const core::ReplicationManager& manager,
                     std::uint64_t recorded_accesses, const topo::Topology& topology,
                     const std::vector<place::ClientRecord>& clients, Results& results);

}  // namespace geored::e2e
