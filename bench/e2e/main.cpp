// e2e_bench: the end-to-end benchmark driver.
//
//   e2e_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--threads T] [--scale full|smoke] [--spans FILE] [--sha SHA]
//
// Builds the shared world and the system under test (several times;
// setup_s is the median), then runs the workload's epochs: inputs are
// generated from --seed, then the epoch's calls into the library are timed,
// then outputs are checked. The loop runs a fixed prefix of epochs (which
// the digest and the deterministic metrics cover) and continues until
// --seconds of wall time have passed. Prints one `metric <name> <value>
// <unit>` line per metric, the digest, and a `result` line;
// bench/e2e/run.py turns these into the benchmark's JSON. Exits 1 when any
// correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "common/point_set_simd.h"
#include "common/thread_pool.h"
#include "driver.h"

namespace geored::e2e {
namespace {

// Epochs [0, det) are always run: the digest covers them, and the
// deterministic metrics cover [warmup, det). At full scale every workload
// fits them in well under the default --seconds on a 4-core machine.
constexpr std::uint32_t kWarmupEpochs = 5;
constexpr std::uint32_t kDetEpochs = 100;
constexpr std::uint32_t kSmokeWarmupEpochs = 1;
constexpr std::uint32_t kSmokeDetEpochs = 4;
constexpr int kSetupRepeats = 3;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: e2e_bench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--threads T] [--scale full|smoke] [--spans FILE] [--sha SHA]\n",
               error.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv, std::string* sha) {
  Options options;
  const unsigned hardware = std::max(1U, std::thread::hardware_concurrency());
  options.threads = std::min(4U, hardware);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--threads") {
        options.threads = std::stoul(value);
        if (options.threads < 1 || options.threads > hardware) {
          usage("--threads must be in [1, " + std::to_string(hardware) + "]");
        }
      } else if (flag == "--scale") {
        if (value != "full" && value != "smoke") usage("--scale takes full or smoke");
        options.scale = value == "full" ? Scale::kFull : Scale::kSmoke;
      } else if (flag == "--spans") {
        options.spans_path = value;
      } else if (flag == "--sha") {
        *sha = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(options.seconds >= 0.0)) usage("--seconds must be >= 0");
  return options;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

void print_metric(const std::string& name, double value, const std::string& unit) {
  std::printf("metric %s %.17g %s\n", name.c_str(), value, unit.c_str());
}

std::string layer_of(const char* name) {
  const std::string full = name;
  return full.substr(0, full.find('.'));
}

/// Self time per layer from the spans of traced, post-warm-up epochs: a
/// span's self time is its duration minus its children's. A cycle's self
/// time is the part of the epoch no layer span covers.
struct LayerTimes {
  std::map<std::string, double> self_ms;  ///< by layer, inside cycles, summed
  SpanMs span_ms;                         ///< by span name, per epoch
  double cycle_ms = 0.0;                  ///< summed
  double unattributed_ms = 0.0;
  double epochs = 0.0;
};

LayerTimes layer_times(const std::vector<Span>& spans, std::uint32_t warmup) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] += span.end_ms - span.start_ms;
    }
  }
  LayerTimes times;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.epoch < warmup) continue;
    const double duration = span.end_ms - span.start_ms;
    if (std::string_view(span.name) == "cycle") {
      times.cycle_ms += duration;
      times.unattributed_ms += duration - child_ms[i];
      times.epochs += 1.0;
      continue;
    }
    if (span.parent >= 0) times.self_ms[layer_of(span.name)] += duration - child_ms[i];
    times.span_ms[span.name] += duration;
  }
  for (auto& [name, ms] : times.span_ms) ms /= times.epochs;
  return times;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "name,start_ms,end_ms,parent,epoch\n";
  char line[256];
  for (const Span& span : spans) {
    std::snprintf(line, sizeof line, "%s,%.6f,%.6f,%d,%u\n", span.name, span.start_ms,
                  span.end_ms, span.parent, span.epoch);
    out << line;
  }
  if (!out) std::fprintf(stderr, "warning: could not write spans to %s\n", path.c_str());
}

int run(const Options& options, const std::string& sha) {
  const auto& specs = workloads();
  const auto spec = std::find_if(specs.begin(), specs.end(), [&](const WorkloadSpec& s) {
    return options.workload == s.name;
  });
  if (spec == specs.end()) usage("unknown workload '" + options.workload + "'");
  ThreadPool::set_global_thread_count(options.threads);
  const bool smoke = options.scale == Scale::kSmoke;

  // Set-up: world + system under test, built kSetupRepeats times.
  std::unique_ptr<World> world;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s, generate_ms, embed_ms;
  for (int rep = 0; rep < (smoke ? 1 : kSetupRepeats); ++rep) {
    workload.reset();
    world.reset();
    const double start = core::trace_now_ms();
    world = std::make_unique<World>(make_world(options.scale));
    workload = spec->make(*world, options.seed, options.scale);
    setup_s.push_back((core::trace_now_ms() - start) / 1000.0);
    generate_ms.push_back(world->generate_ms);
    embed_ms.push_back(world->embed_ms);
  }

  const std::uint32_t det_epochs = smoke ? kSmokeDetEpochs : kDetEpochs;
  const std::uint32_t warmup = smoke ? kSmokeWarmupEpochs : kWarmupEpochs;
  Results results;
  Tracer tracer;
  // Per timed epoch: library-call wall time, ops per call-ms, generation time.
  std::vector<double> epoch_ms, rate, gen_ms, traced_rate, untraced_rate;
  std::uint32_t epoch = 0;
  const double loop_start = core::trace_now_ms();
  for (; epoch < det_epochs || core::trace_now_ms() - loop_start < options.seconds * 1000.0;
       ++epoch) {
    results.prefix = epoch < det_epochs;
    results.timed = epoch >= warmup;
    results.deterministic = results.prefix && results.timed;
    // A traced run alternates traced and untraced epochs; the rate
    // difference between them is the tracing overhead.
    const bool traced = options.trace && epoch % 2 == 0;

    const double gen_start = core::trace_now_ms();
    workload->generate(epoch);
    const double gen_end = core::trace_now_ms();

    tracer.set_recording(traced);
    tracer.begin_cycle(epoch);
    const auto epoch_ops = static_cast<double>(workload->run(epoch, tracer));
    tracer.end_cycle();
    workload->finish(epoch, results);
    if (!results.timed) continue;
    tracer.record("bench.gen", gen_start, gen_end);
    gen_ms.push_back(gen_end - gen_start);
    const double ms = tracer.cycle_call_ms();
    epoch_ms.push_back(ms);
    rate.push_back(epoch_ops / ms);
    (traced ? traced_rate : untraced_rate).push_back(epoch_ops / ms);
  }
  const double det_count = det_epochs - warmup;
  const auto timed_epochs = static_cast<double>(epoch_ms.size());

  std::printf("# e2e workload=%s seed=%" PRIu64 " scale=%s threads=%zu simd=%s nproc=%u sha=%s "
              "epochs=%u det_epochs=%u warmup=%u\n",
              spec->name, options.seed, smoke ? "smoke" : "full", options.threads,
              simd::level_name(simd::active_level()), std::thread::hardware_concurrency(),
              sha.c_str(), epoch, det_epochs, warmup);

  LayerTimes layers;
  if (options.trace) layers = layer_times(tracer.spans(), warmup);
  workload->report(results, layers.span_ms);

  rusage usage_info{};
  getrusage(RUSAGE_SELF, &usage_info);
  print_metric("setup_s", median(setup_s), "s");
  // Wall time of the epoch cycle's library calls. A median of per-epoch
  // rates, so a slow stretch of a run moves it less than a ratio of totals.
  print_metric("cycle.ops_per_s", median(rate) * 1000.0, "op/s");
  print_metric("cycle.epoch_ms_p50", percentile(epoch_ms, 0.5), "ms");
  print_metric("cycle.epoch_ms_p90", percentile(epoch_ms, 0.9), "ms");
  print_metric("access_delay_ms", results.delay_sum_ms / det_count, "ms");
  print_metric("lat_p50_ms", results.latency.quantile(0.5), "ms");
  print_metric("lat_p99_ms", results.latency.quantile(0.99), "ms");
  print_metric("summary_kb_per_epoch", results.summary_bytes / det_count / 1024.0, "KiB");
  print_metric("peak_rss_mb", static_cast<double>(usage_info.ru_maxrss) / 1024.0, "MiB");
  print_metric("failed_ratio",
               static_cast<double>(results.failed) / static_cast<double>(results.attempted),
               "ratio");

  const double group_epochs = static_cast<double>(results.group_epochs);
  const double replicas = static_cast<double>(results.replica_samples);
  print_metric("topology.generate_ms", median(generate_ms), "ms");
  print_metric("netcoord.embed_ms", median(embed_ms), "ms");
  print_metric("bench.gen_ms_per_epoch", median(gen_ms), "ms");
  print_metric("core.epoch_stages_ms", results.stages.total_ms() / timed_epochs, "ms");
  print_metric("core.collect_ms", results.stages.collect_ms / timed_epochs, "ms");
  print_metric("core.propose_ms", results.stages.propose_ms / timed_epochs, "ms");
  print_metric("core.gate_ms", results.stages.gate_ms / timed_epochs, "ms");
  print_metric("core.adopt_ms", results.stages.adopt_ms / timed_epochs, "ms");
  print_metric("cluster.clusters_per_replica", results.clusters_sum / replicas, "count");
  print_metric("cluster.summary_bytes_per_replica", results.summary_replica_bytes_sum / replicas,
               "B");
  print_metric("placement.migration_ratio", static_cast<double>(results.migrations) / group_epochs,
               "ratio");
  print_metric("placement.replicas_moved_per_epoch",
               static_cast<double>(results.replicas_moved) / det_count, "count");
  print_metric("placement.degree_mean", results.degree_sum / group_epochs, "count");
  print_metric("placement.estimate_error",
               results.estimate_error_sum / static_cast<double>(results.estimate_samples),
               "ratio");
  if (options.trace) {
    const double epoch_call_ms =
        per_epoch(layers.span_ms, "core.run_epoch") + per_epoch(layers.span_ms, "store.epochs");
    print_metric("core.flush_ms", per_epoch(layers.span_ms, "core.flush"), "ms");
    print_metric("core.epoch_call_ms", epoch_call_ms, "ms");
    print_metric("core.parallel_efficiency",
                 results.stages.total_ms() / timed_epochs /
                     (static_cast<double>(options.threads) * epoch_call_ms),
                 "ratio");
    const double unattributed_pct = 100.0 * layers.unattributed_ms / layers.cycle_ms;
    print_metric("trace.unattributed_pct", unattributed_pct, "%");
    print_metric("trace.overhead_pct",
                 100.0 * (1.0 - median(traced_rate) / median(untraced_rate)), "%");
    for (const char* layer : {"core", "serve", "store", "sim", "bench"}) {
      print_metric(std::string(layer) + ".cycle_pct",
                   100.0 * layers.self_ms[layer] / layers.cycle_ms, "%");
    }
    results.check(unattributed_pct <= 5.0,
                  "layer self times cover only " + std::to_string(100.0 - unattributed_pct) +
                      "% of the epoch cycle");
    std::printf("# layer self time per traced epoch (%.0f epochs)\n", layers.epochs);
    for (const auto& [layer, ms] : layers.self_ms) {
      std::printf("#   %-8s %10.3f ms  %5.1f%%\n", layer.c_str(), ms / layers.epochs,
                  100.0 * ms / layers.cycle_ms);
    }
    std::printf("#   %-8s %10.3f ms  %5.1f%%\n", "(none)", layers.unattributed_ms / layers.epochs,
                unattributed_pct);
    for (const auto& [name, ms] : layers.span_ms) {
      std::printf("#   span %-20s %10.3f ms/epoch\n", name.c_str(), ms);
    }
  }
  for (const Metric& metric : results.metrics) print_metric(metric.name, metric.value, metric.unit);
  if (!options.spans_path.empty()) write_spans(options.spans_path, tracer.spans());

  std::printf("digest %016" PRIx64 "\n", results.digest.value());
  for (const auto& failure : results.check_failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  const bool correct = results.check_failure_count == 0;
  std::printf("result correct=%d attempted=%" PRIu64 " failed=%" PRIu64 "\n", correct ? 1 : 0,
              results.attempted, results.failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace geored::e2e

int main(int argc, char** argv) {
  std::string sha = "unknown";
  const geored::e2e::Options options = geored::e2e::parse(argc, argv, &sha);
  if (options.workload.empty()) geored::e2e::usage("--workload is required");
  try {
    return geored::e2e::run(options, sha);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
