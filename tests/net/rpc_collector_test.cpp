// RpcCollector contract tests.
//
// Three pillars, mirroring the collector's guarantees:
//   1. Byte parity — with faults disabled, collected summaries and the
//      reported summary_bytes are identical to DirectCollector, all the way
//      up to bit-identical ReplicationManager epoch reports.
//   2. Determinism under faults — the FaultInjector is a pure function of
//      (seed, salt, source, attempt), so the test re-derives the oracle's
//      verdict per source and asserts the collector behaved exactly as
//      planned: recoverable schedules converge to the direct bytes, fatal
//      schedules fall back to the cache (stale) or drop out (lost).
//   3. Graceful degradation — an epoch always completes, whatever fails.
//
// Everything runs on a VirtualClock, so retries and injected delays cost no
// wall time; only drop faults spend real milliseconds (the client's poll
// timeout), which the configs below keep tiny.
#include "net/rpc_collector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/summarizer.h"
#include "common/random.h"
#include "common/serialize.h"
#include "core/replication_manager.h"

namespace geored::net {
namespace {

using core::CollectedSummaries;
using core::CollectionContext;
using core::SummarySource;

/// Candidates on a 1-D line, as in the core pipeline tests.
std::vector<place::CandidateInfo> line_candidates(std::size_t count = 10) {
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < count; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i),
                          Point{100.0 * static_cast<double>(i)},
                          std::numeric_limits<double>::infinity()});
  }
  return candidates;
}

/// Synthetic sources: each node summarizes a population near its own
/// location, exactly what a replica would report.
std::vector<SummarySource> make_sources(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SummarySource> sources(count);
  for (std::size_t s = 0; s < count; ++s) {
    sources[s].node = static_cast<topo::NodeId>(s);
    cluster::SummarizerConfig config;
    config.max_clusters = 4;
    config.min_absorb_radius = 10.0;
    cluster::MicroClusterSummarizer summarizer(config);
    const double center = 100.0 * static_cast<double>(s);
    for (int i = 0; i < 60; ++i) summarizer.add(Point{rng.normal(center, 12.0)});
    sources[s].clusters = summarizer.clusters();
  }
  return sources;
}

/// Bit-exact fingerprint of a collected summary set: the shared wire format
/// over the flattened clusters.
std::vector<std::uint8_t> fingerprint(const std::vector<cluster::MicroCluster>& summaries) {
  ByteWriter writer;
  cluster::write_clusters(writer, summaries);
  return writer.bytes();
}

/// Recoverable = the client accepts the response on that attempt. Delayed
/// responses arrive within the client timeout; duplicates are idempotent.
bool attempt_succeeds(const FaultPlan& plan) {
  return plan.action == FaultAction::kNone || plan.action == FaultAction::kDelay ||
         plan.action == FaultAction::kDuplicate;
}

/// The oracle: does source `s` deliver a fresh summary under this schedule?
bool source_recovers(const FaultInjector& injector, std::uint64_t salt, std::uint64_t source,
                     std::size_t max_attempts) {
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt_succeeds(injector.plan(salt, source, attempt))) return true;
  }
  return false;
}

/// A salt under which every source recovers within the budget (so a round
/// primes the cache), searched via the pure oracle — no sockets involved.
std::uint64_t find_clean_salt(const FaultInjector& injector, std::size_t sources,
                              std::size_t max_attempts, std::uint64_t from = 0) {
  for (std::uint64_t salt = from; salt < from + 10000; ++salt) {
    bool all = true;
    for (std::uint64_t s = 0; s < sources; ++s) {
      if (!source_recovers(injector, salt, s, max_attempts)) {
        all = false;
        break;
      }
    }
    if (all) return salt;
  }
  ADD_FAILURE() << "no clean salt found; fault rates too high for this budget";
  return from;
}

/// A salt under which at least one source exhausts its budget.
std::uint64_t find_failing_salt(const FaultInjector& injector, std::size_t sources,
                                std::size_t max_attempts, std::uint64_t from = 0) {
  for (std::uint64_t salt = from; salt < from + 10000; ++salt) {
    for (std::uint64_t s = 0; s < sources; ++s) {
      if (!source_recovers(injector, salt, s, max_attempts)) return salt;
    }
  }
  ADD_FAILURE() << "no failing salt found; fault rates too low for this budget";
  return from;
}

RpcCollectorConfig fast_config() {
  RpcCollectorConfig config;
  config.timeout_ms = 60;  // bounds real waiting on drop faults
  config.faults.delay_ms = 5;
  return config;
}

TEST(RpcCollector, ZeroFaultsIsByteIdenticalToDirect) {
  const auto sources = make_sources(4, 11);
  const auto candidates = line_candidates();
  const CollectionContext context{candidates, 3, 99};

  core::DirectCollector direct;
  const CollectedSummaries expected = direct.collect(sources, context);

  RpcCollector rpc(fast_config(), std::make_shared<VirtualClock>());
  const CollectedSummaries actual = rpc.collect(sources, context);

  EXPECT_EQ(fingerprint(actual.summaries), fingerprint(expected.summaries));
  EXPECT_EQ(actual.summary_bytes, expected.summary_bytes);
  EXPECT_TRUE(actual.stale_sources.empty());
  EXPECT_TRUE(actual.lost_sources.empty());
  EXPECT_EQ(rpc.last_stats().responses_ok, sources.size());
  EXPECT_EQ(rpc.last_stats().requests_sent, sources.size());
  EXPECT_EQ(rpc.last_stats().faults_hit, 0u);
  EXPECT_EQ(rpc.last_stats().retries, 0u);
}

TEST(RpcCollector, EmptySourcesCompleteTrivially) {
  RpcCollector rpc(fast_config(), std::make_shared<VirtualClock>());
  const auto candidates = line_candidates();
  const CollectedSummaries collected = rpc.collect({}, {candidates, 3, 1});
  EXPECT_TRUE(collected.summaries.empty());
  EXPECT_EQ(collected.summary_bytes, 0u);
}

/// The fault matrix: every single-fault schedule, at two retry budgets.
/// For each cell the test recomputes the injector's verdict per source and
/// asserts the collector matched it exactly — recovered sources reproduce
/// the direct bytes, doomed sources without a cache are lost.
struct MatrixCase {
  const char* label;
  FaultConfig faults;
};

std::vector<MatrixCase> fault_matrix() {
  std::vector<MatrixCase> cases;
  for (const char* kind : {"drop", "delay", "duplicate", "truncate", "disconnect"}) {
    FaultConfig faults;
    faults.seed = 77;
    const double p = 0.45;
    if (std::string(kind) == "drop") faults.drop = p;
    if (std::string(kind) == "delay") faults.delay = p;
    if (std::string(kind) == "duplicate") faults.duplicate = p;
    if (std::string(kind) == "truncate") faults.truncate = p;
    if (std::string(kind) == "disconnect") faults.disconnect = p;
    cases.push_back({kind, faults});
  }
  return cases;
}

TEST(RpcCollector, FaultMatrixMatchesTheOracleAcrossRetryBudgets) {
  const auto sources = make_sources(3, 23);
  const auto candidates = line_candidates();
  core::DirectCollector direct;

  for (const MatrixCase& test_case : fault_matrix()) {
    for (const std::size_t budget : {std::size_t{1}, std::size_t{3}}) {
      RpcCollectorConfig config = fast_config();
      config.faults = test_case.faults;
      config.faults.delay_ms = 5;
      config.max_attempts = budget;
      const FaultInjector oracle(config.faults);

      const std::uint64_t salt = 1000;
      const CollectionContext context{candidates, 3, salt};
      RpcCollector rpc(config, std::make_shared<VirtualClock>());
      const CollectedSummaries collected = rpc.collect(sources, context);

      // Expected composition straight from the oracle.
      std::vector<cluster::MicroCluster> expected_summaries;
      std::vector<topo::NodeId> expected_lost;
      std::size_t expected_bytes = 0;
      for (std::size_t s = 0; s < sources.size(); ++s) {
        if (source_recovers(oracle, salt, s, budget)) {
          ByteWriter writer;
          cluster::write_clusters(writer, sources[s].clusters);
          expected_bytes += writer.size();
          for (const auto& micro : sources[s].clusters) expected_summaries.push_back(micro);
        } else {
          expected_lost.push_back(sources[s].node);  // first round: no cache
        }
      }

      EXPECT_EQ(fingerprint(collected.summaries), fingerprint(expected_summaries))
          << test_case.label << " budget=" << budget;
      EXPECT_EQ(collected.summary_bytes, expected_bytes)
          << test_case.label << " budget=" << budget;
      EXPECT_EQ(collected.lost_sources, expected_lost)
          << test_case.label << " budget=" << budget;
      EXPECT_TRUE(collected.stale_sources.empty());

      // Delay and duplicate schedules never burn an attempt, so with these
      // single-fault configs they must converge to full direct parity.
      if (std::string(test_case.label) == "delay" ||
          std::string(test_case.label) == "duplicate") {
        const CollectedSummaries reference = direct.collect(sources, context);
        EXPECT_EQ(fingerprint(collected.summaries), fingerprint(reference.summaries))
            << test_case.label << " budget=" << budget;
        EXPECT_EQ(collected.summary_bytes, reference.summary_bytes);
      }
    }
  }
}

TEST(RpcCollector, FaultRunsAreDeterministicGivenTheSeed) {
  const auto sources = make_sources(3, 31);
  const auto candidates = line_candidates();
  RpcCollectorConfig config = fast_config();
  config.faults.drop = 0.3;
  config.faults.truncate = 0.2;
  config.faults.disconnect = 0.2;
  config.faults.seed = 5;
  config.max_attempts = 2;
  const CollectionContext context{candidates, 3, 424242};

  auto run = [&] {
    RpcCollector rpc(config, std::make_shared<VirtualClock>());
    CollectedSummaries collected = rpc.collect(sources, context);
    return std::make_pair(fingerprint(collected.summaries), collected.lost_sources);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(RpcCollector, ExhaustedRetriesFallBackToTheCachedEpoch) {
  const auto sources = make_sources(3, 47);
  const auto candidates = line_candidates();
  RpcCollectorConfig config = fast_config();
  config.faults.disconnect = 0.5;  // fail-fast fault: no real-time waiting
  config.faults.seed = 13;
  config.max_attempts = 2;
  const FaultInjector oracle(config.faults);

  const std::uint64_t clean_salt = find_clean_salt(oracle, sources.size(), config.max_attempts);
  const std::uint64_t failing_salt =
      find_failing_salt(oracle, sources.size(), config.max_attempts, clean_salt + 1);

  RpcCollector rpc(config, std::make_shared<VirtualClock>());
  // Round 1: everything lands; the cache is primed for every node.
  const CollectedSummaries primed = rpc.collect(sources, {candidates, 3, clean_salt});
  ASSERT_TRUE(primed.stale_sources.empty());
  ASSERT_TRUE(primed.lost_sources.empty());

  // Round 2: some sources exhaust their budget and must be served stale.
  const CollectedSummaries degraded = rpc.collect(sources, {candidates, 3, failing_salt});
  std::vector<topo::NodeId> expected_stale;
  std::size_t expected_fresh_bytes = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (source_recovers(oracle, failing_salt, s, config.max_attempts)) {
      ByteWriter writer;
      cluster::write_clusters(writer, sources[s].clusters);
      expected_fresh_bytes += writer.size();
    } else {
      expected_stale.push_back(sources[s].node);
    }
  }
  ASSERT_FALSE(expected_stale.empty());
  EXPECT_EQ(degraded.stale_sources, expected_stale);
  EXPECT_TRUE(degraded.lost_sources.empty());  // every node has a cached round
  EXPECT_EQ(degraded.summary_bytes, expected_fresh_bytes);
  EXPECT_EQ(rpc.last_stats().stale_fallbacks, expected_stale.size());
  // The cache replays the same sources, so the collected set is unchanged.
  const CollectedSummaries reference =
      core::DirectCollector().collect(sources, {candidates, 3, failing_salt});
  EXPECT_EQ(fingerprint(degraded.summaries), fingerprint(reference.summaries));
}

TEST(RpcCollector, AllSourcesLostStillCompletesTheEpoch) {
  const auto sources = make_sources(2, 53);
  const auto candidates = line_candidates();
  RpcCollectorConfig config = fast_config();
  config.faults.disconnect = 1.0;
  config.max_attempts = 2;
  RpcCollector rpc(config, std::make_shared<VirtualClock>());
  const CollectedSummaries collected = rpc.collect(sources, {candidates, 3, 7});
  EXPECT_TRUE(collected.summaries.empty());
  EXPECT_EQ(collected.summary_bytes, 0u);
  ASSERT_EQ(collected.lost_sources.size(), sources.size());
  EXPECT_EQ(rpc.last_stats().lost_sources, sources.size());
  EXPECT_EQ(rpc.last_stats().responses_ok, 0u);
  // Every attempt was made and failed.
  EXPECT_EQ(rpc.last_stats().faults_hit, sources.size() * config.max_attempts);
  EXPECT_EQ(rpc.last_stats().retries, sources.size() * (config.max_attempts - 1));
}

TEST(RpcCollector, BackoffIsSpentOnTheInjectedClock) {
  const auto sources = make_sources(1, 59);
  const auto candidates = line_candidates();
  RpcCollectorConfig config = fast_config();
  config.faults.disconnect = 1.0;
  config.max_attempts = 5;
  config.backoff_initial_ms = 1;
  config.backoff_cap_ms = 4;
  auto clock = std::make_shared<VirtualClock>();
  RpcCollector rpc(config, clock);
  rpc.collect(sources, {candidates, 3, 1});
  // Retries 1..4 back off 1, 2, 4, 4 (capped) virtual ms.
  EXPECT_EQ(rpc.last_stats().backoff_ms_total, 1u + 2u + 4u + 4u);
  EXPECT_GE(clock->elapsed_ms(), rpc.last_stats().backoff_ms_total);
}

TEST(RpcCollector, StatsRenderOneLine) {
  RpcStats stats;
  stats.requests_sent = 5;
  stats.responses_ok = 4;
  stats.faults_hit = 1;
  const std::string line = stats.to_string();
  EXPECT_NE(line.find("requests=5"), std::string::npos);
  EXPECT_NE(line.find("ok=4"), std::string::npos);
  EXPECT_NE(line.find("faults=1"), std::string::npos);
}

TEST(RpcCollector, RejectsTimeoutsBelowTheInjectedDelay) {
  RpcCollectorConfig config;
  config.timeout_ms = 5;
  config.faults.delay_ms = 5;
  EXPECT_THROW(RpcCollector{config}, std::invalid_argument);
  RpcCollectorConfig zero_budget;
  zero_budget.max_attempts = 0;
  EXPECT_THROW(RpcCollector{zero_budget}, std::invalid_argument);
}

// --- Manager-level equivalence -------------------------------------------
// The collector plugged into a full ReplicationManager must reproduce the
// direct pipeline's epoch reports bit for bit when faults are off. Reports
// are rendered with hex floats so equality means bitwise identity.

void append_placement(std::string& out, const place::Placement& p) {
  out += "[";
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(p[i]);
  }
  out += "]";
}

std::string format_report(const core::EpochReport& r) {
  std::string out;
  append_placement(out, r.old_placement);
  append_placement(out, r.proposed_placement);
  append_placement(out, r.adopted_placement);
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                " old=%a new=%a migrate=%d moved=%zu bytes=%zu accesses=%llu degree=%zu "
                "stale=%zu lost=%zu",
                r.old_estimated_delay_ms, r.new_estimated_delay_ms,
                r.decision.migrate ? 1 : 0, r.replicas_moved, r.summary_bytes,
                static_cast<unsigned long long>(r.epoch_accesses), r.degree, r.stale_sources,
                r.lost_sources);
  out += buffer;
  return out;
}

core::ManagerConfig golden_config() {
  core::ManagerConfig config;
  config.replication_degree = 3;
  config.summarizer.max_clusters = 4;
  config.summarizer.min_absorb_radius = 10.0;
  return config;
}

std::unique_ptr<core::SummaryCollector> rpc_collector() {
  core::CollectorConfig collector_config;
  collector_config.rpc.timeout_ms = 60;
  collector_config.rpc_clock = std::make_shared<VirtualClock>();
  return core::make_collector("rpc", collector_config);
}

TEST(RpcEquivalence, ManagerEpochReportsMatchDirectBitForBit) {
  const core::ManagerConfig config = golden_config();
  core::ReplicationManager direct(line_candidates(), config, 7);
  core::ReplicationManager rpc(line_candidates(), config, 7, rpc_collector());

  Rng direct_rng(5);
  Rng rpc_rng(5);
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < 900; ++i) {
      direct.serve(Point{direct_rng.normal(0.0, 15.0)});
      direct.serve(Point{direct_rng.normal(430.0, 15.0)});
      direct.serve(Point{direct_rng.normal(900.0, 15.0)});
      rpc.serve(Point{rpc_rng.normal(0.0, 15.0)});
      rpc.serve(Point{rpc_rng.normal(430.0, 15.0)});
      rpc.serve(Point{rpc_rng.normal(900.0, 15.0)});
    }
    EXPECT_EQ(format_report(rpc.run_epoch()), format_report(direct.run_epoch()))
        << "epoch " << epoch;
  }
}

TEST(RpcEquivalence, FaultyEpochsAreReproducibleGivenTheSeed) {
  // Same manager seed + same fault seed => the same epochs degrade the same
  // way, twice in a row. This pins the determinism half of the tentpole.
  const core::ManagerConfig config = golden_config();
  auto run = [&] {
    core::CollectorConfig collector_config;
    collector_config.rpc.timeout_ms = 60;
    collector_config.rpc.max_attempts = 2;
    collector_config.rpc.faults.disconnect = 0.4;
    collector_config.rpc.faults.seed = 3;
    collector_config.rpc_clock = std::make_shared<VirtualClock>();
    core::ReplicationManager manager(line_candidates(), config, 7,
                                     core::make_collector("rpc", collector_config));
    Rng rng(5);
    std::string transcript;
    for (int epoch = 0; epoch < 4; ++epoch) {
      for (int i = 0; i < 300; ++i) {
        manager.serve(Point{rng.normal(0.0, 15.0)});
        manager.serve(Point{rng.normal(430.0, 15.0)});
        manager.serve(Point{rng.normal(900.0, 15.0)});
      }
      transcript += format_report(manager.run_epoch());
      transcript += "\n";
    }
    return transcript;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace geored::net
