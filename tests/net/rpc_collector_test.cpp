// RpcCollector contract tests.
//
// Three pillars, mirroring the collector's guarantees:
//   1. Byte parity — with faults disabled, collected summaries and the
//      reported summary_bytes are identical to DirectCollector after either
//      phase (centroid frames, then departure masks and departing moment
//      frames on the hand-off plan), all the way up to bit-identical
//      ReplicationManager epoch reports.
//   2. Determinism under faults — the FaultInjector is a pure function of
//      (seed, salt, source, attempt), so the test re-derives the oracle's
//      verdict per source and asserts the collector behaved exactly as
//      planned: recoverable schedules converge to the direct bytes, fatal
//      schedules fall back to the cache (stale) or drop out (lost), a
//      source that is stale in phase 1 hands no clusters to the adopted
//      placement, and one that runs out of retries in phase 2 loses only
//      the clusters that were to change replica.
//   3. Graceful degradation — an epoch always completes, whatever fails.
//
// Everything runs on a VirtualClock, so retries and injected delays cost no
// wall time; only drop faults spend real milliseconds (the client's poll
// timeout), which the configs below keep tiny.
#include "net/rpc_collector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/summarizer.h"
#include "common/random.h"
#include "common/serialize.h"
#include "core/replication_manager.h"
#include "placement/candidate_table.h"
#include "reference/microcluster.h"

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
/// location, exactly what a replica would report. A source views its
/// clusters in place, so they are kept for the life of the test binary.
std::vector<SummarySource> make_sources(std::size_t count, std::uint64_t seed) {
  static std::deque<cluster::ClusterBuffer> kept;
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
    sources[s].clusters = kept.emplace_back(summarizer.clusters()).view();
  }
  return sources;
}

/// Synthetic sources whose replicas serve two populations: one at their own
/// location and one five candidates along, so a placement holding both
/// keeps some of each source's clusters and moves the others.
std::vector<SummarySource> make_split_sources(std::size_t count, std::uint64_t seed) {
  static std::deque<cluster::ClusterBuffer> kept;
  Rng rng(seed);
  std::vector<SummarySource> sources(count);
  for (std::size_t s = 0; s < count; ++s) {
    sources[s].node = static_cast<topo::NodeId>(s);
    cluster::SummarizerConfig config;
    config.max_clusters = 4;
    config.min_absorb_radius = 10.0;
    cluster::MicroClusterSummarizer summarizer(config);
    for (int i = 0; i < 60; ++i) {
      const double center = 100.0 * static_cast<double>(s + (i % 2 == 0 ? 0 : 5));
      summarizer.add(Point{rng.normal(center, 12.0)});
    }
    sources[s].clusters = kept.emplace_back(summarizer.clusters()).view();
  }
  return sources;
}

/// The placement that keeps each split source's home population where it
/// is and moves the other one: candidates 0..count-1 and 5..5+count-1.
place::Placement split_placement(std::size_t count) {
  place::Placement next;
  for (std::size_t s = 0; s < count; ++s) next.push_back(static_cast<topo::NodeId>(s));
  for (std::size_t s = 0; s < count; ++s) next.push_back(static_cast<topo::NodeId>(s + 5));
  return next;
}

/// Bit-exact fingerprint of the hand-off a round planned and completed:
/// per row, its centroid-frame fields, its destination, and its second
/// moments when it carries them.
std::vector<std::uint8_t> handoff_fingerprint(const cluster::ClusterBuffer& rows) {
  ByteWriter writer;
  const cluster::ClusterView view = rows.view();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    writer.write_u64(view.count(i));
    writer.write_f64s(view.sum(i));
    writer.write_u32(rows.destination(i));
    writer.write_u32(rows.has_moments(i) ? 1 : 0);
    if (rows.has_moments(i)) writer.write_f64s(view.sum2(i));
  }
  return writer.bytes();
}

/// What phase 2 of a zero-fault round sends, from the codec: for each source
/// with a cluster whose plan destination is another replica, its departure
/// mask and its departing moment frame. `asked` counts those sources.
std::size_t phase_two_bytes(const std::vector<SummarySource>& sources,
                            const cluster::ClusterBuffer& planned, std::size_t* asked) {
  std::size_t bytes = 0;
  std::size_t row = 0;
  for (const auto& source : sources) {
    cluster::DepartureMask mask(source.clusters.size());
    for (std::size_t i = 0; i < source.clusters.size(); ++i, ++row) {
      if (planned.destination(row) != source.node) mask.set(i);
    }
    if (mask.departing() == 0) continue;
    ByteWriter writer;
    cluster::write_departing_moment_frame(writer, source.clusters, mask);
    bytes += mask.bytes().size() + writer.size();
    if (asked != nullptr) ++*asked;
  }
  return bytes;
}

/// Bit-exact fingerprint of what phase 1 collects: the centroid frame over
/// the flattened clusters.
std::vector<std::uint8_t> centroid_fingerprint(cluster::ClusterView summaries) {
  ByteWriter writer;
  cluster::write_centroid_frame(writer, summaries);
  return writer.bytes();
}

std::size_t centroid_frame_bytes(cluster::ClusterView clusters) {
  return centroid_fingerprint(clusters).size();
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
  CollectedSummaries expected = direct.collect(sources, context);

  RpcCollector rpc(fast_config(), std::make_shared<VirtualClock>());
  CollectedSummaries actual = rpc.collect(sources, context);

  // Phase 1 ships no second moments: only what propose and gate read.
  for (const auto& micro : cluster::to_micro_clusters(actual.summaries.view())) {
    EXPECT_EQ(micro.sum2().dim(), 0u);
  }
  EXPECT_EQ(centroid_fingerprint(actual.summaries.view()),
            centroid_fingerprint(expected.summaries.view()));
  EXPECT_EQ(actual.summary_bytes, expected.summary_bytes);
  EXPECT_TRUE(actual.stale_sources.empty());
  EXPECT_TRUE(actual.lost_sources.empty());
  EXPECT_EQ(rpc.last_stats().responses_ok, sources.size());
  EXPECT_EQ(rpc.last_stats().requests_sent, sources.size());
  EXPECT_EQ(rpc.last_stats().faults_hit, 0u);
  EXPECT_EQ(rpc.last_stats().retries, 0u);

  // Phase 2 on one hand-off plan completes the same departing clusters, bit
  // for bit. Sources 0 and 2 keep their replica and every cluster; 1 and 3
  // hand theirs to another replica, and only they are asked.
  const place::CandidateTable table(candidates);
  const place::Placement next{0, 2, 5};
  core::plan_handoff(next, table, expected.summaries);
  core::plan_handoff(next, table, actual.summaries);
  direct.collect_moments(sources, context, expected);
  rpc.collect_moments(sources, context, actual);
  EXPECT_EQ(handoff_fingerprint(actual.summaries), handoff_fingerprint(expected.summaries));
  EXPECT_EQ(actual.summary_bytes, expected.summary_bytes);
  EXPECT_TRUE(actual.handoff_lost_sources.empty());
  EXPECT_EQ(rpc.last_stats().responses_ok, sources.size() + 2);
  EXPECT_EQ(rpc.last_stats().requests_sent, sources.size() + 2);
  EXPECT_EQ(rpc.last_stats().faults_hit, 0u);
}

TEST(RpcCollector, SummaryBytesAreThePayloadBytes) {
  // Direct sizes each source's frames; rpc counts the bytes that crossed the
  // socket. Both are the sources' centroid frames after phase 1, plus, after
  // phase 2, each asked source's departure mask and departing moment frame.
  const auto sources = make_split_sources(4, 13);
  const auto candidates = line_candidates();
  const CollectionContext context{candidates, 8, 7};
  const place::CandidateTable table(candidates);
  std::size_t centroid_bytes = 0;
  for (const auto& source : sources) centroid_bytes += centroid_frame_bytes(source.clusters);

  RpcCollector rpc(fast_config(), std::make_shared<VirtualClock>());
  CollectedSummaries by_rpc = rpc.collect(sources, context);
  EXPECT_EQ(by_rpc.summary_bytes, centroid_bytes);
  core::plan_handoff(split_placement(sources.size()), table, by_rpc.summaries);
  std::size_t asked = 0;
  const std::size_t moment_bytes = phase_two_bytes(sources, by_rpc.summaries, &asked);
  EXPECT_EQ(asked, sources.size());
  rpc.collect_moments(sources, context, by_rpc);
  EXPECT_EQ(by_rpc.summary_bytes, centroid_bytes + moment_bytes);
  core::DirectCollector direct;
  CollectedSummaries by_direct = direct.collect(sources, context);
  EXPECT_EQ(by_direct.summary_bytes, centroid_bytes);
  core::plan_handoff(split_placement(sources.size()), table, by_direct.summaries);
  direct.collect_moments(sources, context, by_direct);
  EXPECT_EQ(by_direct.summary_bytes, centroid_bytes + moment_bytes);
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
      cluster::ClusterBuffer expected_summaries;
      std::vector<topo::NodeId> expected_lost;
      std::size_t expected_bytes = 0;
      for (std::size_t s = 0; s < sources.size(); ++s) {
        if (source_recovers(oracle, salt, s, budget)) {
          expected_bytes += centroid_frame_bytes(sources[s].clusters);
          expected_summaries.append(sources[s].clusters);
        } else {
          expected_lost.push_back(sources[s].node);  // first round: no cache
        }
      }

      EXPECT_EQ(centroid_fingerprint(collected.summaries.view()),
                centroid_fingerprint(expected_summaries.view()))
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
        EXPECT_EQ(centroid_fingerprint(collected.summaries.view()),
                  centroid_fingerprint(reference.summaries.view()))
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
    return std::make_pair(centroid_fingerprint(collected.summaries.view()),
                          collected.lost_sources);
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
      expected_fresh_bytes += centroid_frame_bytes(sources[s].clusters);
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
  EXPECT_EQ(centroid_fingerprint(degraded.summaries.view()),
            centroid_fingerprint(reference.summaries.view()));
}

/// A salt under which every source recovers in phase 1 but at least one
/// runs out of retries in phase 2.
std::uint64_t find_phase_two_failing_salt(const FaultInjector& injector, std::size_t sources,
                                          std::size_t max_attempts) {
  for (std::uint64_t salt = 0; salt < 10000; ++salt) {
    bool phase_one_clean = true;
    bool phase_two_fails = false;
    for (std::uint64_t s = 0; s < sources; ++s) {
      phase_one_clean = phase_one_clean && source_recovers(injector, salt, s, max_attempts);
      phase_two_fails = phase_two_fails ||
                        !source_recovers(injector, salt ^ kMomentPhaseSalt, s, max_attempts);
    }
    if (phase_one_clean && phase_two_fails) return salt;
  }
  ADD_FAILURE() << "no salt that fails only phase 2";
  return 0;
}

/// What a two-phase round handed off, for replay comparisons.
struct HandOff {
  std::vector<std::uint8_t> clusters;  ///< handoff_fingerprint of the rows left
  std::size_t summary_bytes = 0;
  std::vector<topo::NodeId> stale;
  std::vector<topo::NodeId> handoff_lost;
  bool operator==(const HandOff&) const = default;
};

HandOff hand_off(const CollectedSummaries& collected) {
  return {handoff_fingerprint(collected.summaries), collected.summary_bytes,
          collected.stale_sources, collected.handoff_lost_sources};
}

/// The oracle's hand-off over split sources: `sources` collected directly
/// and planned onto split_placement, keeping of source s every staying
/// cluster, and its departing clusters (moments and all) when `completes(s)`;
/// `fresh(s)` false drops all of s's clusters.
template <typename Fresh, typename Completes>
cluster::ClusterBuffer expected_hand_off(const std::vector<SummarySource>& sources,
                                         const std::vector<place::CandidateInfo>& candidates,
                                         const Fresh& fresh, const Completes& completes) {
  core::DirectCollector direct;
  const CollectionContext context{candidates, 8, 0};
  CollectedSummaries collected = direct.collect(sources, context);
  core::plan_handoff(split_placement(sources.size()), place::CandidateTable(candidates),
                     collected.summaries);
  direct.collect_moments(sources, context, collected);
  std::vector<bool> keep;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (std::size_t i = 0; i < sources[s].clusters.size(); ++i) {
      const bool departs = collected.summaries.departs(keep.size());
      keep.push_back(fresh(s) && (!departs || completes(s)));
    }
  }
  collected.summaries.retain_rows(keep);
  return std::move(collected.summaries);
}

TEST(RpcCollector, PhaseTwoRetriesRunningOutDropOnlyTheDepartingClusters) {
  const auto sources = make_split_sources(4, 61);
  const auto candidates = line_candidates();
  const place::CandidateTable table(candidates);
  RpcCollectorConfig config = fast_config();
  config.faults.disconnect = 0.5;  // fail-fast fault: no real-time waiting
  config.faults.seed = 19;
  config.max_attempts = 2;
  const FaultInjector oracle(config.faults);
  const std::uint64_t salt =
      find_phase_two_failing_salt(oracle, sources.size(), config.max_attempts);
  const CollectionContext context{candidates, 8, salt};

  // The oracle's hand-off: every source is fresh in phase 1 and has clusters
  // that stay and clusters that depart. A source whose phase-2 fetch
  // recovers keeps all of them, the departing ones with their moments; one
  // that runs out of retries keeps only the clusters that stay on its
  // replica.
  const auto completes = [&](std::size_t s) {
    return source_recovers(oracle, salt ^ kMomentPhaseSalt, s, config.max_attempts);
  };
  const cluster::ClusterBuffer expected = expected_hand_off(
      sources, candidates, [](std::size_t) { return true; }, completes);
  std::vector<topo::NodeId> expected_lost;
  std::size_t expected_bytes = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    expected_bytes += centroid_frame_bytes(sources[s].clusters);
    if (!completes(s)) expected_lost.push_back(sources[s].node);
  }
  ASSERT_FALSE(expected_lost.empty());

  const auto run = [&] {
    RpcCollector rpc(config, std::make_shared<VirtualClock>());
    CollectedSummaries collected = rpc.collect(sources, context);
    EXPECT_TRUE(collected.stale_sources.empty());
    EXPECT_TRUE(collected.lost_sources.empty());
    core::plan_handoff(split_placement(sources.size()), table, collected.summaries);
    std::size_t answered = 0;
    for (std::size_t s = 0; s < sources.size(); ++s) {
      if (!completes(s)) continue;
      std::vector<SummarySource> one{sources[s]};
      cluster::ClusterBuffer rows;
      rows.append_centroids(sources[s].clusters, sources[s].node);
      core::plan_handoff(split_placement(sources.size()), table, rows);
      answered += phase_two_bytes(one, rows, nullptr);
    }
    rpc.collect_moments(sources, context, collected);
    EXPECT_EQ(collected.summary_bytes, expected_bytes + answered);
    return hand_off(collected);
  };
  const HandOff first = run();
  EXPECT_EQ(first.clusters, handoff_fingerprint(expected));
  EXPECT_EQ(first.handoff_lost, expected_lost);
  EXPECT_TRUE(first.stale.empty());
  EXPECT_EQ(run(), first) << "phase 2 must replay identically given the seed";
}

TEST(RpcCollector, StaleSourceHandsNoClustersToTheAdoptedPlacement) {
  const auto sources = make_split_sources(3, 67);
  const auto candidates = line_candidates();
  const place::CandidateTable table(candidates);
  RpcCollectorConfig config = fast_config();
  config.faults.disconnect = 0.5;
  config.faults.seed = 23;
  config.max_attempts = 2;
  const FaultInjector oracle(config.faults);
  const std::uint64_t clean_salt =
      find_clean_salt(oracle, sources.size(), config.max_attempts);
  // Some source goes stale in phase 1, and every fresh one completes phase 2,
  // so the only hand-off losses are the stale fallbacks.
  std::uint64_t salt = clean_salt + 1;
  for (;; ++salt) {
    ASSERT_LT(salt, clean_salt + 10000) << "no salt with a stale source and a clean phase 2";
    bool stale = false;
    bool phase_two_clean = true;
    for (std::uint64_t s = 0; s < sources.size(); ++s) {
      if (!source_recovers(oracle, salt, s, config.max_attempts)) {
        stale = true;
      } else if (!source_recovers(oracle, salt ^ kMomentPhaseSalt, s, config.max_attempts)) {
        phase_two_clean = false;
      }
    }
    if (stale && phase_two_clean) break;
  }
  const CollectionContext context{candidates, 8, salt};

  const auto fresh = [&](std::size_t s) {
    return source_recovers(oracle, salt, s, config.max_attempts);
  };
  const cluster::ClusterBuffer expected =
      expected_hand_off(sources, candidates, fresh, [](std::size_t) { return true; });
  std::vector<topo::NodeId> expected_stale;
  std::size_t expected_bytes = 0;
  std::size_t stale_clusters = 0;
  std::vector<SummarySource> fresh_sources;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (fresh(s)) {
      expected_bytes += centroid_frame_bytes(sources[s].clusters);
      fresh_sources.push_back(sources[s]);
    } else {
      expected_stale.push_back(sources[s].node);
      stale_clusters += sources[s].clusters.size();
    }
  }
  {
    cluster::ClusterBuffer rows;
    for (const auto& source : fresh_sources) {
      rows.append_centroids(source.clusters, source.node);
    }
    core::plan_handoff(split_placement(sources.size()), table, rows);
    expected_bytes += phase_two_bytes(fresh_sources, rows, nullptr);
  }

  const auto run = [&] {
    RpcCollector rpc(config, std::make_shared<VirtualClock>());
    rpc.collect(sources, {candidates, 8, clean_salt});  // primes every node's cache
    CollectedSummaries collected = rpc.collect(sources, context);
    EXPECT_EQ(collected.summaries.size(), expected.size() + stale_clusters)
        << "phase 1 serves the stale sources from the cache";
    core::plan_handoff(split_placement(sources.size()), table, collected.summaries);
    rpc.collect_moments(sources, context, collected);
    return hand_off(collected);
  };
  const HandOff first = run();
  EXPECT_EQ(first.stale, expected_stale);
  EXPECT_EQ(first.handoff_lost, expected_stale);
  EXPECT_EQ(first.clusters, handoff_fingerprint(expected));
  EXPECT_EQ(first.summary_bytes, expected_bytes);
  EXPECT_EQ(run(), first) << "a stale hand-off must replay identically given the seed";
}

TEST(RpcCollector, PhaseTwoRejectsAForeignRound) {
  const auto sources = make_sources(3, 71);
  const auto candidates = line_candidates();
  const CollectionContext context{candidates, 3, 5};
  RpcCollector rpc(fast_config(), std::make_shared<VirtualClock>());
  CollectedSummaries collected = rpc.collect(sources, context);
  const std::vector<SummarySource> fewer(sources.begin(), sources.end() - 1);
  EXPECT_THROW(rpc.collect_moments(fewer, context, collected), std::invalid_argument);
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
  config.max_attempts = 6;
  auto clock = std::make_shared<VirtualClock>();
  RpcCollector rpc(config, clock);
  rpc.collect(sources, {candidates, 3, 1});
  // Retries 1..5 back off 1, 2, 4, 8, 8 (capped) virtual ms.
  EXPECT_EQ(rpc.last_stats().backoff_ms_total, 1u + 2u + 4u + 8u + 8u);
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
                "stale=%zu lost=%zu handoff_lost=%zu",
                r.old_estimated_delay_ms, r.new_estimated_delay_ms,
                r.decision.migrate ? 1 : 0, r.replicas_moved, r.summary_bytes,
                static_cast<unsigned long long>(r.epoch_accesses), r.degree, r.stale_sources,
                r.lost_sources, r.handoff_lost_sources);
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

/// Passes a collector through, checking that every cluster of its phase 1,
/// what propose and gate read, carries no second moments.
struct NoMomentsInPhaseOne final : core::SummaryCollector {
  NoMomentsInPhaseOne(std::unique_ptr<core::SummaryCollector> wrapped, std::size_t& checked)
      : inner(std::move(wrapped)), clusters_checked(checked) {}
  std::string name() const override { return inner->name(); }
  CollectedSummaries collect(const std::vector<SummarySource>& sources,
                             const CollectionContext& context) override {
    CollectedSummaries collected = inner->collect(sources, context);
    for (const auto& micro : cluster::to_micro_clusters(collected.summaries.view())) {
      EXPECT_EQ(micro.sum2().dim(), 0u);
    }
    clusters_checked += collected.summaries.size();
    return collected;
  }
  void collect_moments(const std::vector<SummarySource>& sources,
                       const CollectionContext& context,
                       CollectedSummaries& collected) override {
    inner->collect_moments(sources, context, collected);
  }
  std::unique_ptr<core::SummaryCollector> inner;
  std::size_t& clusters_checked;
};

TEST(RpcEquivalence, ManagerEpochReportsMatchDirectBitForBit) {
  // The rpc manager proposes and gates on phase-1 clusters that carry no
  // second moments, and still decides exactly as the direct manager does:
  // propose and gate never read them.
  const core::ManagerConfig config = golden_config();
  core::ReplicationManager direct(line_candidates(), config, 7);
  std::size_t clusters_checked = 0;
  core::ReplicationManager rpc(
      line_candidates(), config, 7,
      std::make_unique<NoMomentsInPhaseOne>(rpc_collector(), clusters_checked));

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
  EXPECT_GT(clusters_checked, 0u);
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
