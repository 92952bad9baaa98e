// The four workloads. Each one puts most of its epoch in a different layer:
//
//   geo_steady    ingest (core record path + cluster summarizer)
//   fleet_budget  control plane (per-group epochs, budget re-division)
//   serve_outage  data plane (request router + admission queues)
//   kv_quorum     replicated store on the discrete-event simulator
//
// so a change to one layer shows on its own workload and, on the others,
// the prediction is no change.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <set>
#include <string>

#include "common/random.h"
#include "core/fleet_manager.h"
#include "driver.h"
#include "serve/request_router.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "store/kvstore.h"

namespace geored::e2e {
namespace {

/// Zipf(s) popularity over a seeded permutation of `n` items.
class Popularity {
 public:
  Popularity(std::size_t n, double s, std::uint64_t seed)
      : zipf_(n, s), order_(Rng(seed).permutation(n)) {}
  std::size_t draw(Rng& rng) const { return order_[zipf_.sample(rng)]; }

 private:
  ZipfSampler zipf_;
  std::vector<std::size_t> order_;
};

/// Writes client site `site`'s coordinates plus one pre-drawn jitter row.
void jittered(const World& world, std::size_t site, Rng& rng, double* out) {
  const double* base = world.site_coords.row(site);
  const double* noise = world.jitter.row(rng.below(world.jitter.size()));
  for (std::size_t d = 0; d < World::kDim; ++d) out[d] = base[d] + noise[d];
}

/// The sites with at least one access, as the placement evaluators take them.
std::vector<place::ClientRecord> client_records(const World& world,
                                                const std::uint32_t* counts) {
  std::vector<place::ClientRecord> records;
  for (std::size_t site = 0; site < world.sites.size(); ++site) {
    if (counts[site] == 0) continue;
    place::ClientRecord record;
    record.client = world.sites[site];
    record.access_count = counts[site];
    records.push_back(std::move(record));
  }
  return records;
}

std::vector<serve::ReplicaSpec> replica_specs(const World& world,
                                              const place::Placement& placement) {
  std::vector<serve::ReplicaSpec> specs;
  for (const auto node : placement) specs.push_back({node, world.candidates[node].coords});
  return specs;
}

/// Per-replica batches of routed requests, rebuilt every epoch.
class ReplicaBatches {
 public:
  void clear() {
    for (auto& rows : rows_) rows.clear();
  }
  void add(topo::NodeId replica, const double* row) {
    rows_[replica].push_back_row(row, World::kDim);
  }
  /// One core.record span per replica batch, in node order.
  void record(core::ReplicationManager& manager, Tracer& tracer) {
    for (topo::NodeId node = 0; node < rows_.size(); ++node) {
      if (rows_[node].empty()) continue;
      tracer.call("core.record", [&] { manager.record_access_batch(node, rows_[node]); });
    }
  }
  std::uint64_t rows() const {
    std::uint64_t total = 0;
    for (const auto& rows : rows_) total += rows.size();
    return total;
  }

 private:
  std::vector<PointSet> rows_ = std::vector<PointSet>(World::kCandidates, PointSet(World::kDim));
};

/// Requests with client coordinates and Poisson arrival times on a virtual
/// clock that runs on across epochs (the router needs it non-decreasing).
struct RequestStream {
  PointSet coords = PointSet(World::kDim);
  std::vector<std::uint32_t> sites;
  std::vector<double> nows;
  std::vector<std::uint32_t> counts;  ///< accesses per site
  double clock_ms = 0.0;

  void fill(const World& world, const Popularity& popularity, std::size_t n, double rate_per_ms,
            Rng& rng) {
    coords.clear();
    sites.resize(n);
    nows.resize(n);
    counts.assign(world.sites.size(), 0);
    double row[World::kDim];
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t site = popularity.draw(rng);
      jittered(world, site, rng, row);
      coords.push_back_row(row, World::kDim);
      sites[i] = static_cast<std::uint32_t>(site);
      ++counts[site];
      clock_ms += rng.exponential(rate_per_ms);
      nows[i] = clock_ms;
    }
  }
};

core::ManagerConfig single_object_config() {
  core::ManagerConfig config;
  config.replication_degree = 8;
  config.max_degree = 8;
  config.summarizer.max_clusters = 8;
  return config;
}

serve::ServeConfig serve_config() {
  serve::ServeConfig config;
  config.service_ms = 0.05;
  config.queue_cap = 64;
  config.policy = serve::ServeConfig::Policy::kSpill;
  return config;
}

/// Checks the router's accounting for an epoch of `offered` requests.
void account_router(const serve::RequestRouter& router, std::uint64_t offered,
                    Results& results) {
  const auto& stats = router.stats();
  results.check(stats.requests == offered, "router saw " + std::to_string(stats.requests) +
                                               " requests, offered " + std::to_string(offered));
  results.check(stats.requests == stats.admitted + stats.rejected + stats.lost,
                "router requests != admitted + rejected + lost");
  results.attempted += offered;
  results.failed += stats.rejected + stats.lost;
}

// ---------------------------------------------------------------------------
// geo_steady: one object, k=8, m=8, Zipf(0.8) over all 900 sites. Routed
// with route_batch, recorded per replica, flushed, then one epoch. Clients
// spread over the globe keep the summarizers on their create-and-merge path.

class GeoSteady final : public Workload {
 public:
  GeoSteady(const World& world, std::uint64_t seed, Scale scale)
      : world_(world),
        seed_(seed),
        accesses_(scale == Scale::kFull ? 300'000 : 20'000),
        popularity_(world.sites.size(), 0.8, kWorldSeed + 3),
        manager_(world.candidates, single_object_config(), seed + 12),
        router_(serve_config()) {
    router_.set_replicas(replica_specs(world_, manager_.placement()));
    decisions_.resize(accesses_);
  }

  void generate(std::uint32_t epoch) override {
    Rng rng = Rng(seed_ + 13).fork(epoch);
    // A tenth of the aggregate service capacity: routing, not queueing.
    const double rate = 0.1 * static_cast<double>(manager_.degree()) / serve_config().service_ms;
    stream_.fill(world_, popularity_, accesses_, rate, rng);
  }

  std::uint64_t run(std::uint32_t /*epoch*/, Tracer& tracer) override {
    tracer.call("serve.route", [&] {
      router_.route_batch(stream_.coords, nullptr, accesses_, stream_.nows.data(),
                          decisions_.data());
    });
    tracer.driver("bench.dispatch", [&] {
      batches_.clear();
      for (std::size_t i = 0; i < accesses_; ++i) {
        if (decisions_[i].admitted()) batches_.add(decisions_[i].replica, stream_.coords.row(i));
      }
    });
    batches_.record(manager_, tracer);
    tracer.call("core.flush", [&] { manager_.flush_ingest(); });
    tracer.call("core.run_epoch", [&] { report_ = manager_.run_epoch(); });
    if (report_.adopted_placement != report_.old_placement) {
      const auto specs = replica_specs(world_, report_.adopted_placement);
      tracer.call("serve.set_replicas", [&] { router_.set_replicas(specs); });
    }
    return accesses_;
  }

  void finish(std::uint32_t /*epoch*/, Results& results) override {
    account_router(router_, accesses_, results);
    spilled_ += router_.stats().spilled;
    serve::LatencyHistogram rtts;
    for (std::size_t i = 0; i < accesses_; ++i) {
      if (!decisions_[i].admitted()) continue;
      const double rtt = world_.topology.rtt_ms(world_.sites[stream_.sites[i]],
                                                decisions_[i].replica);
      if (results.deterministic) results.latency.record(rtt);
      rtts.record(rtt);
    }
    if (results.prefix) results.digest.add(rtts);
    const double delay =
        account_group(report_, manager_, batches_.rows(), world_.topology,
                      client_records(world_, stream_.counts.data()), results);
    if (results.deterministic) results.delay_sum_ms += delay / static_cast<double>(accesses_);
    router_.reset_epoch();
    ++epochs_;
  }

  void report(Results& results, const SpanMs& span_ms) override {
    const double n = static_cast<double>(accesses_);
    results.add("serve.spill_ratio", static_cast<double>(spilled_) / (n * epochs_), "ratio");
    if (span_ms.empty()) return;
    const double record_ms = per_epoch(span_ms, "core.record");
    results.add("core.ingest_ns_per_access",
                (record_ms + per_epoch(span_ms, "core.flush")) * 1e6 / n, "ns");
    results.add("core.record_ns_per_access", record_ms * 1e6 / n, "ns");
    results.add("serve.route_ns_per_req", per_epoch(span_ms, "serve.route") * 1e6 / n, "ns");
  }

 private:
  const World& world_;
  std::uint64_t seed_;
  std::size_t accesses_;
  Popularity popularity_;
  core::ReplicationManager manager_;
  serve::RequestRouter router_;
  RequestStream stream_;
  std::vector<serve::RouteDecision> decisions_;
  ReplicaBatches batches_;
  core::EpochReport report_;
  std::uint64_t spilled_ = 0;
  double epochs_ = 0.0;
};

// ---------------------------------------------------------------------------
// serve_outage: the data plane. Open-loop Poisson load at three fractions of
// the aggregate capacity k / service_ms, a rolling outage of one replica per
// 10-epoch window, and a placement manager fed a 1-in-64 sample of the
// served requests, so ingest is a few percent of the work.

/// Offered load per epoch, as a share of k / service_ms, cycling by epoch.
/// Nearest-replica routing of Zipf traffic sends a hot replica several
/// times its 1/k share, so the router saturates far below the aggregate
/// capacity (serve.capacity_rps reports where); these loads stay below that
/// so no request is rejected, and the capacity ladder probes beyond it.
constexpr double kServeLoads[] = {0.1, 0.15, 0.2};
constexpr std::size_t kLatencyRung = 1;  ///< the load whose latency is reported
constexpr std::size_t kSampleEvery = 64;
constexpr std::uint32_t kOutageWindow = 10;
/// Client p99 the capacity ladder holds each rung to: above the unloaded
/// p99 of the RTT to the nearest of k=8 replicas, so only queueing fails it.
constexpr double kCapacityP99LimitMs = 150.0;

class ServeOutage final : public Workload {
 public:
  ServeOutage(const World& world, std::uint64_t seed, Scale scale)
      : world_(world),
        seed_(seed),
        requests_(scale == Scale::kFull ? 500'000 : 50'000),
        ladder_requests_(scale == Scale::kFull ? 200'000 : 20'000),
        popularity_(world.sites.size(), 0.8, kWorldSeed + 3),
        manager_(world.candidates, single_object_config(), seed + 22),
        router_(serve_config()) {
    router_.set_replicas(replica_specs(world_, manager_.placement()));
    decisions_.resize(requests_);
    latency_.resize(requests_);
  }

  void generate(std::uint32_t epoch) override {
    Rng rng = Rng(seed_ + 23).fork(epoch);
    stream_.fill(world_, popularity_, requests_, rate(kServeLoads[epoch % 3]), rng);
    // One replica of the placement in force goes down for the middle of
    // every window; run_epoch then excludes it and the router fails over.
    const std::uint32_t phase = epoch % kOutageWindow;
    const std::set<topo::NodeId> before = down_;
    if (phase == 2) {
      const auto& placement = manager_.placement();
      down_ = {placement[(epoch / kOutageWindow) % placement.size()]};
    } else if (phase == 7) {
      down_.clear();
    }
    down_changed_ = down_ != before;
  }

  std::uint64_t run(std::uint32_t /*epoch*/, Tracer& tracer) override {
    if (down_changed_) tracer.call("serve.set_down", [&] { router_.set_down(down_); });
    tracer.call("serve.route", [&] {
      router_.route_batch(stream_.coords, nullptr, requests_, stream_.nows.data(),
                          decisions_.data());
    });
    // complete() takes the true RTT to the serving replica; the lookup is
    // the caller's share of the span.
    tracer.call("serve.complete", [&] {
      for (std::size_t i = 0; i < requests_; ++i) {
        const auto& decision = decisions_[i];
        if (!decision.admitted()) continue;
        latency_[i] = router_.complete(
            decision, world_.topology.rtt_ms(world_.sites[stream_.sites[i]], decision.replica));
      }
    });
    tracer.driver("bench.dispatch", [&] {
      batches_.clear();
      for (std::size_t i = 0; i < requests_; i += kSampleEvery) {
        if (decisions_[i].admitted()) batches_.add(decisions_[i].replica, stream_.coords.row(i));
      }
    });
    batches_.record(manager_, tracer);
    tracer.call("core.flush", [&] { manager_.flush_ingest(); });
    tracer.call("core.run_epoch", [&] { report_ = manager_.run_epoch(down_); });
    if (report_.adopted_placement != report_.old_placement) {
      const auto specs = replica_specs(world_, report_.adopted_placement);
      tracer.call("serve.set_replicas", [&] { router_.set_replicas(specs); });
    }
    return requests_;
  }

  void finish(std::uint32_t epoch, Results& results) override {
    account_router(router_, requests_, results);
    const auto& stats = router_.stats();
    spilled_ += stats.spilled;
    for (const auto& decision : decisions_) {
      if (decision.admitted()) wait_ms_ += decision.wait_ms;
    }
    latency_ms_ += router_.histogram().mean_ms() * static_cast<double>(stats.admitted);
    if (results.deterministic && epoch % 3 == kLatencyRung) {
      for (std::size_t i = 0; i < requests_; ++i) {
        if (decisions_[i].admitted()) results.latency.record(latency_[i]);
      }
    }
    if (results.prefix) results.digest.add(router_.histogram());
    for (const auto node : report_.adopted_placement) {
      results.check(!down_.contains(node), "adopted placement holds a down data center");
    }
    const double delay =
        account_group(report_, manager_, batches_.rows(), world_.topology,
                      client_records(world_, stream_.counts.data()), results);
    if (results.deterministic) results.delay_sum_ms += delay / static_cast<double>(requests_);
    router_.reset_epoch();
    ++epochs_;
  }

  void report(Results& results, const SpanMs& span_ms) override {
    const double n = static_cast<double>(requests_);
    results.add("serve.spill_ratio", static_cast<double>(spilled_) / (n * epochs_), "ratio");
    results.add("serve.wait_pct", 100.0 * wait_ms_ / latency_ms_, "%");
    if (span_ms.empty()) return;
    const double sampled = n / static_cast<double>(kSampleEvery);
    results.add("core.ingest_ns_per_access",
                (per_epoch(span_ms, "core.record") + per_epoch(span_ms, "core.flush")) * 1e6 /
                    sampled,
                "ns");
    results.add("serve.route_ns_per_req", per_epoch(span_ms, "serve.route") * 1e6 / n, "ns");
    results.add("serve.complete_ns_per_req", per_epoch(span_ms, "serve.complete") * 1e6 / n,
                "ns");
    results.add("serve.capacity_rps", capacity_rps(), "req/s");
  }

 private:
  double rate(double load) const {
    return load * static_cast<double>(manager_.degree()) / serve_config().service_ms;
  }

  /// The highest rung of a 10%..150% ladder, starting from an empty router
  /// on the final placement, whose p99 stays within kCapacityP99LimitMs
  /// with at most 0.1% of requests failed; in virtual requests per second.
  double capacity_rps() {
    double capacity = 0.0;
    for (int rung = 1; rung <= 15; ++rung) {
      const double load = 0.1 * rung;
      serve::RequestRouter router(serve_config());
      router.set_replicas(replica_specs(world_, manager_.placement()));
      RequestStream stream;
      Rng rng = Rng(seed_ + 24).fork(static_cast<std::uint64_t>(rung));
      stream.fill(world_, popularity_, ladder_requests_, rate(load), rng);
      std::vector<serve::RouteDecision> decisions(ladder_requests_);
      router.route_batch(stream.coords, nullptr, ladder_requests_, stream.nows.data(),
                         decisions.data());
      // A failed request misses the limit, so it counts as infinitely late.
      FineHistogram latency;
      std::uint64_t failed = 0;
      for (std::size_t i = 0; i < ladder_requests_; ++i) {
        const auto& decision = decisions[i];
        if (!decision.admitted()) {
          ++failed;
          latency.record(std::numeric_limits<double>::infinity());
          continue;
        }
        latency.record(router.complete(
            decision, world_.topology.rtt_ms(world_.sites[stream.sites[i]], decision.replica)));
      }
      if (latency.quantile(0.99) > kCapacityP99LimitMs || failed * 1000 > ladder_requests_) {
        break;
      }
      capacity = rate(load) * 1000.0;
    }
    return capacity;
  }

  const World& world_;
  std::uint64_t seed_;
  std::size_t requests_;
  std::size_t ladder_requests_;
  Popularity popularity_;
  core::ReplicationManager manager_;
  serve::RequestRouter router_;
  RequestStream stream_;
  std::vector<serve::RouteDecision> decisions_;
  std::vector<double> latency_;
  ReplicaBatches batches_;
  core::EpochReport report_;
  std::set<topo::NodeId> down_;
  bool down_changed_ = false;
  std::uint64_t spilled_ = 0;
  double wait_ms_ = 0.0;
  double latency_ms_ = 0.0;
  double epochs_ = 0.0;
};

// ---------------------------------------------------------------------------
// fleet_budget: 256 object groups sharing a budget of 4 replicas per group
// (degrees 1..8). Each group draws most accesses from its home region and
// the rest from a follow-the-sun mix that rotates through the regions, so
// the budget keeps moving. Accesses go through the per-access
// FleetManager::serve path; the epoch fans groups out over the thread pool.

constexpr std::size_t kObjectsPerGroup = 4;
constexpr std::size_t kReplicasPerGroup = 4;  ///< the budget, per group
constexpr std::size_t kFleetMaxDegree = 8;
constexpr double kSunPeriodEpochs = 24.0;

class FleetBudget final : public Workload {
 public:
  FleetBudget(const World& world, std::uint64_t seed, Scale scale)
      : world_(world),
        seed_(seed),
        groups_(scale == Scale::kFull ? 256 : 32),
        per_group_(scale == Scale::kFull ? 200 : 100),
        fleet_(world.candidates, fleet_config(groups_), seed + 31) {
    const std::size_t regions = world.topology.region_names().size();
    region_sites_.resize(regions);
    for (std::size_t site = 0; site < world.sites.size(); ++site) {
      region_sites_[world.topology.node(world.sites[site]).region].push_back(site);
    }
    Rng rng(kWorldSeed + 5);
    objects_.resize(groups_);
    std::size_t filled = 0;
    for (std::uint64_t id = 0; filled < groups_; ++id) {
      auto& ids = objects_[fleet_.group_of(id)];
      if (ids.size() == kObjectsPerGroup) continue;
      ids.push_back(id);
      if (ids.size() == kObjectsPerGroup) ++filled;
    }
    for (std::size_t g = 0; g < groups_; ++g) {
      std::size_t home = g % regions;
      while (region_sites_[home].empty()) home = (home + 1) % regions;
      home_.push_back(home);
      bias_.push_back(rng.uniform(0.3, 0.95));
    }
    const std::size_t n = groups_ * per_group_;
    points_.assign(n, Point(World::kDim));
    objects_of_access_.resize(n);
    sites_.resize(n);
    replicas_.resize(n);
    counts_.resize(groups_ * world.sites.size());
  }

  void generate(std::uint32_t epoch) override {
    Rng rng = Rng(seed_ + 33).fork(epoch);
    const std::size_t regions = region_sites_.size();
    std::vector<double> sun(regions);
    for (std::size_t r = 0; r < regions; ++r) {
      const double phase = static_cast<double>(epoch) / kSunPeriodEpochs +
                           static_cast<double>(r) / static_cast<double>(regions);
      sun[r] = static_cast<double>(region_sites_[r].size()) *
               (1.0 + 0.8 * std::sin(2.0 * std::numbers::pi * phase));
    }
    std::fill(counts_.begin(), counts_.end(), 0);
    double row[World::kDim];
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const std::size_t g = i % groups_;  // groups interleave like real traffic
      const std::size_t region = rng.bernoulli(bias_[g]) ? home_[g] : rng.weighted_index(sun);
      const auto& candidates = region_sites_[region];
      const std::size_t site = candidates[rng.below(candidates.size())];
      jittered(world_, site, rng, row);
      for (std::size_t d = 0; d < World::kDim; ++d) points_[i][d] = row[d];
      objects_of_access_[i] = objects_[g][rng.below(kObjectsPerGroup)];
      sites_[i] = static_cast<std::uint32_t>(site);
      ++counts_[g * world_.sites.size() + site];
    }
  }

  std::uint64_t run(std::uint32_t /*epoch*/, Tracer& tracer) override {
    tracer.call("core.serve", [&] {
      for (std::size_t i = 0; i < points_.size(); ++i) {
        replicas_[i] = fleet_.serve(objects_of_access_[i], points_[i]);
      }
    });
    tracer.call("core.flush", [&] {
      for (std::size_t g = 0; g < groups_; ++g) fleet_.group(g).flush_ingest();
    });
    tracer.call("core.run_epoch", [&] { report_ = fleet_.run_epochs(); });
    return points_.size();
  }

  void finish(std::uint32_t /*epoch*/, Results& results) override {
    results.attempted += points_.size();
    serve::LatencyHistogram rtts;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const double rtt = world_.topology.rtt_ms(world_.sites[sites_[i]], replicas_[i]);
      if (results.deterministic) results.latency.record(rtt);
      rtts.record(rtt);
    }
    results.check(report_.allocation.has_value(), "fleet epoch returned no allocation");
    const std::vector<std::size_t> granted =
        report_.allocation ? report_.allocation->degree_per_group : std::vector<std::size_t>{};
    std::size_t total = 0;
    for (const auto degree : granted) {
      results.check(degree >= 1 && degree <= kFleetMaxDegree, "granted degree out of bounds");
      total += degree;
    }
    results.check(total <= kReplicasPerGroup * groups_, "fleet grants exceed the replica budget");
    double delay = 0.0;
    for (std::size_t g = 0; g < groups_; ++g) {
      delay += account_group(report_.group_reports[g], fleet_.group(g), per_group_,
                             world_.topology,
                             client_records(world_, counts_.data() + g * world_.sites.size()),
                             results);
    }
    if (results.prefix) {
      results.digest.add(rtts);
      for (const auto degree : granted) results.digest.add(degree);
    }
    if (results.deterministic) {
      results.delay_sum_ms += delay / static_cast<double>(points_.size());
    }
  }

  void report(Results& results, const SpanMs& span_ms) override {
    if (span_ms.empty()) return;
    const double n = static_cast<double>(points_.size());
    results.add("core.ingest_ns_per_access",
                (per_epoch(span_ms, "core.serve") + per_epoch(span_ms, "core.flush")) * 1e6 / n,
                "ns");
    results.add("core.serve_ns_per_access", per_epoch(span_ms, "core.serve") * 1e6 / n, "ns");
  }

 private:
  static core::FleetConfig fleet_config(std::size_t groups) {
    core::FleetConfig config;
    config.groups = groups;
    config.manager.replication_degree = kReplicasPerGroup;
    config.replica_budget = kReplicasPerGroup * groups;
    config.min_degree = 1;
    config.max_degree = kFleetMaxDegree;
    return config;
  }

  const World& world_;
  std::uint64_t seed_;
  std::size_t groups_;
  std::size_t per_group_;
  core::FleetManager fleet_;
  std::vector<std::vector<std::size_t>> region_sites_;
  std::vector<std::vector<std::uint64_t>> objects_;
  std::vector<std::size_t> home_;
  std::vector<double> bias_;
  std::vector<Point> points_;
  std::vector<std::uint64_t> objects_of_access_;
  std::vector<std::uint32_t> sites_;
  std::vector<topo::NodeId> replicas_;
  std::vector<std::uint32_t> counts_;  ///< [group][site] accesses this epoch
  core::FleetEpochReport report_;
};

// ---------------------------------------------------------------------------
// kv_quorum: ReplicatedKvStore (64 groups, n=3 r=1 w=2) on the simulator.
// 80/20 get/put of 256-byte values, Zipf(0.99) object popularity, Poisson
// arrivals in virtual time submitted in 1 ms windows; then the placement
// epochs and their migrations over the simulated network.

constexpr double kKvOpsPerMs = 20.0;
constexpr double kKvWindowMs = 1.0;
constexpr std::size_t kKvValueBytes = 256;

class KvQuorum final : public Workload {
 public:
  KvQuorum(const World& world, std::uint64_t seed, Scale scale)
      : world_(world),
        seed_(seed),
        objects_(scale == Scale::kFull ? 20'000 : 2'000),
        ops_per_epoch_(scale == Scale::kFull ? 20'000 : 2'000),
        sites_(world.sites.size(), 0.8, kWorldSeed + 3),
        keys_(objects_, 0.99, kWorldSeed + 4),
        network_(simulator_, world.topology),
        kv_(simulator_, network_, world.candidates, store_config(), seed + 43),
        value_(kKvValueBytes, 'v') {
    // Pre-seed every object, then run one placement epoch so the first
    // measured epoch starts from empty access counters.
    Rng rng(seed + 44);
    std::uint64_t fired = 0;
    double row[World::kDim];
    Point coords(World::kDim);
    for (store::ObjectId id = 0; id < objects_; ++id) {
      const std::size_t site = sites_.draw(rng);
      jittered(world_, site, rng, row);
      for (std::size_t d = 0; d < World::kDim; ++d) coords[d] = row[d];
      kv_.put(world_.sites[site], coords, id, value_, [&fired](const store::PutResult&) { ++fired; });
    }
    simulator_.run();
    kv_.run_placement_epochs();
    simulator_.run();
    preseed_ok_ = fired == objects_;
    points_.assign(ops_per_epoch_, Point(World::kDim));
    ops_.resize(ops_per_epoch_);
    fired_.resize(ops_per_epoch_);
    latency_.resize(ops_per_epoch_);
    counts_.resize(store_config().groups * world.sites.size());
  }

  void generate(std::uint32_t epoch) override {
    Rng rng = Rng(seed_ + 45).fork(epoch);
    std::fill(counts_.begin(), counts_.end(), 0);
    double due = simulator_.now();
    double row[World::kDim];
    for (std::size_t i = 0; i < ops_per_epoch_; ++i) {
      Op& op = ops_[i];
      const std::size_t site = sites_.draw(rng);
      jittered(world_, site, rng, row);
      for (std::size_t d = 0; d < World::kDim; ++d) points_[i][d] = row[d];
      due += rng.exponential(kKvOpsPerMs);
      op.due = due;
      op.id = keys_.draw(rng);
      op.put = rng.bernoulli(0.2);
      op.client = world_.sites[site];
      op.group = kv_.group_of(op.id);
      ++counts_[op.group * world_.sites.size() + site];
    }
    std::fill(fired_.begin(), fired_.end(), 0);
  }

  std::uint64_t run(std::uint32_t /*epoch*/, Tracer& tracer) override {
    // Each window's arrivals are submitted at its end, so an op waits at
    // most kKvWindowMs; latency counts from its due time, wait included.
    std::size_t next = 0;
    while (next < ops_per_epoch_) {
      const double window_end = (std::floor(ops_[next].due / kKvWindowMs) + 1.0) * kKvWindowMs;
      tracer.call("sim.run", [&] { events_ += simulator_.run_until(window_end); });
      tracer.call("store.submit", [&] {
        for (; next < ops_per_epoch_ && ops_[next].due < window_end; ++next) submit(next);
      });
    }
    tracer.call("sim.run", [&] { events_ += simulator_.run(); });
    tracer.call("core.flush", [&] {
      for (std::uint32_t g = 0; g < store_config().groups; ++g) {
        kv_.manager_of_group(g).flush_ingest();
      }
    });
    tracer.call("store.epochs", [&] { reports_ = kv_.run_placement_epochs(); });
    tracer.call("sim.run", [&] { events_ += simulator_.run(); });
    return ops_per_epoch_;
  }

  void finish(std::uint32_t /*epoch*/, Results& results) override {
    results.attempted += ops_per_epoch_;
    std::uint64_t misfired = 0;
    std::vector<std::uint64_t> recorded(store_config().groups, 0);
    for (std::size_t i = 0; i < ops_per_epoch_; ++i) {
      misfired += fired_[i] == 1 ? 0 : 1;
      ++recorded[ops_[i].group];
      if (!results.deterministic) continue;
      if (ops_[i].put) {
        put_latency_.record(latency_[i]);
      } else {
        results.latency.record(latency_[i]);
      }
    }
    results.check(misfired == 0, std::to_string(misfired) + " kv callbacks did not fire once");
    const std::uint64_t not_found = kv_.not_found_reads() - not_found_;
    not_found_ = kv_.not_found_reads();
    results.failed += misfired + not_found;
    double delay = 0.0;
    for (std::uint32_t g = 0; g < reports_.size(); ++g) {
      delay += account_group(reports_[g], kv_.manager_of_group(g), recorded[g], world_.topology,
                             client_records(world_, counts_.data() + g * world_.sites.size()),
                             results);
    }
    if (results.prefix) {
      results.digest.add(kv_.get_latency_histogram());
      results.digest.add(kv_.put_latency_histogram());
      results.digest.add(kv_.stale_reads());
    }
    if (results.deterministic) {
      results.delay_sum_ms += delay / static_cast<double>(ops_per_epoch_);
    }
    ++epochs_;
  }

  void report(Results& results, const SpanMs& span_ms) override {
    results.check(preseed_ok_, "a pre-seed put never completed");
    const double n = static_cast<double>(ops_per_epoch_);
    const auto migration_bytes = static_cast<double>(
        network_.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kMigration)]);
    results.add("store.stale_read_ratio",
                static_cast<double>(kv_.stale_reads()) / static_cast<double>(kv_.reads()),
                "ratio");
    results.add("store.migration_kb_per_epoch", migration_bytes / 1024.0 / epochs_, "KiB");
    results.add("store.put_p99_ms", put_latency_.quantile(0.99), "ms");
    results.add("sim.events_per_op", static_cast<double>(events_) / (n * epochs_), "count");
    if (span_ms.empty()) return;
    const double events_per_epoch = static_cast<double>(events_) / epochs_;
    results.add("core.ingest_ns_per_access", per_epoch(span_ms, "core.flush") * 1e6 / n, "ns");
    results.add("store.submit_ns_per_op", per_epoch(span_ms, "store.submit") * 1e6 / n, "ns");
    results.add("sim.ns_per_event", per_epoch(span_ms, "sim.run") * 1e6 / events_per_epoch,
                "ns");
  }

 private:
  struct Op {
    double due = 0.0;
    store::ObjectId id = 0;
    topo::NodeId client = 0;
    std::uint32_t group = 0;
    bool put = false;
  };

  static store::StoreConfig store_config() {
    store::StoreConfig config;
    config.quorum = {3, 1, 2};
    config.groups = 64;
    return config;
  }

  void submit(std::size_t i) {
    const Op& op = ops_[i];
    const auto done = [this, i] {
      ++fired_[i];
      latency_[i] = simulator_.now() - ops_[i].due;
    };
    if (op.put) {
      kv_.put(op.client, points_[i], op.id, value_, [done](const store::PutResult&) { done(); });
    } else {
      kv_.get(op.client, points_[i], op.id, [done](const store::GetResult&) { done(); });
    }
  }

  const World& world_;
  std::uint64_t seed_;
  std::size_t objects_;
  std::size_t ops_per_epoch_;
  Popularity sites_;
  Popularity keys_;
  sim::Simulator simulator_;
  sim::Network network_;
  store::ReplicatedKvStore kv_;
  std::string value_;
  bool preseed_ok_ = false;
  std::vector<Op> ops_;
  std::vector<Point> points_;
  std::vector<std::uint8_t> fired_;
  std::vector<double> latency_;
  std::vector<std::uint32_t> counts_;  ///< [group][site] accesses this epoch
  std::vector<core::EpochReport> reports_;
  FineHistogram put_latency_;
  std::uint64_t events_ = 0;
  std::uint64_t not_found_ = 0;
  double epochs_ = 0.0;
};

template <typename W>
std::unique_ptr<Workload> make(const World& world, std::uint64_t seed, Scale scale) {
  return std::make_unique<W>(world, seed, scale);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"geo_steady", &make<GeoSteady>},
      {"fleet_budget", &make<FleetBudget>},
      {"serve_outage", &make<ServeOutage>},
      {"kv_quorum", &make<KvQuorum>},
  };
  return specs;
}

}  // namespace geored::e2e
