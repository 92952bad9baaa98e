#include "scenario/runner.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>

#include "common/ensure.h"
#include "common/random.h"
#include "core/fleet_manager.h"
#include "net/clock.h"
#include "netcoord/embedding.h"
#include "scenario/table.h"
#include "serve/request_router.h"
#include "sim/simulator.h"
#include "topology/planetlab_model.h"
#include "workload/modulated.h"
#include "workload/workload.h"

namespace geored::scenario {

namespace {

bool region_matches(const std::string& name, const std::string& pattern) {
  if (pattern == "*") return true;
  if (!pattern.empty() && pattern.back() == '*') {
    return name.compare(0, pattern.size() - 1, pattern, 0, pattern.size() - 1) == 0;
  }
  return name == pattern;
}

/// Per-client membership mask for a region pattern over the client universe
/// (topology nodes [dcs, size)); throws kBadReference when nothing matches.
std::vector<bool> client_region_mask(const topo::Topology& topology, std::size_t dcs,
                                     const std::string& pattern, const std::string& path) {
  const std::size_t clients = topology.size() - dcs;
  std::vector<bool> mask(clients, false);
  bool any = false;
  for (std::size_t c = 0; c < clients; ++c) {
    const auto region = topology.node(static_cast<topo::NodeId>(dcs + c)).region;
    if (region < topology.region_names().size() &&
        region_matches(topology.region_names()[region], pattern)) {
      mask[c] = true;
      any = true;
    }
  }
  if (!any) {
    throw ScenarioError(ScenarioError::Kind::kBadReference, path,
                        "region pattern \"" + pattern +
                            "\" matches no client in the generated topology");
  }
  return mask;
}

/// One compiled outage window for one data center.
struct OutageWindow {
  topo::NodeId node = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::size_t event = 0;  ///< index of the outage event in ScenarioConfig::events
};

struct PopulationChange {
  double at_ms = 0.0;
  std::vector<bool> mask;  ///< clients the change draws from
  std::size_t add = 0;
  std::size_t retire = 0;
};

struct WeightChange {
  double at_ms = 0.0;
  std::size_t group = 0;
  double weight = 1.0;
};

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  out += '"';
}

std::string render_jsonl_line(const EpochRow& row) {
  std::string out = "{\"epoch\":" + std::to_string(row.epoch);
  out += ",\"t_ms\":" + format_double(row.t_ms);
  out += ",\"active_clients\":" + std::to_string(row.active_clients);
  out += ",\"accesses\":" + std::to_string(row.accesses);
  out += ",\"lost_accesses\":" + std::to_string(row.lost_accesses);
  out += ",\"mean_delay_ms\":" + format_double(row.mean_delay_ms);
  out += ",\"objective_ms\":" + format_double(row.objective_ms);
  out += ",\"groups_migrated\":" + std::to_string(row.groups_migrated);
  out += ",\"replicas_moved\":" + std::to_string(row.replicas_moved);
  out += ",\"stale_sources\":" + std::to_string(row.stale_sources);
  out += ",\"lost_sources\":" + std::to_string(row.lost_sources);
  out += ",\"total_degree\":" + std::to_string(row.total_degree);
  out += ",\"degrees\":[";
  for (std::size_t g = 0; g < row.degrees.size(); ++g) {
    if (g > 0) out += ',';
    out += std::to_string(row.degrees[g]);
  }
  out += "],\"excluded\":[";
  for (std::size_t i = 0; i < row.excluded.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(row.excluded[i]);
  }
  out += "],\"region_delay_ms\":{";
  for (std::size_t i = 0; i < row.region_delay_ms.size(); ++i) {
    if (i > 0) out += ',';
    append_json_string(out, row.region_delay_ms[i].first);
    out += ':';
    out += format_double(row.region_delay_ms[i].second);
  }
  out += "},\"region_accesses\":{";
  for (std::size_t i = 0; i < row.region_accesses.size(); ++i) {
    if (i > 0) out += ',';
    append_json_string(out, row.region_accesses[i].first);
    out += ':';
    out += std::to_string(row.region_accesses[i].second);
  }
  out += '}';
  // The serve record exists only for scenarios with a "serve" block, so
  // serve-less transcripts (and their goldens) are byte-for-byte unchanged.
  if (row.serve.enabled) {
    out += ",\"serve\":{\"requests\":" + std::to_string(row.serve.requests);
    out += ",\"admitted\":" + std::to_string(row.serve.admitted);
    out += ",\"rejected\":" + std::to_string(row.serve.rejected);
    out += ",\"spilled\":" + std::to_string(row.serve.spilled);
    out += ",\"p50_ms\":" + format_double(row.serve.p50_ms);
    out += ",\"p99_ms\":" + format_double(row.serve.p99_ms);
    out += ",\"p999_ms\":" + format_double(row.serve.p999_ms);
    out += ",\"mean_ms\":" + format_double(row.serve.mean_ms);
    out += '}';
  }
  out += '}';
  return out;
}

/// The whole mutable run: compiled schedules, the fleet, per-epoch
/// accumulators. Lives for one run_scenario call.
class Engine {
 public:
  explicit Engine(const ScenarioConfig& config)
      : config_(config), root_rng_(config.seed) {
    build_world();
    compile_events();
    check_outage_coverage();
    build_workload();
    build_fleet();
    build_routers();
    region_accesses_.assign(topology_.region_names().size(), 0);
    region_delay_sum_.assign(topology_.region_names().size(), 0.0);
  }

  ScenarioResult run() {
    begin_epoch(0);
    simulator_.run();
    ScenarioResult result;
    result.epochs = std::move(rows_);
    result.jsonl_lines.reserve(result.epochs.size());
    for (const auto& row : result.epochs) {
      result.jsonl_lines.push_back(render_jsonl_line(row));
    }
    return result;
  }

 private:
  void build_world() {
    topo::PlanetLabModelConfig topo_config;
    topo_config.node_count = config_.topology.nodes;
    topology_ = topo::generate_planetlab_like(topo_config, config_.topology.seed);

    coord::GossipConfig gossip;
    gossip.rounds = config_.coords.rounds;
    coords_ = config_.coords.system == "vivaldi"
                  ? coord::run_vivaldi(topology_, coord::VivaldiConfig{}, gossip,
                                       config_.coords.seed)
                  : coord::run_rnp(topology_, coord::RnpConfig{}, gossip, config_.coords.seed);

    dcs_ = config_.topology.dcs;
    for (std::size_t i = 0; i < dcs_; ++i) {
      candidates_.push_back({static_cast<topo::NodeId>(i), coords_[i].position,
                             std::numeric_limits<double>::infinity()});
    }
    client_count_ = topology_.size() - dcs_;

    // The initial active population: the first ceil(fraction * n) clients
    // in node-id order (deterministic; population events drift it later).
    const auto initial = static_cast<std::size_t>(
        std::ceil(config_.initial_active_fraction * static_cast<double>(client_count_)));
    active_.assign(client_count_, false);
    for (std::size_t c = 0; c < std::min(initial, client_count_); ++c) active_[c] = true;
  }

  void compile_events() {
    for (std::size_t i = 0; i < config_.events.size(); ++i) {
      const Event& event = config_.events[i];
      const std::string path = "events[" + std::to_string(i) + "]";
      switch (event.kind) {
        case Event::Kind::kDiurnal: {
          wl::RateProfile profile;
          profile.kind = wl::RateProfile::Kind::kDiurnal;
          profile.affected = client_region_mask(topology_, dcs_, event.region, path);
          profile.period_ms = event.period_ms;
          profile.phase = event.phase;
          profile.floor_fraction = event.floor;
          profiles_.push_back(std::move(profile));
          break;
        }
        case Event::Kind::kFlashCrowd: {
          wl::RateProfile profile;
          profile.kind = wl::RateProfile::Kind::kStep;
          profile.affected = client_region_mask(topology_, dcs_, event.region, path);
          profile.start_ms = event.start_ms;
          profile.end_ms = event.end_ms;
          profile.factor = event.factor;
          profiles_.push_back(std::move(profile));
          break;
        }
        case Event::Kind::kOutage: {
          if (event.node.has_value()) {
            outages_.push_back({*event.node, event.start_ms, event.end_ms, i});
          } else {
            bool any = false;
            for (std::size_t i_dc = 0; i_dc < dcs_; ++i_dc) {
              const auto region = topology_.node(static_cast<topo::NodeId>(i_dc)).region;
              if (region < topology_.region_names().size() &&
                  region_matches(topology_.region_names()[region], event.region)) {
                outages_.push_back(
                    {static_cast<topo::NodeId>(i_dc), event.start_ms, event.end_ms, i});
                any = true;
              }
            }
            if (!any) {
              throw ScenarioError(ScenarioError::Kind::kBadReference, path + ".region",
                                  "region pattern \"" + event.region +
                                      "\" matches no data center");
            }
          }
          break;
        }
        case Event::Kind::kPopulation:
          population_.push_back({event.at_ms,
                                 client_region_mask(topology_, dcs_, event.region, path),
                                 event.add, event.retire});
          break;
        case Event::Kind::kGroupWeight:
          weight_changes_.push_back({event.at_ms, event.group, event.weight});
          break;
      }
    }
  }

  /// A placement round needs at least one usable data center. An epoch
  /// whose intersecting outages exclude them all would fail at its tick, so
  /// the schedule is rejected before anything is simulated, naming the
  /// epoch and one of its outage events.
  void check_outage_coverage() const {
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
      const auto excluded = excluded_for_epoch(epoch);
      if (excluded.empty() || excluded.size() < dcs_) continue;
      const auto outage = std::find_if(outages_.begin(), outages_.end(),
                                       [&](const auto& o) { return in_epoch(o, epoch); });
      throw ScenarioError(ScenarioError::Kind::kBadSchedule,
                          "events[" + std::to_string(outage->event) + "]",
                          "outages exclude every data center during epoch " +
                              std::to_string(epoch) + ", leaving its placement round no "
                              "candidate");
    }
  }

  void build_workload() {
    std::unique_ptr<wl::Workload> base;
    if (config_.workload.kind == "zipf") {
      base = wl::make_zipf_workload(client_count_, config_.workload.total_rate,
                                    config_.workload.exponent, config_.workload.seed);
    } else {
      base = wl::make_uniform_workload(client_count_, config_.workload.mean_rate,
                                       config_.workload.sigma, config_.workload.seed);
    }
    workload_ =
        std::make_unique<wl::ModulatedWorkload>(std::move(base), std::move(profiles_));
  }

  void build_fleet() {
    core::FleetConfig fleet;
    fleet.groups = config_.fleet.groups;
    fleet.manager = config_.manager;
    fleet.replica_budget = config_.fleet.replica_budget;
    fleet.min_degree = config_.fleet.min_degree;
    fleet.max_degree = config_.fleet.max_degree;
    if (config_.collector == "rpc") {
      // Summaries ship over real localhost sockets with the scenario's
      // fault schedule; retry backoff runs on a virtual clock so injected
      // faults cost no wall time (and no wall-clock nondeterminism).
      const net::RpcCollectorConfig rpc = config_.rpc;
      auto clock = std::make_shared<net::VirtualClock>();
      fleet.collector_factory = [rpc, clock](std::size_t /*group*/) {
        core::CollectorConfig collector;
        collector.rpc = rpc;
        collector.rpc_clock = clock;
        return core::make_collector("rpc", collector);
      };
    }
    fleet_ = std::make_unique<core::FleetManager>(candidates_, fleet, config_.seed);
    group_weights_.assign(config_.fleet.groups, 1.0);
    if (!config_.fleet.weights.empty()) {
      group_weights_ = config_.fleet.weights;
      for (std::size_t g = 0; g < group_weights_.size(); ++g) {
        fleet_->set_group_weight(g, group_weights_[g]);
      }
    }
  }

  /// One request router per object group: the serving data plane in front
  /// of that group's placement. Built once, replica sets re-synced from the
  /// adopted placements at every epoch boundary.
  void build_routers() {
    if (!config_.serve.enabled) return;
    serve::ServeConfig serve_config;
    serve_config.service_ms = config_.serve.service_ms;
    serve_config.queue_cap = config_.serve.queue_cap;
    serve_config.policy = config_.serve.policy == "reject"
                              ? serve::ServeConfig::Policy::kReject
                              : serve::ServeConfig::Policy::kSpill;
    for (std::size_t g = 0; g < config_.fleet.groups; ++g) {
      routers_.push_back(std::make_unique<serve::RequestRouter>(serve_config));
    }
    sync_routers();
  }

  /// Pushes every group's adopted placement into its router (queue state of
  /// retained replicas carries over; see RequestRouter::set_replicas).
  void sync_routers() {
    for (std::size_t g = 0; g < routers_.size(); ++g) {
      std::vector<serve::ReplicaSpec> replicas;
      for (const auto node : fleet_->group(g).placement()) {
        replicas.push_back({node, coords_[node].position});
      }
      routers_[g]->set_replicas(replicas);
    }
  }

  /// Instant events (population drift, weight churn) whose at_ms has been
  /// reached take effect at the epoch boundary, before arrivals sample.
  void apply_instants(double epoch_start_ms) {
    while (next_population_ < population_.size() &&
           population_[next_population_].at_ms <= epoch_start_ms) {
      const PopulationChange& change = population_[next_population_];
      std::size_t to_add = change.add;
      std::size_t to_retire = change.retire;
      for (std::size_t c = 0; c < client_count_ && (to_add > 0 || to_retire > 0); ++c) {
        if (!change.mask[c]) continue;
        if (to_retire > 0 && active_[c]) {
          active_[c] = false;
          --to_retire;
        } else if (to_add > 0 && !active_[c]) {
          active_[c] = true;
          --to_add;
        }
      }
      // A surplus add/retire (fewer inactive/active clients in the region
      // than requested) clamps: the region simply saturates.
      ++next_population_;
    }
    while (next_weight_ < weight_changes_.size() &&
           weight_changes_[next_weight_].at_ms <= epoch_start_ms) {
      const WeightChange& change = weight_changes_[next_weight_];
      group_weights_[change.group] = change.weight;
      fleet_->set_group_weight(change.group, change.weight);
      ++next_weight_;
    }
  }

  std::set<topo::NodeId> down_at(double time_ms) const {
    std::set<topo::NodeId> down;
    for (const auto& outage : outages_) {
      if (time_ms >= outage.start_ms && time_ms < outage.end_ms) down.insert(outage.node);
    }
    return down;
  }

  /// Data centers excluded from epoch `e`'s placement round: any outage
  /// window intersecting the epoch's own window — a node that failed at any
  /// point of the epoch has unreliable state and may not host replicas in
  /// the next placement.
  std::set<topo::NodeId> excluded_for_epoch(std::size_t epoch) const {
    std::set<topo::NodeId> excluded;
    for (const auto& outage : outages_) {
      if (in_epoch(outage, epoch)) excluded.insert(outage.node);
    }
    return excluded;
  }

  /// Whether `outage`'s window intersects epoch `epoch`'s window.
  bool in_epoch(const OutageWindow& outage, std::size_t epoch) const {
    const double start = static_cast<double>(epoch) * config_.epoch_ms;
    return outage.start_ms < start + config_.epoch_ms && start < outage.end_ms;
  }

  void begin_epoch(std::size_t epoch) {
    const double start = static_cast<double>(epoch) * config_.epoch_ms;
    const double end = start + config_.epoch_ms;
    apply_instants(start);

    // Arrival sampling: one decorrelated stream per (epoch, client), so the
    // schedule is independent of thread count and of every other client's
    // draw. The group draw consumes the same stream after the arrival
    // times, keeping per-access group assignment deterministic too.
    for (std::size_t c = 0; c < client_count_; ++c) {
      if (!active_[c]) continue;
      Rng rng = root_rng_.fork(static_cast<std::uint64_t>(epoch) * client_count_ + c);
      const auto arrivals = workload_->sample_arrival_times(c, start, end, rng);
      for (const double at : arrivals) {
        std::size_t group = 0;
        if (group_weights_.size() > 1) group = rng.weighted_index(group_weights_);
        simulator_.schedule_at(at, [this, c, group, at] { access(c, group, at); });
      }
    }
    simulator_.schedule_at(end, [this, epoch] { tick(epoch); });
  }

  void access(std::size_t client, std::size_t group, double at_ms) {
    const auto client_node = static_cast<topo::NodeId>(dcs_ + client);
    const std::set<topo::NodeId> down = down_at(at_ms);
    core::ReplicationManager& manager = fleet_->group(group);

    if (config_.serve.enabled) {
      // The serving data plane: admission-controlled routing to the nearest
      // up replica, with client-observed latency (true RTT + queue wait +
      // service time) accounted in the router's histogram. Rejected
      // requests never reach the manager — a dropped request is demand the
      // summarizer must not learn from.
      serve::RequestRouter& router = *routers_[group];
      router.set_down(down);
      const serve::RouteDecision decision =
          router.route(coords_[client_node].position, at_ms);
      if (decision.outcome == serve::RouteDecision::Outcome::kLost) {
        ++lost_accesses_;
        return;
      }
      if (!decision.admitted()) return;
      manager.record_access(decision.replica, coords_[client_node].position);
      const double rtt = topology_.rtt_ms(client_node, decision.replica);
      router.complete(decision, rtt);
      ++accesses_;
      delay_sum_ += rtt;
      const auto region = topology_.node(client_node).region;
      if (region < region_accesses_.size()) {
        ++region_accesses_[region];
        region_delay_sum_[region] += rtt;
      }
      return;
    }

    std::optional<topo::NodeId> replica;
    if (config_.routing == "true_rtt") {
      double best = std::numeric_limits<double>::infinity();
      for (const auto node : manager.placement()) {
        if (down.contains(node)) continue;
        const double rtt = topology_.rtt_ms(client_node, node);
        if (rtt < best) {
          best = rtt;
          replica = node;
        }
      }
    } else {
      replica = manager.route(coords_[client_node].position, down);
    }
    if (!replica.has_value()) {
      ++lost_accesses_;
      return;
    }
    manager.record_access(*replica, coords_[client_node].position);

    const double delay = topology_.rtt_ms(client_node, *replica);
    ++accesses_;
    delay_sum_ += delay;
    const auto region = topology_.node(client_node).region;
    if (region < region_accesses_.size()) {
      ++region_accesses_[region];
      region_delay_sum_[region] += delay;
    }
  }

  void tick(std::size_t epoch) {
    const auto excluded = excluded_for_epoch(epoch);
    const core::FleetEpochReport fleet_report = fleet_->run_epochs(excluded);

    EpochRow row;
    row.epoch = epoch;
    row.t_ms = simulator_.now();
    row.active_clients = static_cast<std::size_t>(
        std::count(active_.begin(), active_.end(), true));
    row.accesses = accesses_;
    row.lost_accesses = lost_accesses_;
    row.mean_delay_ms = accesses_ > 0 ? delay_sum_ / static_cast<double>(accesses_) : 0.0;
    row.excluded.assign(excluded.begin(), excluded.end());
    row.groups_migrated = fleet_report.groups_migrated;

    double objective_weighted = 0.0;
    double objective_accesses = 0.0;
    for (std::size_t g = 0; g < fleet_report.group_reports.size(); ++g) {
      const core::EpochReport& report = fleet_report.group_reports[g];
      row.replicas_moved +=
          report.adopted_placement == report.proposed_placement ? report.replicas_moved : 0;
      row.stale_sources += report.stale_sources;
      row.lost_sources += report.lost_sources;
      const std::size_t degree = fleet_->group(g).degree();
      row.degrees.push_back(degree);
      row.total_degree += degree;
      const double adopted_delay = report.adopted_placement == report.proposed_placement
                                       ? report.new_estimated_delay_ms
                                       : report.old_estimated_delay_ms;
      const auto weight = static_cast<double>(report.epoch_accesses);
      objective_weighted += adopted_delay * weight;
      objective_accesses += weight;
      row.stage_totals.ingest_flush_ms += report.stages.ingest_flush_ms;
      row.stage_totals.collect_ms += report.stages.collect_ms;
      row.stage_totals.propose_ms += report.stages.propose_ms;
      row.stage_totals.gate_ms += report.stages.gate_ms;
      row.stage_totals.adopt_ms += report.stages.adopt_ms;
    }
    row.objective_ms =
        objective_accesses > 0.0 ? objective_weighted / objective_accesses : 0.0;

    if (config_.serve.enabled) {
      // Merge per-group histograms in ascending group order (deterministic)
      // into the epoch histogram; merged quantiles equal a single-pass
      // histogram over all groups' samples by construction.
      serve::LatencyHistogram epoch_histogram;
      row.serve.enabled = true;
      for (const auto& router : routers_) {
        const serve::RequestRouter::Stats& stats = router->stats();
        row.serve.requests += stats.admitted + stats.rejected;
        row.serve.admitted += stats.admitted;
        row.serve.rejected += stats.rejected;
        row.serve.spilled += stats.spilled;
        epoch_histogram.merge(router->histogram());
        router->reset_epoch();
      }
      row.serve.p50_ms = epoch_histogram.quantile(0.50);
      row.serve.p99_ms = epoch_histogram.quantile(0.99);
      row.serve.p999_ms = epoch_histogram.quantile(0.999);
      row.serve.mean_ms = epoch_histogram.mean_ms();
      // The placement round may have moved replicas: re-point the routers
      // at the adopted placements before the next epoch's arrivals.
      sync_routers();
    }

    for (std::size_t r = 0; r < region_accesses_.size(); ++r) {
      if (region_accesses_[r] == 0) continue;
      const double mean =
          region_delay_sum_[r] / static_cast<double>(region_accesses_[r]);
      row.region_delay_ms.emplace_back(topology_.region_names()[r], mean);
      row.region_accesses.emplace_back(topology_.region_names()[r], region_accesses_[r]);
    }
    rows_.push_back(std::move(row));

    accesses_ = 0;
    lost_accesses_ = 0;
    delay_sum_ = 0.0;
    std::fill(region_accesses_.begin(), region_accesses_.end(), 0);
    std::fill(region_delay_sum_.begin(), region_delay_sum_.end(), 0.0);

    if (epoch + 1 < config_.epochs) begin_epoch(epoch + 1);
  }

  const ScenarioConfig& config_;
  sim::Simulator simulator_;

  topo::Topology topology_;
  std::vector<coord::NetworkCoordinate> coords_;
  std::vector<place::CandidateInfo> candidates_;
  std::size_t dcs_ = 0;
  std::size_t client_count_ = 0;

  std::vector<wl::RateProfile> profiles_;  ///< consumed by build_workload
  std::vector<OutageWindow> outages_;
  std::vector<PopulationChange> population_;
  std::vector<WeightChange> weight_changes_;
  std::size_t next_population_ = 0;
  std::size_t next_weight_ = 0;

  std::unique_ptr<wl::Workload> workload_;
  std::unique_ptr<core::FleetManager> fleet_;
  /// Per-group serving data plane (empty when serve is disabled).
  std::vector<std::unique_ptr<serve::RequestRouter>> routers_;
  std::vector<double> group_weights_;
  std::vector<bool> active_;
  Rng root_rng_;

  // Per-epoch accumulators.
  std::uint64_t accesses_ = 0;
  std::uint64_t lost_accesses_ = 0;
  double delay_sum_ = 0.0;
  std::vector<std::uint64_t> region_accesses_;
  std::vector<double> region_delay_sum_;

  std::vector<EpochRow> rows_;
};

}  // namespace

std::string ScenarioResult::jsonl() const {
  std::string out;
  for (const auto& line : jsonl_lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string ScenarioResult::timings_jsonl() const {
  std::string out;
  for (const auto& row : epochs) {
    out += "{\"epoch\":" + std::to_string(row.epoch);
    out += ",\"t_ms\":" + format_double(row.t_ms);
    out += ",\"ingest_flush_ms\":" + format_double(row.stage_totals.ingest_flush_ms);
    out += ",\"collect_ms\":" + format_double(row.stage_totals.collect_ms);
    out += ",\"propose_ms\":" + format_double(row.stage_totals.propose_ms);
    out += ",\"gate_ms\":" + format_double(row.stage_totals.gate_ms);
    out += ",\"adopt_ms\":" + format_double(row.stage_totals.adopt_ms);
    out += ",\"total_ms\":" + format_double(row.stage_totals.total_ms());
    out += "}\n";
  }
  return out;
}

std::string ScenarioResult::table() const {
  TextTable table;
  table.set_columns({"epoch", "t_s", "clients", "accesses", "lost", "delay_ms",
                     "objective", "migr", "moved", "stale", "lostsrc", "k"});
  char cell[64];
  for (const auto& row : epochs) {
    std::vector<std::string> cells;
    cells.push_back(std::to_string(row.epoch));
    std::snprintf(cell, sizeof cell, "%.0f", row.t_ms / 1000.0);
    cells.emplace_back(cell);
    cells.push_back(std::to_string(row.active_clients));
    cells.push_back(std::to_string(row.accesses));
    cells.push_back(std::to_string(row.lost_accesses));
    std::snprintf(cell, sizeof cell, "%.2f", row.mean_delay_ms);
    cells.emplace_back(cell);
    std::snprintf(cell, sizeof cell, "%.2f", row.objective_ms);
    cells.emplace_back(cell);
    cells.push_back(std::to_string(row.groups_migrated));
    cells.push_back(std::to_string(row.replicas_moved));
    cells.push_back(std::to_string(row.stale_sources));
    cells.push_back(std::to_string(row.lost_sources));
    cells.push_back(std::to_string(row.total_degree));
    table.add_row(std::move(cells));
  }
  return table.to_string();
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  return Engine(config).run();
}

std::string write_artifacts(const ScenarioConfig& config, const ScenarioResult& result,
                            const std::string& out_dir) {
  namespace fs = std::filesystem;
  const fs::path base(out_dir);
  fs::create_directories(base / "runs");
  fs::create_directories(base / "tables");
  const std::string stem = config.name + "-seed" + std::to_string(config.seed);

  const fs::path jsonl_path = base / "runs" / (stem + ".jsonl");
  {
    std::ofstream out(jsonl_path, std::ios::binary);
    GEORED_ENSURE(out.good(), "cannot write " + jsonl_path.string());
    out << result.jsonl();
  }
  const fs::path table_path = base / "tables" / (stem + ".txt");
  {
    std::ofstream out(table_path, std::ios::binary);
    GEORED_ENSURE(out.good(), "cannot write " + table_path.string());
    out << result.table();
  }
  return jsonl_path.string();
}

}  // namespace geored::scenario
