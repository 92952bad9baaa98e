// geored — command-line toolkit for the library.
//
//   geored topogen     generate a PlanetLab-like topology file
//   geored analyze     metric properties of a topology (file or synthetic)
//   geored embed       run a coordinate system and report accuracy
//   geored experiment  the paper's multi-strategy placement experiment
//   geored tracegen    synthesize a session-model access trace file
//   geored replay      replay a trace through the replicated KV store
//   geored stability   coordinate drift per round, Vivaldi vs RNP
//   geored verify      quick self-check of the paper's core results
//   geored scenario    run a declarative scenario file (scenarios/*.json)
//   geored serve       replay a workload through the serving data plane
//
// Every subcommand accepts --help. All randomness is seeded; identical
// invocations produce identical output.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/flags.h"
#include "common/point_set.h"
#include "common/serialize.h"
#include "common/significance.h"
#include "serve/request_router.h"
#include "workload/workload.h"
#include "core/evaluation.h"
#include "netcoord/stability.h"
#include "placement/strategy.h"
#include "scenario/runner.h"
#include "store/replay.h"
#include "topology/analysis.h"
#include "topology/planetlab_model.h"

using namespace geored;

namespace {

void add_topology_flags(FlagParser& parser) {
  parser.add_int("nodes", 226, "number of nodes in the synthetic topology");
  parser.add_int("topology-seed", 42, "seed of the synthetic topology");
  parser.add_string("in", "", "read a topology file instead of synthesizing one");
}

topo::Topology topology_from_flags(const FlagParser& parser) {
  if (!parser.get_string("in").empty()) {
    std::ifstream file(parser.get_string("in"));
    if (!file) throw std::invalid_argument("cannot open " + parser.get_string("in"));
    return topo::Topology::load(file);
  }
  topo::PlanetLabModelConfig config;
  config.node_count = static_cast<std::size_t>(parser.get_int("nodes"));
  return topo::generate_planetlab_like(config,
                                       static_cast<std::uint64_t>(parser.get_int("topology-seed")));
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

int handled_help(const FlagParser& parser) {
  std::fputs(parser.help().c_str(), stdout);
  return 0;
}

int cmd_topogen(const std::vector<std::string>& args) {
  FlagParser parser("geored topogen", "generate a synthetic PlanetLab-like topology file");
  parser.add_int("nodes", 226, "number of nodes");
  parser.add_int("topology-seed", 42, "generation seed");
  parser.add_string("out", "", "output file (default: stdout)");
  parser.parse(args);
  if (parser.help_requested()) return handled_help(parser);

  topo::PlanetLabModelConfig config;
  config.node_count = static_cast<std::size_t>(parser.get_int("nodes"));
  const auto topology = topo::generate_planetlab_like(
      config, static_cast<std::uint64_t>(parser.get_int("topology-seed")));
  if (parser.get_string("out").empty()) {
    topology.save(std::cout);
  } else {
    std::ofstream file(parser.get_string("out"));
    if (!file) throw std::invalid_argument("cannot write " + parser.get_string("out"));
    topology.save(file);
    std::printf("wrote %zu-node topology to %s\n", topology.size(),
                parser.get_string("out").c_str());
  }
  return 0;
}

int cmd_analyze(const std::vector<std::string>& args) {
  FlagParser parser("geored analyze", "metric properties of a latency matrix");
  add_topology_flags(parser);
  parser.parse(args);
  if (parser.help_requested()) return handled_help(parser);

  const auto topology = topology_from_flags(parser);
  std::printf("%zu nodes\n%s\n", topology.size(),
              topo::analyze(topology).to_string().c_str());
  return 0;
}

int cmd_embed(const std::vector<std::string>& args) {
  FlagParser parser("geored embed", "embed a topology and report prediction accuracy");
  add_topology_flags(parser);
  parser.add_string("system", "rnp", "coordinate system: rnp|vivaldi|gnp");
  parser.add_int("rounds", 256, "gossip rounds (rnp/vivaldi)");
  parser.add_int("seed", 7, "embedding seed");
  parser.parse(args);
  if (parser.help_requested()) return handled_help(parser);

  const auto topology = topology_from_flags(parser);
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  coord::GossipConfig gossip;
  gossip.rounds = static_cast<std::size_t>(parser.get_int("rounds"));
  const auto coords = coord::embed(
      topology, coord::coord_system_from_name(parser.get_string("system")), gossip, seed);
  std::printf("%s over %zu nodes:\n%s\n", parser.get_string("system").c_str(),
              topology.size(), coord::evaluate_embedding(topology, coords).to_string().c_str());
  return 0;
}

int cmd_experiment(const std::vector<std::string>& args) {
  FlagParser parser("geored experiment",
                    "multi-strategy placement experiment (the paper's protocol)");
  parser.add_int("nodes", 226, "topology nodes");
  parser.add_int("topology-seed", 42, "topology seed");
  parser.add_string("system", "rnp", "coordinate system: rnp|vivaldi|gnp");
  parser.add_int("dcs", 20, "candidate data centers");
  parser.add_int("k", 3, "degree of replication");
  parser.add_int("m", 4, "micro-clusters per replica");
  parser.add_int("runs", 30, "independent runs");
  parser.add_int("quorum", 1, "replicas a client must reach");
  parser.add_string("strategies", "random,offline,online,optimal",
                    "comma-separated: random|offline|online|optimal|greedy|hotzone|local-search");
  parser.add_string("collector", "direct",
                    "summary collection path: direct|hierarchical|decentralized|rpc");
  parser.parse(args);
  if (parser.help_requested()) return handled_help(parser);

  topo::PlanetLabModelConfig topo_config;
  topo_config.node_count = static_cast<std::size_t>(parser.get_int("nodes"));
  const core::Environment env(topo_config,
                              static_cast<std::uint64_t>(parser.get_int("topology-seed")),
                              coord::coord_system_from_name(parser.get_string("system")),
                              coord::GossipConfig{});

  core::ExperimentConfig config;
  config.num_datacenters = static_cast<std::size_t>(parser.get_int("dcs"));
  config.k = static_cast<std::size_t>(parser.get_int("k"));
  config.micro_clusters = static_cast<std::size_t>(parser.get_int("m"));
  config.runs = static_cast<std::size_t>(parser.get_int("runs"));
  config.quorum = static_cast<std::size_t>(parser.get_int("quorum"));
  config.strategies.clear();
  for (const auto& name : split_csv(parser.get_string("strategies"))) {
    config.strategies.push_back(place::strategy_kind(name));
  }
  config.collector = parser.get_string("collector");

  const auto result = run_experiment(env, config);
  std::printf("%-18s %14s %12s %16s\n", "strategy", "avg delay", "95% CI", "vs first");
  const auto& reference = result.outcomes.front();
  for (const auto& outcome : result.outcomes) {
    std::string significance = "-";
    if (&outcome != &reference) {
      const auto test =
          paired_t_test(outcome.per_run_delay_ms, reference.per_run_delay_ms);
      std::ostringstream os;
      os.precision(3);
      os << (test.mean_difference > 0 ? "+" : "") << test.mean_difference << "ms p="
         << test.p_value;
      significance = os.str();
    }
    std::printf("%-18s %12.2fms %10.2fms %12s\n", outcome.name.c_str(),
                outcome.average_delay_ms.mean, outcome.average_delay_ms.ci95_halfwidth,
                significance.c_str());
  }
  return 0;
}

int cmd_tracegen(const std::vector<std::string>& args) {
  FlagParser parser("geored tracegen", "synthesize a session-model access trace");
  parser.add_int("clients", 100, "number of clients");
  parser.add_int("objects", 1000, "object catalogue size");
  parser.add_double("duration-s", 600.0, "trace duration, seconds");
  parser.add_double("zipf", 0.9, "object popularity exponent");
  parser.add_double("write-fraction", 0.05, "probability a request writes");
  parser.add_int("seed", 1, "generation seed");
  parser.add_string("out", "", "output file (default: stdout)");
  parser.parse(args);
  if (parser.help_requested()) return handled_help(parser);

  wl::SessionTraceConfig config;
  config.clients = static_cast<std::size_t>(parser.get_int("clients"));
  config.objects = static_cast<std::size_t>(parser.get_int("objects"));
  config.duration_ms = parser.get_double("duration-s") * 1000.0;
  config.zipf_exponent = parser.get_double("zipf");
  config.write_fraction = parser.get_double("write-fraction");
  const auto trace =
      wl::generate_session_trace(config, static_cast<std::uint64_t>(parser.get_int("seed")));
  if (parser.get_string("out").empty()) {
    trace.save(std::cout);
  } else {
    std::ofstream file(parser.get_string("out"));
    if (!file) throw std::invalid_argument("cannot write " + parser.get_string("out"));
    trace.save(file);
    const auto stats = trace.stats();
    std::printf("wrote %zu events (%zu clients, %zu objects, %.1f%% writes) to %s\n",
                stats.events, stats.distinct_clients, stats.distinct_objects,
                100.0 * stats.write_fraction, parser.get_string("out").c_str());
  }
  return 0;
}

int cmd_replay(const std::vector<std::string>& args) {
  FlagParser parser("geored replay", "replay an access trace through the KV store");
  add_topology_flags(parser);
  parser.add_string("trace", "", "trace file (default: synthesize a 10-minute trace)");
  parser.add_int("dcs", 15, "candidate data centers (first nodes of the topology)");
  parser.add_int("groups", 16, "object groups");
  parser.add_int("n", 3, "replicas per group");
  parser.add_int("r", 1, "read quorum");
  parser.add_int("w", 2, "write quorum");
  parser.add_double("epoch-s", 60.0, "placement epoch period, seconds (0 = static)");
  parser.add_int("seed", 1, "store / embedding seed");
  parser.parse(args);
  if (parser.help_requested()) return handled_help(parser);

  const auto topology = topology_from_flags(parser);
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  const auto coords = coord::run_rnp(topology, coord::RnpConfig{}, coord::GossipConfig{}, seed);

  const auto dcs = static_cast<std::size_t>(parser.get_int("dcs"));
  if (dcs >= topology.size()) throw std::invalid_argument("--dcs must leave client nodes");
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < dcs; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i), coords[i].position,
                          std::numeric_limits<double>::infinity()});
  }
  std::vector<topo::NodeId> clients;
  std::vector<Point> client_coords;
  for (std::size_t i = dcs; i < topology.size(); ++i) {
    clients.push_back(static_cast<topo::NodeId>(i));
    client_coords.push_back(coords[i].position);
  }

  wl::Trace trace;
  if (parser.get_string("trace").empty()) {
    wl::SessionTraceConfig trace_config;
    trace_config.clients = clients.size();
    const auto generated = wl::generate_session_trace(trace_config, seed);
    trace = generated;
  } else {
    std::ifstream file(parser.get_string("trace"));
    if (!file) throw std::invalid_argument("cannot open " + parser.get_string("trace"));
    trace = wl::Trace::load(file);
  }

  sim::Simulator simulator;
  sim::Network network(simulator, topology);
  store::StoreConfig store_config;
  store_config.quorum = {static_cast<std::size_t>(parser.get_int("n")),
                         static_cast<std::size_t>(parser.get_int("r")),
                         static_cast<std::size_t>(parser.get_int("w"))};
  store_config.groups = static_cast<std::size_t>(parser.get_int("groups"));
  store::ReplicatedKvStore store(simulator, network, candidates, store_config, seed);

  store::ReplayConfig replay_config;
  replay_config.placement_epoch_ms = parser.get_double("epoch-s") * 1000.0;
  const auto report =
      store::replay_trace(simulator, store, trace, clients, client_coords, replay_config);

  std::printf("replayed %zu events over %.1f s\n", trace.size(),
              trace.duration_ms() / 1000.0);
  std::printf("reads: %llu (mean %.1f ms, %llu stale, %llu not-found)\n",
              static_cast<unsigned long long>(report.reads), report.get_mean_ms,
              static_cast<unsigned long long>(report.stale_reads),
              static_cast<unsigned long long>(report.not_found_reads));
  std::printf("writes: %llu (mean %.1f ms)\n",
              static_cast<unsigned long long>(report.writes), report.put_mean_ms);
  std::printf("placement epochs: %zu, migrations: %zu\n", report.epochs, report.migrations);
  if (!report.get_mean_by_epoch.empty()) {
    std::printf("read latency by epoch:");
    for (const double mean : report.get_mean_by_epoch) std::printf(" %.1f", mean);
    std::printf(" ms\n");
  }
  std::printf("traffic: %s\n", network.stats().to_string().c_str());
  return 0;
}

int cmd_stability(const std::vector<std::string>& args) {
  FlagParser parser("geored stability",
                    "coordinate drift per gossip round: Vivaldi vs RNP");
  add_topology_flags(parser);
  parser.add_int("rounds", 256, "total gossip rounds (half of them warmup)");
  parser.add_int("seed", 7, "gossip seed");
  parser.parse(args);
  if (parser.help_requested()) return handled_help(parser);

  const auto topology = topology_from_flags(parser);
  coord::StabilityConfig config;
  config.gossip.rounds = static_cast<std::size_t>(parser.get_int("rounds"));
  config.warmup_rounds = config.gossip.rounds / 2;
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

  std::printf("%-10s %14s %14s %16s\n", "protocol", "drift mean", "drift p90",
              "final abs p50");
  for (const auto system : {coord::CoordSystem::kVivaldi, coord::CoordSystem::kRnp}) {
    const auto report = coord::measure_stability(topology, system, config, seed);
    std::printf("%-10s %12.3fms %12.3fms %14.2fms\n",
                coord::coord_system_name(system).c_str(),
                report.displacement_per_round_ms.mean,
                report.displacement_per_round_ms.p90, report.final_abs_error_p50_ms);
  }
  return 0;
}

int cmd_verify(const std::vector<std::string>& args) {
  FlagParser parser("geored verify",
                    "quick end-to-end self-check: runs a small placement experiment and "
                    "asserts the paper's core results hold on this build");
  parser.add_int("runs", 10, "runs per check (more = slower, tighter)");
  parser.parse(args);
  if (parser.help_requested()) return handled_help(parser);

  topo::PlanetLabModelConfig topo_config;
  topo_config.node_count = 140;
  const core::Environment env(topo_config, 42, coord::CoordSystem::kRnp,
                              coord::GossipConfig{});
  core::ExperimentConfig config;
  config.num_datacenters = 15;
  config.runs = static_cast<std::size_t>(parser.get_int("runs"));
  const auto result = run_experiment(env, config);

  const double random = result.mean_of(place::strategy_kind("random"));
  const double offline = result.mean_of(place::strategy_kind("offline_kmeans"));
  const double online = result.mean_of(place::strategy_kind("online"));
  const double optimal = result.mean_of(place::strategy_kind("optimal"));
  const auto quality = env.embedding_quality();

  struct Check {
    const char* what;
    bool ok;
  };
  const std::vector<Check> checks{
      {"RNP median prediction error under 15 ms", quality.absolute_error_ms.p50 < 15.0},
      {"optimal <= online clustering", optimal <= online + 1e-9},
      {"optimal <= offline k-means", optimal <= offline + 1e-9},
      {"online clustering beats random by >= 25%", online < 0.75 * random},
      {"online clustering within 35% of optimal", online < 1.35 * optimal},
  };
  bool all_ok = true;
  for (const auto& check : checks) {
    std::printf("[%s] %s\n", check.ok ? "PASS" : "FAIL", check.what);
    all_ok &= check.ok;
  }
  std::printf("%s (random %.1f / offline %.1f / online %.1f / optimal %.1f ms)\n",
              all_ok ? "verify OK" : "verify FAILED", random, offline, online, optimal);
  return all_ok ? 0 : 1;
}

int cmd_scenario(const std::vector<std::string>& args) {
  FlagParser parser("geored scenario run <file>",
                    "run a declarative scenario file: seeded dynamic experiment with "
                    "failures, churn, and flash crowds; prints the per-epoch sweep table");
  parser.add_int("seed", -1, "override the scenario file's seed (-1 keeps it)");
  parser.add_string("out", "", "write runs/<name>.jsonl + tables/<name>.txt under this dir");
  parser.add_bool("print-jsonl", false, "dump the per-epoch jsonl to stdout");
  parser.add_string("timings", "",
                    "write the per-epoch stage-timing sidecar (jsonl) to this file; "
                    "timings are observational and vary run to run, so they never "
                    "appear in the deterministic transcript");
  const auto positional = parser.parse(args);
  if (parser.help_requested()) return handled_help(parser);
  if (positional.size() != 2 || positional[0] != "run") {
    std::fputs("usage: geored scenario run <file.json> [--seed N] [--out DIR]\n", stderr);
    return 2;
  }

  scenario::ScenarioConfig config = scenario::load_scenario_file(positional[1]);
  if (parser.get_int("seed") >= 0) {
    config.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  }
  std::printf("scenario %s: %s\n", config.name.c_str(), config.description.c_str());
  std::printf("seed %llu, %zu epochs x %.0f ms, %zu nodes (%zu DCs), %zu group(s)\n\n",
              static_cast<unsigned long long>(config.seed), config.epochs, config.epoch_ms,
              config.topology.nodes, config.topology.dcs, config.fleet.groups);

  const scenario::ScenarioResult result = scenario::run_scenario(config);
  std::fputs(result.table().c_str(), stdout);
  if (parser.get_bool("print-jsonl")) std::fputs(result.jsonl().c_str(), stdout);
  if (!parser.get_string("out").empty()) {
    const std::string jsonl_path =
        scenario::write_artifacts(config, result, parser.get_string("out"));
    std::printf("\nwrote %s\n", jsonl_path.c_str());
  }
  if (!parser.get_string("timings").empty()) {
    std::ofstream timings(parser.get_string("timings"), std::ios::binary);
    if (!timings.good()) {
      std::fprintf(stderr, "cannot write %s\n", parser.get_string("timings").c_str());
      return 1;
    }
    timings << result.timings_jsonl();
    std::printf("wrote %s\n", parser.get_string("timings").c_str());
  }
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  FlagParser parser("geored serve",
                    "replay a seeded workload through the serving data plane: route "
                    "every request to its nearest up replica with admission control "
                    "and report client-observed p50/p99/p999 latency. With "
                    "--checkpoint, serving runs against the placement restored from a "
                    "manager checkpoint (the world flags must match the run that "
                    "wrote it); otherwise a warmup epoch derives the placement from "
                    "the same workload.");
  add_topology_flags(parser);
  parser.add_int("dcs", 15, "candidate data centers (first nodes of the topology)");
  parser.add_int("k", 3, "degree of replication");
  parser.add_int("m", 4, "micro-clusters per replica");
  parser.add_double("duration-s", 60.0, "workload duration, seconds");
  parser.add_double("mean-rate", 0.0005, "per-client accesses per millisecond");
  parser.add_double("sigma", 0.2, "lognormal rate spread across clients");
  parser.add_int("seed", 1, "workload / embedding seed");
  parser.add_double("service-ms", 0.05, "virtual service time per request");
  parser.add_int("queue-cap", 64, "max resident requests per replica");
  parser.add_string("policy", "spill", "full-queue policy: spill|reject");
  parser.add_string("checkpoint", "", "restore the manager from this checkpoint file");
  parser.add_string("checkpoint-out", "",
                    "write the manager checkpoint after warmup to this file");
  parser.parse(args);
  if (parser.help_requested()) return handled_help(parser);

  const auto topology = topology_from_flags(parser);
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  const auto coords =
      coord::run_rnp(topology, coord::RnpConfig{}, coord::GossipConfig{}, seed);

  const auto dcs = static_cast<std::size_t>(parser.get_int("dcs"));
  if (dcs >= topology.size()) throw std::invalid_argument("--dcs must leave client nodes");
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < dcs; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i), coords[i].position,
                          std::numeric_limits<double>::infinity()});
  }

  core::ManagerConfig manager_config;
  manager_config.replication_degree = static_cast<std::size_t>(parser.get_int("k"));
  manager_config.summarizer.max_clusters = static_cast<std::size_t>(parser.get_int("m"));
  core::ReplicationManager manager(candidates, manager_config, seed);

  const std::size_t clients = topology.size() - dcs;
  const double duration_ms = parser.get_double("duration-s") * 1000.0;
  const auto workload = wl::make_uniform_workload(clients, parser.get_double("mean-rate"),
                                                  parser.get_double("sigma"), seed);
  const Rng root(seed);

  if (!parser.get_string("checkpoint").empty()) {
    std::ifstream file(parser.get_string("checkpoint"), std::ios::binary);
    if (!file) {
      throw std::invalid_argument("cannot open " + parser.get_string("checkpoint"));
    }
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                                    std::istreambuf_iterator<char>());
    ByteReader reader(bytes);
    manager.restore(reader);
    std::printf("restored checkpoint %s (placement degree %zu)\n",
                parser.get_string("checkpoint").c_str(), manager.placement().size());
  } else {
    // Warmup: one placement epoch over the same demand the replay serves,
    // so the placement reflects the workload it is about to face.
    const auto warmup = wl::sample_fleet_arrivals(*workload, 0.0, duration_ms, root.fork(0));
    for (const auto& arrival : warmup) {
      manager.serve(coords[dcs + arrival.client].position);
    }
    manager.run_epoch();
    std::printf("warmup epoch: %zu accesses, placement degree %zu\n", warmup.size(),
                manager.placement().size());
  }
  if (!parser.get_string("checkpoint-out").empty()) {
    ByteWriter writer;
    manager.save(writer);
    std::ofstream file(parser.get_string("checkpoint-out"), std::ios::binary);
    if (!file) {
      throw std::invalid_argument("cannot write " + parser.get_string("checkpoint-out"));
    }
    file.write(reinterpret_cast<const char*>(writer.bytes().data()),
               static_cast<std::streamsize>(writer.bytes().size()));
    std::printf("wrote checkpoint %s (%zu bytes)\n",
                parser.get_string("checkpoint-out").c_str(), writer.bytes().size());
  }

  serve::ServeConfig serve_config;
  serve_config.service_ms = parser.get_double("service-ms");
  serve_config.queue_cap = static_cast<std::size_t>(parser.get_int("queue-cap"));
  if (parser.get_string("policy") == "reject") {
    serve_config.policy = serve::ServeConfig::Policy::kReject;
  } else if (parser.get_string("policy") != "spill") {
    throw std::invalid_argument("unknown policy: " + parser.get_string("policy") +
                                " (expected spill|reject)");
  }
  serve::RequestRouter router(serve_config);
  std::vector<serve::ReplicaSpec> replicas;
  for (const auto node : manager.placement()) {
    replicas.push_back({node, coords[node].position});
  }
  router.set_replicas(replicas);

  // The replay itself: one batched route over the merged arrival schedule
  // (the SIMD nearest-up scan plus the sequential admission pass), then the
  // per-request completion with the true topology RTT.
  const auto arrivals = wl::sample_fleet_arrivals(*workload, 0.0, duration_ms, root.fork(1));
  PointSet client_points;
  for (std::size_t c = 0; c < clients; ++c) {
    client_points.push_back(coords[dcs + c].position);
  }
  std::vector<std::size_t> indices;
  std::vector<double> nows;
  for (const auto& arrival : arrivals) {
    indices.push_back(arrival.client);
    nows.push_back(arrival.at_ms);
  }
  std::vector<serve::RouteDecision> decisions(arrivals.size());
  router.route_batch(client_points, indices.data(), arrivals.size(), nows.data(),
                     decisions.data());
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    if (!decisions[j].admitted()) continue;
    const auto client_node = static_cast<topo::NodeId>(dcs + arrivals[j].client);
    router.complete(decisions[j], topology.rtt_ms(client_node, decisions[j].replica));
  }

  const auto& stats = router.stats();
  const auto& histogram = router.histogram();
  std::printf("served %llu requests over %.1f s (%zu clients, %zu up replicas)\n",
              static_cast<unsigned long long>(stats.requests),
              duration_ms / 1000.0, clients, router.up_count());
  std::printf("admitted %llu (%llu spilled), rejected %llu, lost %llu\n",
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.spilled),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.lost));
  std::printf("latency: p50 %.3f ms, p99 %.3f ms, p999 %.3f ms, mean %.3f ms\n",
              histogram.quantile(0.50), histogram.quantile(0.99),
              histogram.quantile(0.999), histogram.mean_ms());
  return 0;
}

void print_usage() {
  std::puts(
      "geored — geo-replication toolkit\n"
      "usage: geored <command> [flags]  (each command accepts --help)\n\n"
      "commands:\n"
      "  topogen     generate a synthetic PlanetLab-like topology file\n"
      "  analyze     metric properties of a latency matrix\n"
      "  embed       coordinate-system prediction accuracy\n"
      "  experiment  the paper's multi-strategy placement experiment\n"
      "  tracegen    synthesize a session-model access trace\n"
      "  replay      replay a trace through the replicated KV store\n"
      "  stability   coordinate drift per round: Vivaldi vs RNP\n"
      "  verify      quick self-check of the paper's core results\n"
      "  scenario    run a declarative scenario file (scenario run <file>)\n"
      "  serve       replay a workload through the serving data plane");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 0;
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "topogen") return cmd_topogen(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "embed") return cmd_embed(args);
    if (command == "experiment") return cmd_experiment(args);
    if (command == "tracegen") return cmd_tracegen(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "verify") return cmd_verify(args);
    if (command == "stability") return cmd_stability(args);
    if (command == "scenario") return cmd_scenario(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "--help" || command == "help") {
      print_usage();
      return 0;
    }
    std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
    print_usage();
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
