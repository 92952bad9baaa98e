// Declarative scenario files: schema and parser.
//
// A scenario is one JSON document describing a complete dynamic experiment:
// the world (topology, coordinates, data centers), the base demand
// (workload), the placement machinery (manager / fleet / collector), and a
// time-ordered list of events — diurnal envelopes, flash crowds, data-center
// outages, client-population drift, and group-weight churn. The parser is
// hand-rolled (no dependencies), validates the schema strictly — unknown
// keys, wrong types, bad references, and malformed schedules are typed
// errors with a JSON path — and the parsed form is a plain struct the
// runner (scenario/runner.h) turns into a seeded event schedule.
//
// Determinism contract: a ScenarioConfig is a pure function of the file
// bytes, and every random choice downstream derives from the seeds recorded
// here, so (file, seed) fully determines a run.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/replication_manager.h"
#include "net/rpc_config.h"
#include "netcoord/embedding.h"
#include "serve/request_router.h"
#include "topology/topology.h"

namespace geored::scenario {

/// Parse/validation failure, classified so tests and tools can react to the
/// *kind* of mistake, with the JSON path of the offending element.
class ScenarioError : public std::invalid_argument {
 public:
  enum class Kind {
    kSyntax,        ///< the document is not well-formed JSON
    kUnknownKey,    ///< an object key the schema does not define
    kBadValue,      ///< wrong type or out-of-range value
    kBadReference,  ///< names an entity that does not exist (group, region)
    kBadSchedule,   ///< events out of order or overlapping
  };

  ScenarioError(Kind kind, std::string path, const std::string& message);

  Kind kind() const { return kind_; }
  /// JSON path of the offending element, e.g. "events[2].factor".
  const std::string& path() const { return path_; }

 private:
  Kind kind_;
  std::string path_;
};

/// Synthetic world: a PlanetLab-like topology whose first `dcs` nodes are
/// the candidate data centers and whose remaining nodes are the client
/// universe (activated/retired by population events).
struct TopologySpec {
  /// Largest accepted `nodes`. The runner builds an RTT matrix of
  /// n(n-1)/2 doubles, about 400 MB at this size; the shipped scenarios use
  /// at most 120 nodes. Since dcs < nodes, it bounds `dcs` too.
  static constexpr std::size_t kMaxNodes = 10000;

  std::size_t nodes = 100;
  std::size_t dcs = 12;
  std::uint64_t seed = 99;
};

/// Network-coordinate embedding used for summary space and (with routing
/// "coords") replica selection.
struct CoordsSpec {
  /// Largest accepted `rounds`, 16 times the default: every round observes
  /// once per node and every 16th refits every node, so the embedding's
  /// time grows with rounds times nodes; the shipped scenarios use at most
  /// 256 rounds.
  static constexpr std::size_t kMaxRounds = 4096;

  /// "rnp" | "vivaldi": a gossip protocol (GNP is rejected).
  coord::CoordSystem system = coord::CoordSystem::kRnp;
  std::size_t rounds = 256;  ///< gossip rounds
  std::uint64_t seed = 7;
};

/// Base (pre-modulation) per-client demand.
struct WorkloadSpec {
  enum class Kind { kUniform, kZipf };

  Kind kind = Kind::kUniform;    ///< "uniform" | "zipf"
  double mean_rate = 0.0005;     ///< uniform: per-client accesses/ms
  double sigma = 0.0;            ///< uniform: lognormal rate spread
  double total_rate = 0.05;      ///< zipf: fleet-wide accesses/ms
  double exponent = 0.9;         ///< zipf: popularity exponent
  std::uint64_t seed = 3;
};

/// Fleet shape; groups > 1 runs a FleetManager, 1 a bare manager pipeline.
struct FleetSpec {
  std::size_t groups = 1;
  std::size_t replica_budget = 0;  ///< 0 = no budget, degrees stay per-group
  std::size_t min_degree = 1;
  std::size_t max_degree = 7;
  /// Initial per-group traffic weights (empty = all 1). Sized to `groups`.
  std::vector<double> weights;
};

/// One scheduled event. Windowed kinds (flash_crowd, outage) carry
/// [start_ms, end_ms); instant kinds (population, group_weight) fire at
/// at_ms (an epoch boundary rounds them: in force for every epoch whose
/// window starts at or after at_ms); diurnal is a standing envelope from
/// t=0. Fields not used by a kind stay at their defaults.
struct Event {
  enum class Kind { kDiurnal, kFlashCrowd, kOutage, kPopulation, kGroupWeight };

  Kind kind = Kind::kFlashCrowd;

  /// Region pattern the event targets: "*" (all), an exact region name, or
  /// a prefix pattern like "eu-*". Diurnal/flash/population match client
  /// regions; outage matches data-center regions.
  std::string region = "*";
  /// Outage alternative: one specific data center instead of a region.
  std::optional<topo::NodeId> node;

  double start_ms = 0.0;  ///< flash_crowd / outage window start
  double end_ms = 0.0;    ///< flash_crowd / outage window end (exclusive)
  double at_ms = 0.0;     ///< population / group_weight effective time

  double factor = 1.0;  ///< flash_crowd rate multiplier (> 0)

  double period_ms = 86'400'000.0;  ///< diurnal period
  double phase = 0.0;               ///< diurnal peak position in [0,1)
  double floor = 0.1;               ///< diurnal envelope floor in [0,1]

  std::size_t add = 0;     ///< population: clients to activate
  std::size_t retire = 0;  ///< population: clients to deactivate

  std::size_t group = 0;  ///< group_weight target group
  double weight = 1.0;    ///< group_weight new weight (> 0)

  /// Time an event becomes effective (window start for windowed kinds,
  /// at_ms for instants, 0 for diurnal) — the key the schedule-order
  /// validation sorts by.
  double effective_ms() const;
};

/// A whole parsed scenario.
struct ScenarioConfig {
  std::string name;
  std::string description;
  std::uint64_t seed = 1;  ///< root of every runtime random stream

  std::size_t epochs = 8;
  double epoch_ms = 30'000.0;

  TopologySpec topology;
  CoordsSpec coords;
  WorkloadSpec workload;
  core::ManagerConfig manager;
  FleetSpec fleet;

  enum class Collector { kDirect, kRpc };
  Collector collector = Collector::kDirect;  ///< "direct" | "rpc"
  net::RpcCollectorConfig rpc;               ///< consulted when collector is "rpc"

  /// Replica selection: "coords" (nearest in coordinate space) | "true_rtt"
  /// (nearest by the true RTT).
  enum class Routing { kCoords, kTrueRtt };
  Routing routing = Routing::kCoords;

  /// Serving data plane in front of the placement machinery, present when
  /// the scenario has a "serve" block ("policy" is "spill" | "reject"):
  /// accesses route through a serve::RequestRouter (nearest up replica,
  /// bounded per-replica queues, admission control) and every epoch's jsonl
  /// row gains a "serve" record with p50/p99/p999 client-observed latency.
  /// Requires routing "coords" — replica selection runs in coordinate space
  /// through the SoA nearest-of kernels.
  std::optional<serve::ServeConfig> serve;

  /// Fraction of the client universe active at t=0 (first ceil(fraction*n)
  /// clients in node-id order); population events drift it from there.
  double initial_active_fraction = 1.0;

  std::vector<Event> events;
};

/// Parses and validates a scenario document. Throws ScenarioError.
ScenarioConfig parse_scenario(const std::string& text);

/// parse_scenario over the contents of `path`; throws std::runtime_error
/// when the file cannot be read.
ScenarioConfig load_scenario_file(const std::string& path);

}  // namespace geored::scenario
