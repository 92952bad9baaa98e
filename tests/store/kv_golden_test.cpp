// Golden digests of the replicated store running on the simulated network.
//
// Each case drives a fixed-seed mix of concurrent puts and gets from a set of
// clients, with placement epochs (and their migrations) between phases, and
// folds everything observable into one FNV-1a digest:
//   * every op's completion order, latency, version and (for reads) value
//     bytes and staleness;
//   * the store's read/write/stale/not-found/read-repair counters;
//   * TrafficStats bytes and messages per class;
//   * the final contents of every replica.
// The expected digests were captured before the simulator's event queue and
// the store's data path were rewritten for allocation-free operation; they
// pin that the rewrite changed no event order, no delay and no byte.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "store/kvstore.h"
#include "topology/topology.h"

namespace geored::store {
namespace {

constexpr std::size_t kDataCenters = 6;
constexpr std::size_t kNodes = 16;
constexpr ObjectId kKeys = 24;
constexpr int kPhases = 3;
constexpr int kOpsPerPhase = 300;

/// FNV-1a over the raw bytes of every folded value.
class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void version(const Version& v) {
    u64(v.logical);
    u64(v.writer);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// 16 nodes at seeded 2-D positions; RTT = 1 + Euclidean distance. Nodes
/// 0..5 are data centers, the rest clients. Coordinates are the positions.
struct GoldenWorld {
  topo::Topology topology;
  std::vector<place::CandidateInfo> candidates;
  std::vector<Point> positions;

  GoldenWorld() {
    Rng rng(2011);
    for (std::size_t i = 0; i < kNodes; ++i) {
      positions.push_back(Point{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
    }
    SymMatrix rtt(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      for (std::size_t j = i + 1; j < kNodes; ++j) {
        rtt.set(i, j, 1.0 + std::sqrt(positions[i].distance_squared_to(positions[j])));
      }
    }
    topology = topo::Topology(std::vector<topo::NodeInfo>(kNodes), std::move(rtt), {});
    for (std::size_t i = 0; i < kDataCenters; ++i) {
      candidates.push_back({static_cast<topo::NodeId>(i), positions[i],
                            std::numeric_limits<double>::infinity()});
    }
  }
};

struct GoldenCase {
  const char* name;
  QuorumConfig quorum;
  bool read_repair;
  sim::NetworkConfig network;
  std::uint64_t seed;
};

struct OpRecord {
  bool done = false;
  double latency_ms = 0.0;
  Version version;
  std::string value;
  bool exists = false;
  bool stale = false;
};

struct GoldenRun {
  std::uint64_t digest = 0;
  std::uint64_t migration_bytes = 0;
  std::uint64_t read_repairs = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t incomplete = 0;
};

GoldenRun run_case(const GoldenCase& golden) {
  const GoldenWorld world;
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology, golden.network);
  StoreConfig config;
  config.quorum = golden.quorum;
  config.groups = 4;
  config.manager.summarizer.max_clusters = 4;
  config.manager.migration.min_relative_gain = 0.01;
  config.manager.migration.min_absolute_gain_ms = 0.1;
  config.read_repair = golden.read_repair;
  ReplicatedKvStore store(simulator, network, world.candidates, config, golden.seed);

  Rng rng(golden.seed * 7919 + 13);
  std::vector<OpRecord> ops(static_cast<std::size_t>(kPhases * kOpsPerPhase));
  std::vector<std::size_t> completion_order;

  for (int phase = 0; phase < kPhases; ++phase) {
    // Phase 0 draws clients from the first half, phase 1 from the second,
    // phase 2 from all of them, so the epochs between phases migrate.
    const std::size_t clients = kNodes - kDataCenters;
    const std::size_t first = kDataCenters + (phase == 1 ? clients / 2 : 0);
    const std::size_t span = phase == 2 ? clients : clients / 2;
    double t = simulator.now();
    for (int k = 0; k < kOpsPerPhase; ++k) {
      const std::size_t op = static_cast<std::size_t>(phase * kOpsPerPhase + k);
      t += rng.exponential(0.5);
      const auto client = static_cast<topo::NodeId>(first + rng.below(span));
      const ObjectId key = rng.below(kKeys);
      const bool is_put = rng.bernoulli(0.35);
      std::string value = "op" + std::to_string(op) + "-";
      value.append(rng.below(200), static_cast<char>('a' + op % 26));
      simulator.schedule_at(t, [&, op, client, key, is_put, value] {
        const Point& coords = world.positions[client];
        if (is_put) {
          store.put(client, coords, key, value, [&, op](const PutResult& r) {
            ops[op] = {true, r.latency_ms, r.version, {}, true, false};
            completion_order.push_back(op);
          });
        } else {
          store.get(client, coords, key, [&, op](const GetResult& r) {
            const std::string_view bytes = r.value.data;
            ops[op] = {true, r.latency_ms, r.value.version, std::string(bytes),
                       r.value.exists(), r.stale};
            completion_order.push_back(op);
          });
        }
      });
    }
    simulator.run();
    store.run_placement_epochs();
    simulator.run();
  }

  GoldenRun run;
  Fnv fnv;
  fnv.u64(completion_order.size());
  for (const auto op : completion_order) fnv.u64(op);
  for (const auto& op : ops) {
    run.incomplete += op.done ? 0 : 1;
    fnv.f64(op.latency_ms);
    fnv.version(op.version);
    fnv.str(op.value);
    fnv.u64(op.exists);
    fnv.u64(op.stale);
  }
  fnv.u64(store.reads());
  fnv.u64(store.writes());
  fnv.u64(store.stale_reads());
  fnv.u64(store.not_found_reads());
  fnv.u64(store.read_repairs());
  for (std::size_t c = 0; c < sim::kTrafficClassCount; ++c) {
    fnv.u64(network.stats().bytes[c]);
    fnv.u64(network.stats().messages[c]);
  }
  for (std::size_t dc = 0; dc < kDataCenters; ++dc) {
    const StorageNode& node = store.storage_at(static_cast<topo::NodeId>(dc));
    fnv.u64(node.object_count());
    for (ObjectId id = 0; id < kKeys; ++id) {
      const VersionedValue value = node.read(store.group_of(id), id);
      fnv.version(value.version);
      const std::string_view bytes = value.data;
      fnv.str(bytes);
    }
  }
  fnv.f64(simulator.now());
  run.digest = fnv.value();
  run.migration_bytes =
      network.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kMigration)];
  run.read_repairs = store.read_repairs();
  run.stale_reads = store.stale_reads();
  return run;
}

const sim::NetworkConfig kPlainNetwork{};
const sim::NetworkConfig kJitterBandwidth{/*bandwidth_bytes_per_ms=*/40.0, /*jitter=*/0.25};

TEST(KvGolden, StrictQuorumWithMigrations) {
  const GoldenRun run = run_case({"strict", {3, 2, 2}, false, kPlainNetwork, 1});
  EXPECT_EQ(run.incomplete, 0u);
  EXPECT_GT(run.migration_bytes, 0u);
  EXPECT_EQ(run.stale_reads, 0u);
  EXPECT_EQ(run.digest, 0x457be972cae9271aULL);
}

TEST(KvGolden, WeakQuorumServesStaleReads) {
  const GoldenRun run = run_case({"weak", {3, 1, 1}, false, kPlainNetwork, 2});
  EXPECT_EQ(run.incomplete, 0u);
  EXPECT_GT(run.stale_reads, 0u);
  EXPECT_EQ(run.digest, 0x8512a8468e1ad609ULL);
}

TEST(KvGolden, ReadRepairOn) {
  const GoldenRun run = run_case({"repair", {3, 3, 1}, true, kPlainNetwork, 3});
  EXPECT_EQ(run.incomplete, 0u);
  EXPECT_GT(run.read_repairs, 0u);
  EXPECT_EQ(run.digest, 0xe80b88d8a70d9f87ULL);
}

TEST(KvGolden, JitterAndBandwidth) {
  const GoldenRun run = run_case({"jitter_bw", {3, 2, 2}, false, kJitterBandwidth, 4});
  EXPECT_EQ(run.incomplete, 0u);
  EXPECT_GT(run.migration_bytes, 0u);
  EXPECT_EQ(run.digest, 0x186eecdc8dd848edULL);
}

TEST(KvGolden, WeakQuorumRepairUnderJitter) {
  const GoldenRun run = run_case({"weak_repair_jitter", {2, 1, 1}, true, kJitterBandwidth, 5});
  EXPECT_EQ(run.incomplete, 0u);
  EXPECT_EQ(run.digest, 0xfec2d52cb96ffa8bULL);
}

TEST(KvGolden, RunsAreReproducible) {
  const GoldenCase golden{"repeat", {3, 2, 1}, true, kJitterBandwidth, 6};
  EXPECT_EQ(run_case(golden).digest, run_case(golden).digest);
}

}  // namespace
}  // namespace geored::store
