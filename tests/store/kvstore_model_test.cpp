// Model-checking test: under sequential operation (each op completes before
// the next is issued) with intersecting quorums, the replicated store must
// behave exactly like a plain map — for any randomized operation sequence,
// any key distribution, any client placement, and across placement epochs
// with data migration happening between ops.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "common/random.h"
#include "store/kvstore.h"
#include "topology/planetlab_model.h"
#include "netcoord/embedding.h"

namespace geored::store {
namespace {

/// The value "v<n>", built by appending: GCC 12 at -O3 reports a false
/// -Wrestrict overlap inside libstdc++ for "v" + std::to_string(n).
std::string value_for(std::uint64_t n) {
  std::string value = "v";
  value += std::to_string(n);
  return value;
}

class KvStoreModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KvStoreModel, SequentialOpsMatchReferenceMap) {
  const std::uint64_t seed = GetParam();

  topo::PlanetLabModelConfig topo_config;
  topo_config.node_count = 40;
  const auto topology = topo::generate_planetlab_like(topo_config, seed);
  coord::GossipConfig gossip;
  gossip.rounds = 64;
  const auto coords = coord::run_rnp(topology, coord::RnpConfig{}, gossip, seed);

  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < 8; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i), coords[i].position,
                          std::numeric_limits<double>::infinity()});
  }
  std::vector<topo::NodeId> clients;
  for (std::size_t i = 8; i < topology.size(); ++i) {
    clients.push_back(static_cast<topo::NodeId>(i));
  }

  sim::Simulator simulator;
  sim::Network network(simulator, topology);
  StoreConfig config;
  config.quorum = {3, 2, 2};  // r + w > n: quorum intersection
  config.groups = 3;
  config.manager.migration.min_relative_gain = 0.02;
  ReplicatedKvStore store(simulator, network, candidates, config, seed);

  Rng rng(seed * 31 + 1);
  std::map<ObjectId, std::string> reference;
  constexpr std::size_t kKeys = 30;

  for (int op = 0; op < 400; ++op) {
    const auto client = clients[rng.below(clients.size())];
    const Point& coord = coords[client].position;
    const auto key = static_cast<ObjectId>(rng.below(kKeys));

    if (rng.bernoulli(0.4)) {
      const std::string value = value_for(static_cast<std::uint64_t>(op));
      bool completed = false;
      store.put(client, coord, key, value, [&](const PutResult&) { completed = true; });
      simulator.run();  // sequential: drain before the next op
      ASSERT_TRUE(completed);
      reference[key] = value;
    } else {
      std::optional<GetResult> result;
      store.get(client, coord, key, [&](const GetResult& r) { result = r; });
      simulator.run();
      ASSERT_TRUE(result.has_value());
      const auto expected = reference.find(key);
      if (expected == reference.end()) {
        EXPECT_FALSE(result->value.exists()) << "op " << op << " key " << key;
      } else {
        ASSERT_TRUE(result->value.exists()) << "op " << op << " key " << key;
        EXPECT_EQ(result->value.data, expected->second) << "op " << op;
        EXPECT_FALSE(result->stale);
      }
    }

    // Occasionally run placement epochs (with migrations) mid-sequence; the
    // store must stay sequentially consistent across them.
    if (op % 97 == 96) {
      store.run_placement_epochs();
      simulator.run();
    }
  }
  EXPECT_EQ(store.stale_reads(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvStoreModel, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace geored::store
