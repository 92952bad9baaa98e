#include "scenario/config.h"

#include <gtest/gtest.h>

#include <string>

namespace geored::scenario {
namespace {

/// The smallest valid scenario; tests splice broken fragments into it.
constexpr const char* kMinimal = R"({"name": "t"})";

/// Asserts `text` fails to parse with the given error kind and (when
/// non-empty) JSON path, and returns the error for message checks.
ScenarioError expect_error(const std::string& text, ScenarioError::Kind kind,
                           const std::string& path = "") {
  try {
    parse_scenario(text);
  } catch (const ScenarioError& error) {
    EXPECT_EQ(error.kind(), kind) << error.what();
    if (!path.empty()) {
      EXPECT_EQ(error.path(), path) << error.what();
    }
    return error;
  }
  ADD_FAILURE() << "expected ScenarioError for: " << text;
  return ScenarioError(ScenarioError::Kind::kSyntax, "", "unreached");
}

TEST(ScenarioConfig, MinimalScenarioParsesWithDefaults) {
  const auto config = parse_scenario(kMinimal);
  EXPECT_EQ(config.name, "t");
  EXPECT_EQ(config.seed, 1u);
  EXPECT_EQ(config.epochs, 8u);
  EXPECT_DOUBLE_EQ(config.epoch_ms, 30'000.0);
  EXPECT_EQ(config.topology.nodes, 100u);
  EXPECT_EQ(config.topology.dcs, 12u);
  EXPECT_EQ(config.coords.system, coord::CoordSystem::kRnp);
  EXPECT_EQ(config.workload.kind, WorkloadSpec::Kind::kUniform);
  EXPECT_EQ(config.fleet.groups, 1u);
  EXPECT_EQ(config.collector, ScenarioConfig::Collector::kDirect);
  EXPECT_EQ(config.routing, ScenarioConfig::Routing::kCoords);
  EXPECT_DOUBLE_EQ(config.initial_active_fraction, 1.0);
  EXPECT_TRUE(config.events.empty());
}

TEST(ScenarioConfig, MalformedJsonIsSyntaxErrorWithPosition) {
  const auto error = expect_error(R"({"name": "t",})", ScenarioError::Kind::kSyntax);
  // Syntax errors carry the line:column of the failure.
  EXPECT_NE(std::string(error.what()).find("line"), std::string::npos);
}

TEST(ScenarioConfig, DeepNestingIsASyntaxError) {
  // A recursive descent without a depth bound overflows its stack long
  // before 100,000 levels; the parser rejects the first level past its
  // bound at that level's line and column instead.
  const std::size_t depth = 100000;
  const std::string arrays = std::string(depth, '[') + std::string(depth, ']');
  auto error = expect_error(arrays, ScenarioError::Kind::kSyntax);
  EXPECT_NE(std::string(error.what()).find("line 1 column 65: arrays and objects nested"),
            std::string::npos)
      << error.what();
  std::string objects;
  for (std::size_t i = 0; i < depth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(depth, '}');
  error = expect_error(objects, ScenarioError::Kind::kSyntax);
  EXPECT_NE(std::string(error.what()).find("nested deeper than"), std::string::npos)
      << error.what();
  // The bound leaves room for any real document: 64 levels parse (and then
  // fail the schema, not the syntax).
  expect_error(std::string(64, '[') + std::string(64, ']'), ScenarioError::Kind::kBadValue);
}

TEST(ScenarioConfig, DuplicateKeyIsSyntaxError) {
  expect_error(R"({"name": "a", "name": "b"})", ScenarioError::Kind::kSyntax);
}

TEST(ScenarioConfig, TrailingContentIsSyntaxError) {
  expect_error(R"({"name": "t"} extra)", ScenarioError::Kind::kSyntax);
}

TEST(ScenarioConfig, UnknownTopLevelKeyIsRejectedWithPath) {
  expect_error(R"({"name": "t", "epoch_length": 5})",
               ScenarioError::Kind::kUnknownKey, "epoch_length");
}

TEST(ScenarioConfig, UnknownNestedKeyIsRejectedWithPath) {
  expect_error(R"({"name": "t", "manager": {"degree": 3}})",
               ScenarioError::Kind::kUnknownKey, "manager.degree");
  // The manager always warm-starts its proposals; there is no switch.
  expect_error(R"({"name": "t", "manager": {"warm_start": false}})",
               ScenarioError::Kind::kUnknownKey, "manager.warm_start");
}

TEST(ScenarioConfig, UnknownEventKeyIsRejectedWithPath) {
  expect_error(
      R"({"name": "t", "events": [
           {"kind": "flash_crowd", "start_ms": 0, "end_ms": 1, "magnitude": 2}]})",
      ScenarioError::Kind::kUnknownKey, "events[0].magnitude");
}

TEST(ScenarioConfig, MissingNameIsBadValue) {
  expect_error(R"({"epochs": 4})", ScenarioError::Kind::kBadValue, "name");
}

TEST(ScenarioConfig, ZeroEpochsIsBadValue) {
  expect_error(R"({"name": "t", "epochs": 0})", ScenarioError::Kind::kBadValue,
               "epochs");
}

TEST(ScenarioConfig, NodesAboveTheCapAreBadValue) {
  // The runner would build an n(n-1)/2 RTT matrix from this number.
  for (const char* nodes : {"10001", "4000000000", "18446744073709551615"}) {
    const std::string text =
        std::string(R"({"name": "t", "topology": {"nodes": )") + nodes + R"(, "dcs": 4}})";
    expect_error(text, ScenarioError::Kind::kBadValue, "topology.nodes");
  }
  const auto config =
      parse_scenario(R"({"name": "t", "topology": {"nodes": 10000, "dcs": 9999}})");
  EXPECT_EQ(config.topology.nodes, TopologySpec::kMaxNodes);
}

TEST(ScenarioConfig, UnknownCollectorIsBadValue) {
  expect_error(R"({"name": "t", "collector": "carrier-pigeon"})",
               ScenarioError::Kind::kBadValue, "collector");
}

TEST(ScenarioConfig, ClosedChoicesParseToTheirEnums) {
  const auto config = parse_scenario(
      R"({"name": "t", "coords": {"system": "vivaldi"}, "workload": {"kind": "zipf"},
          "collector": "rpc", "routing": "true_rtt"})");
  EXPECT_EQ(config.coords.system, coord::CoordSystem::kVivaldi);
  EXPECT_EQ(config.workload.kind, WorkloadSpec::Kind::kZipf);
  EXPECT_EQ(config.collector, ScenarioConfig::Collector::kRpc);
  EXPECT_EQ(config.routing, ScenarioConfig::Routing::kTrueRtt);
}

TEST(ScenarioConfig, GnpCoordinatesAreBadValue) {
  // GNP is a coordinate system, but a centralized one: scenarios gossip.
  const auto error = expect_error(R"({"name": "t", "coords": {"system": "gnp"}})",
                                  ScenarioError::Kind::kBadValue, "coords.system");
  EXPECT_NE(std::string(error.what()).find("expected \"rnp\" or \"vivaldi\""),
            std::string::npos)
      << error.what();
}

TEST(ScenarioConfig, RpcCollectorRequiresSingleGroup) {
  expect_error(R"({"name": "t", "collector": "rpc", "fleet": {"groups": 2}})",
               ScenarioError::Kind::kBadValue, "collector");
}

TEST(ScenarioConfig, NonPositiveFlashFactorIsBadValue) {
  expect_error(
      R"({"name": "t", "events": [
           {"kind": "flash_crowd", "start_ms": 0, "end_ms": 1000, "factor": 0}]})",
      ScenarioError::Kind::kBadValue, "events[0].factor");
}

TEST(ScenarioConfig, ZeroActiveFractionIsBadValue) {
  expect_error(R"({"name": "t", "initial_active_fraction": 0})",
               ScenarioError::Kind::kBadValue, "initial_active_fraction");
}

TEST(ScenarioConfig, GroupWeightForMissingGroupIsBadReference) {
  expect_error(
      R"({"name": "t", "fleet": {"groups": 2}, "events": [
           {"kind": "group_weight", "at_ms": 0, "group": 2, "weight": 3}]})",
      ScenarioError::Kind::kBadReference, "events[0].group");
}

TEST(ScenarioConfig, OutageOfNonDataCenterNodeIsBadReference) {
  expect_error(
      R"({"name": "t", "topology": {"dcs": 12}, "events": [
           {"kind": "outage", "node": 12, "start_ms": 0, "end_ms": 1000}]})",
      ScenarioError::Kind::kBadReference, "events[0].node");
}

TEST(ScenarioConfig, OutageNodePastTheNodeIdRangeIsBadReference) {
  // Read as 64 bits and range-checked before it narrows: 2^32 once parsed as
  // an outage of data center 0.
  for (const char* node : {"4294967296", "4294967297", "9007199254740992"}) {
    const std::string text = std::string(R"({"name": "t", "events": [
           {"kind": "outage", "node": )") +
                             node + R"(, "start_ms": 0, "end_ms": 1000}]})";
    const ScenarioError error =
        expect_error(text, ScenarioError::Kind::kBadReference, "events[0].node");
    EXPECT_NE(std::string(error.what()).find(node), std::string::npos) << error.what();
  }
  // The largest id that fits reaches the data-center check whole.
  const ScenarioError error = expect_error(
      R"({"name": "t", "events": [
           {"kind": "outage", "node": 4294967295, "start_ms": 0, "end_ms": 1000}]})",
      ScenarioError::Kind::kBadReference, "events[0].node");
  EXPECT_NE(std::string(error.what()).find("4294967295"), std::string::npos) << error.what();
}

TEST(ScenarioConfig, FleetBudgetBelowTheMinimumIsBadValueWhereTheProductWraps) {
  // groups * min_degree is 2^64, which wraps to 0 in 64 bits.
  expect_error(
      R"({"name":"t","fleet":{"groups":4294967296,"min_degree":4294967296,)"
      R"("max_degree":4294967296,"replica_budget":1}})",
      ScenarioError::Kind::kBadValue, "fleet.replica_budget");
  // The bound itself: 3 groups of at least 2 replicas need a budget of 6.
  expect_error(R"({"name": "t", "fleet": {"groups": 3, "min_degree": 2, "replica_budget": 5}})",
               ScenarioError::Kind::kBadValue, "fleet.replica_budget");
  const auto config = parse_scenario(
      R"({"name": "t", "fleet": {"groups": 3, "min_degree": 2, "replica_budget": 6}})");
  EXPECT_EQ(config.fleet.replica_budget, 6u);
}

TEST(ScenarioConfig, OutOfOrderEventsAreBadSchedule) {
  expect_error(
      R"({"name": "t", "events": [
           {"kind": "population", "at_ms": 60000, "add": 1},
           {"kind": "population", "at_ms": 30000, "add": 1}]})",
      ScenarioError::Kind::kBadSchedule, "events[1]");
}

TEST(ScenarioConfig, OverlappingSameTargetWindowsAreBadSchedule) {
  expect_error(
      R"({"name": "t", "events": [
           {"kind": "flash_crowd", "region": "eu-*", "start_ms": 0, "end_ms": 60000, "factor": 2},
           {"kind": "flash_crowd", "region": "eu-*", "start_ms": 30000, "end_ms": 90000, "factor": 3}]})",
      ScenarioError::Kind::kBadSchedule, "events[1]");
}

TEST(ScenarioConfig, DisjointSameTargetWindowsAreAccepted) {
  const auto config = parse_scenario(
      R"({"name": "t", "events": [
           {"kind": "flash_crowd", "region": "eu-*", "start_ms": 0, "end_ms": 30000, "factor": 2},
           {"kind": "flash_crowd", "region": "eu-*", "start_ms": 30000, "end_ms": 60000, "factor": 3}]})");
  EXPECT_EQ(config.events.size(), 2u);
}

TEST(ScenarioConfig, SecondDiurnalOnSameTargetIsBadSchedule) {
  expect_error(
      R"({"name": "t", "events": [
           {"kind": "diurnal", "region": "na-*", "period_ms": 60000},
           {"kind": "diurnal", "region": "na-*", "period_ms": 30000}]})",
      ScenarioError::Kind::kBadSchedule, "events[1]");
}

TEST(ScenarioConfig, EventAtHorizonIsBadSchedule) {
  // 8 epochs x 30 s = 240 s horizon; an event effective exactly there can
  // never be observed.
  expect_error(
      R"({"name": "t", "events": [
           {"kind": "population", "at_ms": 240000, "add": 1}]})",
      ScenarioError::Kind::kBadSchedule, "events[0]");
}

TEST(ScenarioConfig, InvertedWindowIsBadSchedule) {
  expect_error(
      R"({"name": "t", "events": [
           {"kind": "outage", "node": 0, "start_ms": 5000, "end_ms": 5000}]})",
      ScenarioError::Kind::kBadSchedule, "events[0].end_ms");
}

TEST(ScenarioConfig, OutageNeedsExactlyOneTarget) {
  expect_error(
      R"({"name": "t", "events": [
           {"kind": "outage", "start_ms": 0, "end_ms": 1000}]})",
      ScenarioError::Kind::kBadValue, "events[0]");
  expect_error(
      R"({"name": "t", "events": [
           {"kind": "outage", "node": 0, "region": "na-*", "start_ms": 0, "end_ms": 1000}]})",
      ScenarioError::Kind::kBadValue, "events[0]");
}

TEST(ScenarioConfig, ServeBlockParsesAndDefaultsOff) {
  EXPECT_FALSE(parse_scenario(kMinimal).serve.has_value());
  const auto config = parse_scenario(
      R"({"name": "t", "serve": {"service_ms": 2.0, "queue_cap": 4, "policy": "reject"}})");
  ASSERT_TRUE(config.serve.has_value());
  EXPECT_DOUBLE_EQ(config.serve->service_ms, 2.0);
  EXPECT_EQ(config.serve->queue_cap, 4u);
  EXPECT_EQ(config.serve->policy, serve::ServeConfig::Policy::kReject);
  // An empty block enables serving with the defaults.
  const auto defaults = parse_scenario(R"({"name": "t", "serve": {}})");
  ASSERT_TRUE(defaults.serve.has_value());
  EXPECT_EQ(defaults.serve->policy, serve::ServeConfig::Policy::kSpill);
}

TEST(ScenarioConfig, UnknownServeKeyIsRejectedWithPath) {
  expect_error(R"({"name": "t", "serve": {"burst": 2}})",
               ScenarioError::Kind::kUnknownKey, "serve.burst");
}

TEST(ScenarioConfig, NonPositiveServiceTimeIsBadValue) {
  expect_error(R"({"name": "t", "serve": {"service_ms": 0}})",
               ScenarioError::Kind::kBadValue, "serve.service_ms");
}

TEST(ScenarioConfig, ZeroQueueCapIsBadValue) {
  expect_error(R"({"name": "t", "serve": {"queue_cap": 0}})",
               ScenarioError::Kind::kBadValue, "serve.queue_cap");
}

TEST(ScenarioConfig, UnknownServePolicyIsBadValue) {
  expect_error(R"({"name": "t", "serve": {"policy": "shed"}})",
               ScenarioError::Kind::kBadValue, "serve.policy");
}

TEST(ScenarioConfig, ServeRequiresCoordsRouting) {
  // The router selects replicas in coordinate space; true-RTT routing would
  // disagree with it, so the combination is rejected up front.
  expect_error(R"({"name": "t", "routing": "true_rtt", "serve": {}})",
               ScenarioError::Kind::kBadValue, "serve");
}

}  // namespace
}  // namespace geored::scenario
