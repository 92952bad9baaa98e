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
    if (!path.empty()) EXPECT_EQ(error.path(), path) << error.what();
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
  EXPECT_EQ(config.workload.kind, "uniform");
  EXPECT_EQ(config.fleet.groups, 1u);
  EXPECT_EQ(config.collector, "direct");
  EXPECT_EQ(config.routing, "coords");
  EXPECT_DOUBLE_EQ(config.initial_active_fraction, 1.0);
  EXPECT_TRUE(config.events.empty());
}

TEST(ScenarioConfig, MalformedJsonIsSyntaxErrorWithPosition) {
  const auto error = expect_error(R"({"name": "t",})", ScenarioError::Kind::kSyntax);
  // Syntax errors carry the line:column of the failure.
  EXPECT_NE(std::string(error.what()).find("line"), std::string::npos);
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
  EXPECT_FALSE(parse_scenario(kMinimal).serve.enabled);
  const auto config = parse_scenario(
      R"({"name": "t", "serve": {"service_ms": 2.0, "queue_cap": 4, "policy": "reject"}})");
  EXPECT_TRUE(config.serve.enabled);
  EXPECT_DOUBLE_EQ(config.serve.service_ms, 2.0);
  EXPECT_EQ(config.serve.queue_cap, 4u);
  EXPECT_EQ(config.serve.policy, "reject");
  // An empty block enables serving with the defaults.
  EXPECT_TRUE(parse_scenario(R"({"name": "t", "serve": {}})").serve.enabled);
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
