#include "placement/assign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

namespace geored::place {
namespace {

PointSet rows(const std::vector<Point>& centroids) { return PointSet::from_points(centroids); }

std::vector<CandidateInfo> line_candidates() {
  // Candidates 0..4 at x = 0, 10, 20, 30, 40.
  std::vector<CandidateInfo> candidates;
  for (topo::NodeId id = 0; id < 5; ++id) {
    candidates.push_back({id, Point{10.0 * id}, std::numeric_limits<double>::infinity()});
  }
  return candidates;
}

TEST(Assign, EachCentroidGetsNearestCandidate) {
  const auto placement = assign_centroids_to_candidates(
      rows({Point{1.0}, Point{39.0}}), {1.0, 1.0}, line_candidates(), 2, 0);
  ASSERT_EQ(placement.size(), 2u);
  EXPECT_NE(std::find(placement.begin(), placement.end(), 0u), placement.end());
  EXPECT_NE(std::find(placement.begin(), placement.end(), 4u), placement.end());
}

TEST(Assign, DistinctCandidatesEvenForCoincidentCentroids) {
  const auto placement = assign_centroids_to_candidates(
      rows({Point{20.0}, Point{20.0}, Point{20.0}}), {1.0, 1.0, 1.0}, line_candidates(), 3, 0);
  ASSERT_EQ(placement.size(), 3u);
  std::set<topo::NodeId> unique(placement.begin(), placement.end());
  EXPECT_EQ(unique.size(), 3u);
  // Centre candidate plus its two neighbours.
  EXPECT_TRUE(unique.contains(2));
  EXPECT_TRUE(unique.contains(1));
  EXPECT_TRUE(unique.contains(3));
}

TEST(Assign, HeavierCentroidPicksFirst) {
  // Two centroids both nearest to candidate 2; the heavier one must win it.
  const auto placement = assign_centroids_to_candidates(
      rows({Point{19.0}, Point{21.0}}), {1.0, 10.0}, line_candidates(), 2, 0);
  ASSERT_EQ(placement.size(), 2u);
  // Priority order: centroid 1 (weight 10) -> candidate 2; centroid 0 ->
  // next nearest unused (candidate 1 at distance 9 vs candidate 3 at 11).
  EXPECT_EQ(placement[0], 2u);
  EXPECT_EQ(placement[1], 1u);
}

TEST(Assign, FillsRemainingSlotsNearTheKnownPopulation) {
  // One population at x=0 but three replicas required: the extra replicas
  // go to the nearest unused candidates, not to random far-away ones.
  const auto placement =
      assign_centroids_to_candidates(rows({Point{0.0}}), {1.0}, line_candidates(), 3, 77);
  ASSERT_EQ(placement.size(), 3u);
  EXPECT_EQ(placement[0], 0u);
  EXPECT_EQ(placement[1], 1u);
  EXPECT_EQ(placement[2], 2u);
}

TEST(Assign, FillsRandomlyOnlyWithoutCentroids) {
  const auto placement =
      assign_centroids_to_candidates(PointSet(), {}, line_candidates(), 3, 77);
  ASSERT_EQ(placement.size(), 3u);
  std::set<topo::NodeId> unique(placement.begin(), placement.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(Assign, CapacityRedirectsToNextNearest) {
  auto candidates = line_candidates();
  candidates[2].capacity = 5.0;  // too small for the heavy cluster
  const auto placement =
      assign_centroids_to_candidates(rows({Point{20.0}}), {10.0}, candidates, 1, 0);
  ASSERT_EQ(placement.size(), 1u);
  EXPECT_NE(placement[0], 2u);  // skipped the full candidate
}

TEST(Assign, DegradesGracefullyWhenNobodyHasCapacity) {
  auto candidates = line_candidates();
  for (auto& c : candidates) c.capacity = 1.0;
  const auto placement =
      assign_centroids_to_candidates(rows({Point{20.0}}), {100.0}, candidates, 1, 0);
  ASSERT_EQ(placement.size(), 1u);
  EXPECT_EQ(placement[0], 2u);  // nearest, capacity notwithstanding
}

TEST(Assign, RejectsInconsistentArguments) {
  EXPECT_THROW(assign_centroids_to_candidates(rows({Point{0.0}}), {1.0, 2.0},
                                              line_candidates(), 1, 0),
               std::invalid_argument);
  EXPECT_THROW(assign_centroids_to_candidates(rows({Point{0.0}}), {1.0}, {}, 1, 0),
               std::invalid_argument);
  EXPECT_THROW(assign_centroids_to_candidates(rows({Point{0.0, 0.0}}), {1.0},
                                              line_candidates(), 1, 0),
               std::invalid_argument);
}

TEST(Assign, KCappedByCandidatePool) {
  const auto placement = assign_centroids_to_candidates(
      rows({Point{0.0}, Point{10.0}}), {1.0, 1.0}, line_candidates(), 10, 5);
  EXPECT_EQ(placement.size(), 5u);
  std::set<topo::NodeId> unique(placement.begin(), placement.end());
  EXPECT_EQ(unique.size(), 5u);
}

}  // namespace
}  // namespace geored::place
