#include "placement/candidate_table.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace geored::place {
namespace {

CandidateInfo candidate(topo::NodeId node, Point coords) {
  return {node, std::move(coords), std::numeric_limits<double>::infinity()};
}

TEST(CandidateTable, IndexesEveryCandidateAndItsCoordinates) {
  // Sparse, unordered ids: the index must not assume 0..n-1.
  const std::vector<CandidateInfo> candidates = {candidate(907, Point{1.0, 2.0}),
                                                 candidate(3, Point{3.0, 4.0}),
                                                 candidate(65536, Point{5.0, 6.0})};
  const CandidateTable table(candidates);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.dim(), 2u);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(table.position_of(candidates[i].node), i);
    EXPECT_EQ(table.candidates()[i].node, candidates[i].node);
    EXPECT_EQ(table.coords().point(i), candidates[i].coords);
  }
  const Point origin{0.0, 0.0};
  EXPECT_EQ(table.distance_squared(3, origin.values().data()),
            origin.distance_squared_to(Point{3.0, 4.0}));
}

TEST(CandidateTable, RepeatedNodeResolvesToItsFirstPosition) {
  const CandidateTable table({candidate(4, Point{0.0}), candidate(9, Point{1.0}),
                              candidate(4, Point{2.0}), candidate(9, Point{3.0})});
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.position_of(4), 0u);
  EXPECT_EQ(table.position_of(9), 1u);
  const double query[] = {0.0};
  EXPECT_EQ(table.distance_squared(4, query), 0.0);
  EXPECT_EQ(table.distance_squared(9, query), 1.0);
}

TEST(CandidateTable, UnknownNodeThrows) {
  std::vector<CandidateInfo> candidates;
  for (topo::NodeId id = 0; id < 100; ++id) candidates.push_back(candidate(2 * id, Point{1.0}));
  const CandidateTable table(candidates);
  EXPECT_EQ(table.find(1), CandidateTable::npos);
  EXPECT_EQ(table.find(200), CandidateTable::npos);
  EXPECT_THROW(table.position_of(1), std::invalid_argument);
  EXPECT_THROW(table.position_of(std::numeric_limits<topo::NodeId>::max()),
               std::invalid_argument);
  const double query[] = {0.0};
  EXPECT_THROW(table.distance_squared(7, query), std::invalid_argument);
  for (topo::NodeId id = 0; id < 100; ++id) EXPECT_EQ(table.position_of(2 * id), id);
}

TEST(CandidateTable, RejectsMixedDimensionsAndAnEmptyList) {
  EXPECT_THROW(CandidateTable({candidate(0, Point{1.0, 2.0}), candidate(1, Point{1.0})}),
               std::invalid_argument);
  EXPECT_THROW(CandidateTable(std::vector<CandidateInfo>{}), std::invalid_argument);
}

}  // namespace
}  // namespace geored::place
