#include "workload/workload.h"

#include <gtest/gtest.h>

#include <cmath>

namespace geored::wl {
namespace {

TEST(StaticWorkload, ConstantRates) {
  StaticWorkload workload({0.5, 2.0});
  EXPECT_EQ(workload.client_count(), 2u);
  EXPECT_DOUBLE_EQ(workload.rate(0, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(workload.rate(0, 1e9), 0.5);
  EXPECT_DOUBLE_EQ(workload.max_rate(1), 2.0);
}

TEST(StaticWorkload, RejectsBadArguments) {
  EXPECT_THROW(StaticWorkload({}), std::invalid_argument);
  EXPECT_THROW(StaticWorkload({-1.0}), std::invalid_argument);
}

TEST(Workload, ArrivalTimesWithinIntervalWithCorrectMean) {
  StaticWorkload workload({0.01});
  Rng rng(5);
  std::size_t total = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const auto arrivals = workload.sample_arrival_times(0, 100.0, 1100.0, rng);
    total += arrivals.size();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      ASSERT_GE(arrivals[i], 100.0);
      ASSERT_LT(arrivals[i], 1100.0);
      if (i > 0) {
        ASSERT_GE(arrivals[i], arrivals[i - 1]);
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(total) / 500.0, 10.0, 0.5);
}

TEST(Workload, ZeroRateProducesNoArrivals) {
  StaticWorkload workload({0.0});
  Rng rng(7);
  EXPECT_TRUE(workload.sample_arrival_times(0, 0.0, 1e6, rng).empty());
}

TEST(UniformWorkload, PreservesPopulationMeanRate) {
  const auto workload = make_uniform_workload(2000, 0.01, 0.5, 11);
  double total = 0.0;
  for (std::size_t i = 0; i < workload->client_count(); ++i) total += workload->rate(i, 0.0);
  EXPECT_NEAR(total / 2000.0, 0.01, 0.001);
}

TEST(UniformWorkload, SigmaZeroGivesIdenticalRates) {
  const auto workload = make_uniform_workload(10, 0.5, 0.0, 1);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(workload->rate(i, 0.0), 0.5);
}

TEST(ZipfWorkload, RatesSumToTotalAndFollowZipf) {
  const auto workload = make_zipf_workload(100, 10.0, 1.0, 13);
  double total = 0.0;
  double max_rate = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    total += workload->rate(i, 0.0);
    max_rate = std::max(max_rate, workload->rate(i, 0.0));
  }
  EXPECT_NEAR(total, 10.0, 1e-9);
  // Zipf(1) head holds ~1/H(100) ~ 19% of the mass.
  EXPECT_NEAR(max_rate, 10.0 * 0.1928, 0.01);
}

}  // namespace
}  // namespace geored::wl
