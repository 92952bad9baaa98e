#include "workload/modulated.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "workload/workload.h"

namespace geored::wl {
namespace {

std::unique_ptr<StaticWorkload> flat(std::size_t clients, double rate) {
  return std::make_unique<StaticWorkload>(std::vector<double>(clients, rate));
}

TEST(ModulatedWorkload, StepFactorAppliesOnlyInsideWindow) {
  RateProfile spike;
  spike.kind = RateProfile::Kind::kStep;
  spike.start_ms = 1000.0;
  spike.end_ms = 2000.0;
  spike.factor = 5.0;
  ModulatedWorkload workload(flat(3, 0.01), {spike});

  EXPECT_DOUBLE_EQ(workload.rate(0, 999.0), 0.01);
  EXPECT_DOUBLE_EQ(workload.rate(0, 1000.0), 0.05);  // start inclusive
  EXPECT_DOUBLE_EQ(workload.rate(0, 1999.0), 0.05);
  EXPECT_DOUBLE_EQ(workload.rate(0, 2000.0), 0.01);  // end exclusive
}

TEST(ModulatedWorkload, AffectedMaskLimitsScope) {
  RateProfile spike;
  spike.kind = RateProfile::Kind::kStep;
  spike.affected = {true, false, true};
  spike.start_ms = 0.0;
  spike.end_ms = 1000.0;
  spike.factor = 3.0;
  ModulatedWorkload workload(flat(3, 0.01), {spike});

  EXPECT_DOUBLE_EQ(workload.rate(0, 500.0), 0.03);
  EXPECT_DOUBLE_EQ(workload.rate(1, 500.0), 0.01);  // not covered
  EXPECT_DOUBLE_EQ(workload.rate(2, 500.0), 0.03);
}

TEST(ModulatedWorkload, DiurnalEnvelopePeaksAtPhaseAndRespectsFloor) {
  RateProfile envelope;
  envelope.kind = RateProfile::Kind::kDiurnal;
  envelope.period_ms = 1000.0;
  envelope.phase = 0.25;
  envelope.floor_fraction = 0.2;
  ModulatedWorkload workload(flat(1, 1.0), {envelope});

  // Peak at t/T == phase; trough half a period later, clamped to the floor.
  EXPECT_NEAR(workload.rate(0, 250.0), 1.0, 1e-12);
  EXPECT_NEAR(workload.rate(0, 750.0), 0.2, 1e-12);
  for (double t = 0.0; t < 2000.0; t += 50.0) {
    const double rate = workload.rate(0, t);
    EXPECT_GE(rate, 0.2 - 1e-12);
    EXPECT_LE(rate, 1.0 + 1e-12);
  }
}

TEST(ModulatedWorkload, ProfilesComposeMultiplicatively) {
  RateProfile envelope;
  envelope.kind = RateProfile::Kind::kDiurnal;
  envelope.period_ms = 1000.0;
  envelope.phase = 0.0;
  envelope.floor_fraction = 0.5;
  RateProfile spike;
  spike.kind = RateProfile::Kind::kStep;
  spike.start_ms = 0.0;
  spike.end_ms = 10'000.0;
  spike.factor = 4.0;
  ModulatedWorkload workload(flat(1, 0.01), {envelope, spike});

  // At t=0 the envelope peaks (1.0) and the spike is live: 0.01 * 1 * 4.
  EXPECT_NEAR(workload.rate(0, 0.0), 0.04, 1e-12);
  // Half a period in, the envelope is at its floor: 0.01 * 0.5 * 4.
  EXPECT_NEAR(workload.rate(0, 500.0), 0.02, 1e-12);
}

TEST(ModulatedWorkload, MaxRateBoundsEveryInstant) {
  RateProfile envelope;
  envelope.kind = RateProfile::Kind::kDiurnal;
  envelope.period_ms = 700.0;
  envelope.phase = 0.3;
  envelope.floor_fraction = 0.1;
  RateProfile spike;
  spike.kind = RateProfile::Kind::kStep;
  spike.start_ms = 300.0;
  spike.end_ms = 1200.0;
  spike.factor = 7.0;
  ModulatedWorkload workload(flat(2, 0.003), {envelope, spike});

  // The thinning contract: max_rate must dominate rate everywhere.
  for (std::size_t i = 0; i < 2; ++i) {
    const double bound = workload.max_rate(i);
    for (double t = 0.0; t < 2000.0; t += 7.0) {
      EXPECT_LE(workload.rate(i, t), bound + 1e-12) << "client " << i << " t " << t;
    }
  }
}

TEST(ModulatedWorkload, RejectsMalformedProfiles) {
  {
    RateProfile inverted;
    inverted.kind = RateProfile::Kind::kStep;
    inverted.start_ms = 500.0;
    inverted.end_ms = 400.0;
    EXPECT_THROW(ModulatedWorkload(flat(1, 1.0), {inverted}), std::invalid_argument);
  }
  {
    RateProfile nonpositive;
    nonpositive.kind = RateProfile::Kind::kStep;
    nonpositive.end_ms = 100.0;
    nonpositive.factor = 0.0;
    EXPECT_THROW(ModulatedWorkload(flat(1, 1.0), {nonpositive}), std::invalid_argument);
  }
  {
    RateProfile wrong_mask;
    wrong_mask.kind = RateProfile::Kind::kStep;
    wrong_mask.end_ms = 100.0;
    wrong_mask.affected = {true, false};  // base has 3 clients
    EXPECT_THROW(ModulatedWorkload(flat(3, 1.0), {wrong_mask}), std::invalid_argument);
  }
}

TEST(ModulatedWorkload, NoProfilesIsIdentity) {
  ModulatedWorkload workload(flat(2, 0.42), {});
  EXPECT_DOUBLE_EQ(workload.rate(0, 123.0), 0.42);
  EXPECT_DOUBLE_EQ(workload.max_rate(1), 0.42);
  EXPECT_EQ(workload.client_count(), 2u);
}

TEST(Workload, ThinningMatchesTimeVaryingRate) {
  // Diurnal arrivals: more arrivals near the peak than near the trough.
  RateProfile envelope;
  envelope.kind = RateProfile::Kind::kDiurnal;
  envelope.period_ms = 1000.0;
  envelope.phase = 0.0;
  envelope.floor_fraction = 0.0;
  ModulatedWorkload workload(flat(1, 0.02), {envelope});
  Rng rng(17);
  std::size_t near_peak = 0, near_trough = 0;
  for (int trial = 0; trial < 300; ++trial) {
    for (const double t : workload.sample_arrival_times(0, 0.0, 1000.0, rng)) {
      const double phase = t / 1000.0;
      if (phase < 0.25 || phase > 0.75) {
        ++near_peak;
      } else {
        ++near_trough;
      }
    }
  }
  EXPECT_GT(near_peak, 3 * near_trough);
}

}  // namespace
}  // namespace geored::wl
