// Fuzz-style randomized invariant test for MicroClusterSummarizer: feed it
// arbitrary access streams (clustered, uniform, coincident, interleaved
// decay/merge_cluster) and assert the CluStream sufficient-statistics
// invariants after every operation:
//   * cluster count never exceeds the budget m,
//   * counts are positive,
//   * per dimension, n * sum2[d] >= sum[d]^2 (Cauchy-Schwarz: the moments
//     describe a realizable point multiset),
//   * centroid and rms_stddev are finite,
//   * the summarizer's total access count matches the adds it received,
//   * the wire encodings round-trip bitwise and their size functions
//     predict exactly the bytes their writers emit: the full frame, and the
//     centroid frame completed by the moment frame.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "cluster/summarizer.h"
#include "common/random.h"
#include "common/serialize.h"
#include "reference/microcluster.h"

namespace geored::cluster {
namespace {

/// Serialization round-trip after every mutation: write_clusters must emit
/// exactly serialized_size() bytes (Table II's bandwidth accounting depends
/// on the prediction being exact), and deserialization must reproduce every
/// moment bit for bit — including zero-variance clusters and clusters built
/// by budget-overflow merges.
void expect_roundtrip(const MicroClusterSummarizer& summarizer, std::uint64_t seed,
                      std::size_t step) {
  const ClusterView rows = summarizer.clusters();
  ByteWriter writer;
  write_clusters(writer, rows);
  ASSERT_EQ(writer.size(), serialized_size(rows))
      << "wire-size prediction diverged at seed " << seed << " step " << step;
  ByteReader reader(writer.bytes());
  const ClusterBuffer decoded_rows = read_clusters(reader);
  ASSERT_TRUE(reader.exhausted()) << "seed " << seed << " step " << step;
  const auto clusters = to_micro_clusters(rows);
  const auto decoded = to_micro_clusters(decoded_rows.view());
  ASSERT_EQ(decoded.size(), clusters.size()) << "seed " << seed << " step " << step;
  ByteWriter again;
  write_clusters(again, decoded_rows.view());
  ASSERT_EQ(again.bytes(), writer.bytes())
      << "decoded frame re-encodes differently at seed " << seed << " step " << step;
  // The two phases: a centroid frame, then the moment frame completing it,
  // rebuild the same full frame, and each re-encodes to the bytes read.
  ByteWriter centroids;
  write_centroid_frame(centroids, rows);
  ASSERT_EQ(centroids.size(), centroid_frame_size(rows))
      << "centroid-frame size prediction diverged at seed " << seed << " step " << step;
  ByteWriter moments;
  write_moment_frame(moments, rows);
  ASSERT_EQ(moments.size(), moment_frame_size(rows))
      << "moment-frame size prediction diverged at seed " << seed << " step " << step;
  ByteReader centroid_reader(centroids.bytes());
  ClusterBuffer completed = read_centroid_frame(centroid_reader);
  ASSERT_TRUE(centroid_reader.exhausted()) << "seed " << seed << " step " << step;
  ByteWriter centroids_again;
  write_centroid_frame(centroids_again, completed.view());
  ASSERT_EQ(centroids_again.bytes(), centroids.bytes()) << "seed " << seed << " step " << step;
  ByteReader moment_reader(moments.bytes());
  read_moment_frame(moment_reader, completed);
  ASSERT_TRUE(moment_reader.exhausted()) << "seed " << seed << " step " << step;
  ByteWriter moments_again;
  write_moment_frame(moments_again, completed.view());
  ASSERT_EQ(moments_again.bytes(), moments.bytes()) << "seed " << seed << " step " << step;
  ByteWriter completed_frame;
  write_clusters(completed_frame, completed.view());
  ASSERT_EQ(completed_frame.bytes(), writer.bytes())
      << "two phases rebuild a different frame at seed " << seed << " step " << step;
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    ASSERT_EQ(decoded[i].count(), clusters[i].count());
    ASSERT_EQ(decoded[i].sum().dim(), clusters[i].sum().dim());
    for (std::size_t d = 0; d < clusters[i].sum().dim(); ++d) {
      ASSERT_EQ(decoded[i].sum()[d], clusters[i].sum()[d])
          << "sum bit mismatch at seed " << seed << " step " << step;
      ASSERT_EQ(decoded[i].sum2()[d], clusters[i].sum2()[d])
          << "sum2 bit mismatch at seed " << seed << " step " << step;
    }
  }
}

void expect_invariants(const MicroClusterSummarizer& summarizer,
                       const SummarizerConfig& config, std::uint64_t seed,
                       std::size_t step) {
  const auto clusters = to_micro_clusters(summarizer.clusters());
  ASSERT_LE(clusters.size(), config.max_clusters)
      << "budget exceeded at seed " << seed << " step " << step;
  for (const auto& cluster : clusters) {
    ASSERT_GT(cluster.count(), 0u) << "seed " << seed << " step " << step;
    ASSERT_EQ(cluster.sum().dim(), cluster.sum2().dim());
    const auto n = static_cast<double>(cluster.count());
    for (std::size_t d = 0; d < cluster.sum().dim(); ++d) {
      const double sum = cluster.sum()[d];
      const double sum2 = cluster.sum2()[d];
      ASSERT_TRUE(std::isfinite(sum) && std::isfinite(sum2));
      // Cauchy-Schwarz with floating-point slack scaled to the magnitude.
      ASSERT_GE(n * sum2, sum * sum - 1e-6 * std::max(1.0, sum * sum))
          << "moment invariant violated in dim " << d << " at seed " << seed
          << " step " << step;
    }
    ASSERT_TRUE(cluster.centroid().is_finite());
    const double stddev = cluster.rms_stddev();
    ASSERT_TRUE(std::isfinite(stddev));
    ASSERT_GE(stddev, 0.0);
  }
}

void run_summarizer_fuzz(std::uint64_t seed) {
  Rng rng(seed);
  SummarizerConfig config;
  config.max_clusters = 1 + rng.below(12);
  config.min_absorb_radius = rng.uniform(0.0, 20.0);
  config.radius_factor = rng.uniform(0.25, 3.0);
  config.epoch_decay = rng.uniform(0.05, 1.0);
  MicroClusterSummarizer summarizer(config);

  const std::size_t dim = 1 + rng.below(5);
  // A few population centers so the stream is realistically clustered.
  std::vector<Point> centers;
  for (std::size_t c = 0; c < 1 + rng.below(6); ++c) {
    Point p(dim);
    for (std::size_t d = 0; d < dim; ++d) p[d] = rng.uniform(-500.0, 500.0);
    centers.push_back(p);
  }

  std::uint64_t expected_total = 0;
  const std::size_t steps = 300;
  for (std::size_t step = 0; step < steps; ++step) {
    const double action = rng.uniform();
    if (action < 0.85) {
      // One access: near a center, fully uniform, or exactly coincident
      // with a center (exercises zero-variance clusters).
      Point p = centers[rng.below(centers.size())];
      if (rng.bernoulli(0.8)) {
        for (std::size_t d = 0; d < dim; ++d) p[d] += rng.uniform(-30.0, 30.0);
      } else if (rng.bernoulli(0.5)) {
        for (std::size_t d = 0; d < dim; ++d) p[d] = rng.uniform(-1e4, 1e4);
      }
      summarizer.add(p);
      ++expected_total;
    } else if (action < 0.95) {
      // Merge a foreign cluster built from a short access burst, as when a
      // retiring replica hands its summary over. The object's weight is not
      // part of the rows merged.
      MicroCluster foreign;
      const std::size_t burst = 1 + rng.below(20);
      Point p = centers[rng.below(centers.size())];
      for (std::size_t a = 0; a < burst; ++a) {
        for (std::size_t d = 0; d < dim; ++d) p[d] += rng.uniform(-5.0, 5.0);
        foreign.absorb(p, rng.uniform(0.0, 10.0));
      }
      summarizer.merge_cluster(foreign);
      expected_total += foreign.count();
    } else {
      summarizer.decay();
      // decay() drops sub-one-access clusters; total_count_ records adds
      // ever seen, so expected_total is unchanged.
    }
    expect_invariants(summarizer, config, seed, step);
    if (::testing::Test::HasFatalFailure()) return;
    expect_roundtrip(summarizer, seed, step);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(summarizer.total_count(), expected_total);
  }
}

class SummarizerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SummarizerFuzz, SufficientStatisticsInvariantsHoldUnderRandomStreams) {
  run_summarizer_fuzz(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummarizerFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

// Runtime-tunable extended sweep, mirroring PlacementFuzzBudget: CI's
// sanitizer job raises GEORED_FUZZ_ITERS for a deeper hunt.
TEST(SummarizerFuzzBudget, ExtendedRandomSweep) {
  std::uint64_t iters = 5;
  if (const char* env = std::getenv("GEORED_FUZZ_ITERS")) {
    iters = std::strtoull(env, nullptr, 10);
  }
  for (std::uint64_t seed = 1000; seed < 1000 + iters; ++seed) {
    run_summarizer_fuzz(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace geored::cluster
