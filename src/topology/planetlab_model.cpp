#include "topology/planetlab_model.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "common/dataflow.h"
#include "common/ensure.h"
#include "common/random.h"
#include "common/sym_matrix.h"
#include "topology/geo.h"

namespace geored::topo {

std::vector<RegionSpec> default_planetlab_regions() {
  // Centres are major PlanetLab hosting areas; weights approximate the site
  // distribution of the 2009-2011 deployment (NA + EU heavy, smaller Asian,
  // Oceanian and South-American contingents).
  return {
      {"na-east", {40.7, -74.0}, 500.0, 0.21},
      {"na-central", {41.9, -87.6}, 450.0, 0.08},
      {"na-west", {37.4, -122.1}, 450.0, 0.13},
      {"eu-west", {51.5, -0.1}, 550.0, 0.17},
      {"eu-central", {48.1, 11.6}, 500.0, 0.12},
      {"eu-south", {41.9, 12.5}, 400.0, 0.06},
      {"east-asia", {35.7, 139.7}, 600.0, 0.10},
      {"china", {39.9, 116.4}, 500.0, 0.05},
      {"oceania", {-33.9, 151.2}, 400.0, 0.04},
      {"south-america", {-23.5, -46.6}, 500.0, 0.04},
  };
}

namespace {

/// Pairs per block of the draw and geometry pipeline: the pairs of a
/// 128-node topology, and a multiple of 64, so that every word of TIV flag
/// bits belongs to one block and only its drawing writes it. A topology of
/// one block runs inline on the caller.
constexpr std::size_t kPairBlock = 8128;
static_assert(kPairBlock % 64 == 0);

/// Scatters a node around a region centre with a Gaussian spread expressed in
/// kilometres, converted to degrees at the centre's latitude.
GeoLocation scatter(const GeoLocation& center, double spread_km, Rng& rng) {
  constexpr double kKmPerDegLat = 111.0;
  const double lat_sigma = spread_km / kKmPerDegLat;
  const double cos_lat = std::max(0.2, std::cos(center.lat_deg * 3.14159265358979 / 180.0));
  const double lon_sigma = spread_km / (kKmPerDegLat * cos_lat);
  GeoLocation loc;
  loc.lat_deg = std::clamp(center.lat_deg + rng.normal(0.0, lat_sigma), -85.0, 85.0);
  loc.lon_deg = center.lon_deg + rng.normal(0.0, lon_sigma);
  if (loc.lon_deg > 180.0) loc.lon_deg -= 360.0;
  if (loc.lon_deg < -180.0) loc.lon_deg += 360.0;
  return loc;
}

}  // namespace

Topology generate_planetlab_like(const PlanetLabModelConfig& config, std::uint64_t seed) {
  GEORED_ENSURE(config.node_count >= 2, "topology needs at least two nodes");

  Rng rng(seed);
  const std::vector<RegionSpec> regions = default_planetlab_regions();
  std::vector<double> weights;
  weights.reserve(regions.size());
  for (const auto& region : regions) weights.push_back(region.weight);

  std::vector<NodeInfo> nodes;
  nodes.reserve(config.node_count);
  std::vector<std::string> region_names;
  region_names.reserve(regions.size());
  for (const auto& region : regions) region_names.push_back(region.name);

  std::vector<double> node_inflation(config.node_count);
  const double factor_lo = std::sqrt(kPathInflationMin);
  const double factor_hi = std::sqrt(kPathInflationMax);
  for (std::size_t i = 0; i < config.node_count; ++i) {
    const std::size_t r = rng.weighted_index(weights);
    NodeInfo node;
    node.region = static_cast<std::uint32_t>(r);
    node.location = scatter(regions[r].center, regions[r].spread_km, rng);
    node.access_ms = rng.uniform(kAccessMsMin, kAccessMsMax);
    nodes.push_back(node);
    node_inflation[i] = rng.uniform(factor_lo, factor_hi);
  }

  // The pairs in the (i, j > i) order of the upper triangle, which is also
  // the row-major order the triangle is stored in, split into blocks. Lane 0
  // makes every pair's draws, block after block, and publishes how many
  // blocks are drawn; a pair's jitter exponent waits in the matrix slot the
  // pair will own and its TIV flag in one bit. Every lane claims the next
  // block and computes its geometry once it is drawn, in the same
  // expression as ever; lane 0 joins in when its draws are done. Each
  // node's haversine terms are computed once, not once per pair.
  const std::size_t n = config.node_count;
  SymMatrix rtt(n);
  std::vector<double>& values = rtt.raw();
  const std::size_t pairs = values.size();
  const std::size_t blocks = (pairs + kPairBlock - 1) / kPairBlock;
  std::vector<std::uint64_t> tiv_bits((pairs + 63) / 64);
  std::vector<HaversinePoint> points;
  points.reserve(n);
  for (const auto& node : nodes) points.push_back(haversine_point(node.location));

  const auto draw_block = [&](std::size_t block) {
    const std::size_t end = std::min(pairs, (block + 1) * kPairBlock);
    for (std::size_t pair = block * kPairBlock; pair < end; ++pair) {
      if (rng.bernoulli(kTivPairFraction)) {
        tiv_bits[pair / 64] |= std::uint64_t{1} << (pair % 64);
      }
      values[pair] = rng.normal(0.0, kLognormalJitterSigma);
    }
  };
  const auto fill_block = [&](std::size_t block) {
    const std::size_t begin = block * kPairBlock;
    const std::size_t end = std::min(pairs, begin + kPairBlock);
    std::size_t i = 0;
    std::size_t row_begin = 0;
    while (row_begin + (n - 1 - i) <= begin) {
      row_begin += n - 1 - i;
      ++i;
    }
    std::size_t j = i + 1 + (begin - row_begin);
    for (std::size_t pair = begin; pair < end; ++pair) {
      const double floor_ms = geodesic_rtt_floor_ms(points[i], points[j]);
      double inflation = node_inflation[i] * node_inflation[j];
      if ((tiv_bits[pair / 64] >> (pair % 64)) & 1U) inflation *= kTivExtraInflation;
      const double access = 2.0 * (nodes[i].access_ms + nodes[j].access_ms);
      double value = floor_ms * inflation + access;
      value *= std::exp(values[pair]);
      values[pair] = std::max(kMinRttMs, value);
      if (++j == n) {
        ++i;
        j = i + 1;
      }
    }
  };

  // No deadlock: lane 0 never waits, and the others wait only for its draws.
  PaddedCounter drawn;       // blocks drawn
  PaddedCounter next_block;  // blocks claimed for their geometry
  std::atomic<bool> stop{false};
  const auto run_lane = [&](std::size_t lane) {
    if (lane == 0) {
      for (std::size_t block = 0; block < blocks; ++block) {
        draw_block(block);
        drawn.value.store(block + 1, std::memory_order_release);
      }
    }
    for (;;) {
      const std::size_t block = next_block.value.fetch_add(1, std::memory_order_relaxed);
      if (block >= blocks) return;
      const auto block_drawn = [&] {
        return drawn.value.load(std::memory_order_acquire) > block;
      };
      if (!spin_until(stop, block_drawn)) return;
      fill_block(block);
    }
  };
  run_lanes(region_lanes(blocks), stop, run_lane);

  return Topology(std::move(nodes), std::move(rtt), std::move(region_names));
}

}  // namespace geored::topo
