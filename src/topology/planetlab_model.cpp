#include "topology/planetlab_model.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/ensure.h"
#include "common/random.h"
#include "common/sym_matrix.h"
#include "common/thread_pool.h"
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

/// Below this many pairs the geometry pass runs inline on the caller.
constexpr std::size_t kMinParallelPairs = 4096;

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

  // Pass 1, sequential: every pair's random draws, in the (i, j > i) order
  // of the upper triangle. A pair's jitter exponent waits in the matrix slot
  // the pair will own (the triangle is stored row-major in the same order).
  const std::size_t n = config.node_count;
  SymMatrix rtt(n);
  std::vector<double>& values = rtt.raw();
  std::vector<bool> tiv(values.size());
  for (std::size_t pair = 0; pair < values.size(); ++pair) {
    tiv[pair] = rng.bernoulli(kTivPairFraction);
    values[pair] = rng.normal(0.0, kLognormalJitterSigma);
  }

  // Pass 2, parallel: the geometry of each pair from its draws, in the same
  // expression as ever; each node's haversine terms are computed once, not
  // once per pair. Rows shrink with i, so the work splits over flat pair
  // indices, not rows; a chunk reads the shared per-node arrays and rewrites
  // only its own slots.
  std::vector<HaversinePoint> points;
  points.reserve(n);
  for (const auto& node : nodes) points.push_back(haversine_point(node.location));
  const auto fill_pairs = [&](std::size_t begin, std::size_t end) {
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
      if (tiv[pair]) inflation *= kTivExtraInflation;
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
  parallel_for(values.size(), std::ref(fill_pairs), kMinParallelPairs);

  return Topology(std::move(nodes), std::move(rtt), std::move(region_names));
}

}  // namespace geored::topo
