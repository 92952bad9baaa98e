// Synthetic PlanetLab-like wide-area topology generator.
//
// The paper's evaluation used an RTT matrix measured between 226 PlanetLab
// nodes; that dataset is no longer distributed, so this module generates a
// matrix with the same structural properties that drive placement quality:
//
//   * nodes concentrated in a handful of geographic regions (PlanetLab was
//     dominated by North-American and European academic sites, with smaller
//     Asian / Oceanian / South-American contingents);
//   * intra-region RTTs of roughly 5-60 ms, trans-continental RTTs of
//     100-350 ms, driven by great-circle distance times a path-inflation
//     factor (internet routes are not geodesics);
//   * per-node access-link delay (a few ms each way);
//   * a few percent of pairs with strongly inflated routes, producing the
//     triangle-inequality violations real latency datasets exhibit.
//
// `topology/analysis.h` quantifies these properties so tests can pin them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/geo.h"
#include "topology/topology.h"

namespace geored::topo {

/// One population centre nodes are scattered around.
struct RegionSpec {
  std::string name;
  GeoLocation center;
  double spread_km = 300.0;  ///< std-dev of node scatter around the centre
  double weight = 1.0;       ///< share of nodes drawn from this region
};

/// The region mix, approximating PlanetLab's 2009-2011 footprint.
std::vector<RegionSpec> default_planetlab_regions();

/// Path inflation: measured internet paths are typically 1.3-2.5x longer
/// than the geodesic. Inflation correlates with the endpoints (access ISPs,
/// regional peering), so it is modelled as the product of per-node factors:
/// each node draws a factor uniform in [sqrt(min), sqrt(max)], and a pair's
/// inflation is the product of its endpoints' factors — the product then
/// spans [min, max].
inline constexpr double kPathInflationMin = 1.3;
inline constexpr double kPathInflationMax = 2.2;

/// One-way access-link latency per node, uniform in [min, max] ms.
inline constexpr double kAccessMsMin = 0.5;
inline constexpr double kAccessMsMax = 6.0;

/// Fraction of pairs whose route is pathologically inflated (TIV source)
/// and the extra multiplier applied to them.
inline constexpr double kTivPairFraction = 0.04;
inline constexpr double kTivExtraInflation = 2.5;

/// Multiplicative noise applied to every pair: rtt *= exp(N(0, sigma)).
inline constexpr double kLognormalJitterSigma = 0.05;

/// Floor for any pair's RTT, ms.
inline constexpr double kMinRttMs = 0.2;

struct PlanetLabModelConfig {
  std::size_t node_count = 226;
};

/// Generates a topology; the result is a pure function of (config, seed).
/// The random draws run sequentially; the per-pair geometry runs on the
/// global thread pool (sized by GEORED_THREADS), and the result is
/// bit-identical at any thread count. Called from inside parallel work it
/// runs inline; it must not be entered from two raw threads at once, which
/// the pool rejects as concurrent run_chunks.
Topology generate_planetlab_like(const PlanetLabModelConfig& config, std::uint64_t seed);

}  // namespace geored::topo
