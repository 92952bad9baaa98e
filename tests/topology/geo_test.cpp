#include "topology/geo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace geored::topo {
namespace {

TEST(Geo, HaversineZeroForSamePoint) {
  const GeoLocation nyc{40.71, -74.01};
  EXPECT_DOUBLE_EQ(haversine_km(nyc, nyc), 0.0);
}

TEST(Geo, HaversineIsSymmetric) {
  const GeoLocation a{40.71, -74.01};
  const GeoLocation b{51.51, -0.13};
  EXPECT_DOUBLE_EQ(haversine_km(a, b), haversine_km(b, a));
}

TEST(Geo, KnownCityDistances) {
  const GeoLocation nyc{40.7128, -74.0060};
  const GeoLocation london{51.5074, -0.1278};
  const GeoLocation tokyo{35.6762, 139.6503};
  const GeoLocation sydney{-33.8688, 151.2093};
  // Published great-circle distances (spherical Earth, ~0.5% tolerance).
  EXPECT_NEAR(haversine_km(nyc, london), 5570.0, 30.0);
  EXPECT_NEAR(haversine_km(nyc, tokyo), 10850.0, 60.0);
  EXPECT_NEAR(haversine_km(london, sydney), 16990.0, 90.0);
}

TEST(Geo, AntipodalIsHalfCircumference) {
  const GeoLocation a{0.0, 0.0};
  const GeoLocation b{0.0, 180.0};
  EXPECT_NEAR(haversine_km(a, b), 6371.0 * 3.14159265, 1.0);
}

TEST(Geo, RttFloorScalesWithDistance) {
  const GeoLocation nyc{40.7128, -74.0060};
  const GeoLocation london{51.5074, -0.1278};
  // ~5570 km at 100 km per ms of RTT -> ~56 ms.
  EXPECT_NEAR(geodesic_rtt_floor_ms(nyc, london), 55.7, 0.5);
  EXPECT_DOUBLE_EQ(geodesic_rtt_floor_ms(nyc, nyc), 0.0);
}

TEST(Geo, CrossingTheDateLine) {
  const GeoLocation east{0.0, 179.0};
  const GeoLocation west{0.0, -179.0};
  // 2 degrees of longitude at the equator ~ 222 km, not ~39,700 km.
  EXPECT_NEAR(haversine_km(east, west), 222.4, 2.0);
}

/// The haversine formula evaluated per pair from the two locations: the
/// reference the precomputed points must match bit for bit.
double haversine_per_pair(const GeoLocation& a, const GeoLocation& b) {
  constexpr double kPi = 3.14159265358979323846;
  const auto deg2rad = [](double deg) { return deg * kPi / 180.0; };
  const double lat1 = deg2rad(a.lat_deg);
  const double lat2 = deg2rad(b.lat_deg);
  const double dlat = lat2 - lat1;
  const double dlon = deg2rad(b.lon_deg - a.lon_deg);
  const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) * std::sin(dlon / 2);
  return 2.0 * 6371.0 * std::asin(std::min(1.0, std::sqrt(h)));
}

TEST(Geo, PrecomputedPointsMatchThePerPairFormulaBitForBit) {
  // 1,000 locations (499,500 pairs, the benchmark world's count) over the
  // whole globe, plus the poles, the date line and a repeated location.
  Rng rng(42);
  std::vector<GeoLocation> locations{{90.0, 0.0}, {-90.0, 180.0}, {0.0, 180.0}, {0.0, -180.0}};
  while (locations.size() < 999) {
    locations.push_back({rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)});
  }
  locations.push_back(locations[17]);
  std::vector<HaversinePoint> points;
  for (const auto& location : locations) points.push_back(haversine_point(location));
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < locations.size(); ++i) {
    for (std::size_t j = i + 1; j < locations.size(); ++j) {
      const double want = haversine_per_pair(locations[i], locations[j]);
      const auto bits = std::bit_cast<std::uint64_t>(want);
      const double floor_ms = geodesic_rtt_floor_ms(points[i], points[j]);
      mismatches += std::bit_cast<std::uint64_t>(haversine_km(points[i], points[j])) != bits;
      mismatches +=
          std::bit_cast<std::uint64_t>(haversine_km(locations[i], locations[j])) != bits;
      mismatches += std::bit_cast<std::uint64_t>(floor_ms) !=
                    std::bit_cast<std::uint64_t>(want * (1.0 / 100.0));
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace geored::topo
