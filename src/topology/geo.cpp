#include "topology/geo.h"

#include <algorithm>
#include <cmath>

namespace geored::topo {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kEarthRadiusKm = 6371.0;
/// RTT accrues at ~1 ms per 100 km of geodesic distance (fibre at 2c/3,
/// doubled for the round trip).
constexpr double kRttMsPerKm = 1.0 / 100.0;

double deg2rad(double deg) { return deg * kPi / 180.0; }
}  // namespace

HaversinePoint haversine_point(const GeoLocation& location) {
  const double lat_rad = deg2rad(location.lat_deg);
  return {lat_rad, std::cos(lat_rad), location.lon_deg};
}

double haversine_km(const HaversinePoint& a, const HaversinePoint& b) {
  const double dlat = b.lat_rad - a.lat_rad;
  const double dlon = deg2rad(b.lon_deg - a.lon_deg);
  const double sin_half_dlat = std::sin(dlat / 2);
  const double sin_half_dlon = std::sin(dlon / 2);
  const double h = sin_half_dlat * sin_half_dlat +
                   a.cos_lat * b.cos_lat * sin_half_dlon * sin_half_dlon;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

double haversine_km(const GeoLocation& a, const GeoLocation& b) {
  return haversine_km(haversine_point(a), haversine_point(b));
}

double geodesic_rtt_floor_ms(const HaversinePoint& a, const HaversinePoint& b) {
  return haversine_km(a, b) * kRttMsPerKm;
}

double geodesic_rtt_floor_ms(const GeoLocation& a, const GeoLocation& b) {
  return geodesic_rtt_floor_ms(haversine_point(a), haversine_point(b));
}

}  // namespace geored::topo
