// Geographic primitives for the synthetic WAN model.
#pragma once

namespace geored::topo {

/// A point on the Earth's surface, degrees.
struct GeoLocation {
  double lat_deg = 0.0;
  double lon_deg = 0.0;
};

/// Great-circle distance in kilometres (haversine, spherical Earth).
double haversine_km(const GeoLocation& a, const GeoLocation& b);

/// A location's share of the haversine terms — its latitude in radians and
/// that latitude's cosine — computed once, so a caller that measures many
/// pairs (the topology generator's n·(n-1)/2) does not recompute them per
/// pair.
struct HaversinePoint {
  double lat_rad = 0.0;
  double cos_lat = 1.0;
  double lon_deg = 0.0;
};
HaversinePoint haversine_point(const GeoLocation& location);

/// haversine_km over precomputed points: the same operations in the same
/// order, so the result is bit-identical to haversine_km of the locations.
/// Each of the pair's two half-angle sines is computed once.
double haversine_km(const HaversinePoint& a, const HaversinePoint& b);

/// Minimum possible round-trip time in milliseconds over a geodesic fibre
/// path between two locations: light in fibre covers ~100 km per millisecond
/// of RTT (speed ~2/3 c, doubled for the round trip).
double geodesic_rtt_floor_ms(const GeoLocation& a, const GeoLocation& b);
/// As above over precomputed points; bit-identical.
double geodesic_rtt_floor_ms(const HaversinePoint& a, const HaversinePoint& b);

}  // namespace geored::topo
