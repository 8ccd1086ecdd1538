#pragma once

#include <algorithm>
#include <cmath>

#include "geo/latlon.h"

namespace bikegraph::geo {

/// \brief Great-circle distance between two points in metres, using the
/// Haversine formula (paper eq. 1).
///
/// Haversine is numerically stable at the small distances that dominate
/// bike-share analysis (tens of metres), unlike the spherical law of
/// cosines — which is why the paper selects it.
double HaversineMeters(const LatLon& a, const LatLon& b);

/// \brief Haversine with the two cos(latitude) factors supplied by the
/// caller. Bit-identical to HaversineMeters when `cos_lat_a/b` equal
/// `std::cos(DegToRad(a.lat))` / `std::cos(DegToRad(b.lat))` — hot loops
/// (distance matrices, grid queries) precompute them once per point
/// instead of twice per pair.
inline double HaversineMetersWithCos(const LatLon& a, const LatLon& b,
                                     double cos_lat_a, double cos_lat_b) {
  const double dphi = DegToRad(b.lat - a.lat);
  const double dlambda = DegToRad(b.lon - a.lon);
  const double sin_dphi = std::sin(dphi / 2.0);
  const double sin_dlambda = std::sin(dlambda / 2.0);
  const double h = sin_dphi * sin_dphi +
                   cos_lat_a * cos_lat_b * sin_dlambda * sin_dlambda;
  return 2.0 * kEarthRadiusMeters * std::asin(std::min(1.0, std::sqrt(h)));
}

/// \brief Destination point `distance_m` metres from `origin` along
/// `bearing_deg` (great-circle).
LatLon Offset(const LatLon& origin, double distance_m, double bearing_deg);

/// \brief Degrees of latitude spanned by `meters` (constant everywhere).
double MetersToLatDegrees(double meters);

/// \brief Degrees of longitude spanned by `meters` at latitude `at_lat_deg`.
double MetersToLonDegrees(double meters, double at_lat_deg);

}  // namespace bikegraph::geo
