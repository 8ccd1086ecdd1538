#include "geo/haversine.h"

#include <cmath>

namespace bikegraph::geo {

double HaversineMeters(const LatLon& a, const LatLon& b) {
  const double phi1 = DegToRad(a.lat);
  const double phi2 = DegToRad(b.lat);
  const double dphi = DegToRad(b.lat - a.lat);
  const double dlambda = DegToRad(b.lon - a.lon);
  const double sin_dphi = std::sin(dphi / 2.0);
  const double sin_dlambda = std::sin(dlambda / 2.0);
  const double h =
      sin_dphi * sin_dphi + std::cos(phi1) * std::cos(phi2) * sin_dlambda * sin_dlambda;
  return 2.0 * kEarthRadiusMeters * std::asin(std::min(1.0, std::sqrt(h)));
}

LatLon Offset(const LatLon& origin, double distance_m, double bearing_deg) {
  const double delta = distance_m / kEarthRadiusMeters;
  const double theta = DegToRad(bearing_deg);
  const double phi1 = DegToRad(origin.lat);
  const double lambda1 = DegToRad(origin.lon);
  const double sin_phi2 = std::sin(phi1) * std::cos(delta) +
                          std::cos(phi1) * std::sin(delta) * std::cos(theta);
  const double phi2 = std::asin(std::max(-1.0, std::min(1.0, sin_phi2)));
  const double y = std::sin(theta) * std::sin(delta) * std::cos(phi1);
  const double x = std::cos(delta) - std::sin(phi1) * sin_phi2;
  const double lambda2 = lambda1 + std::atan2(y, x);
  return LatLon(RadToDeg(phi2), RadToDeg(lambda2));
}

double MetersToLatDegrees(double meters) {
  return RadToDeg(meters / kEarthRadiusMeters);
}

double MetersToLonDegrees(double meters, double at_lat_deg) {
  const double scale = std::cos(DegToRad(at_lat_deg));
  return RadToDeg(meters / (kEarthRadiusMeters * (scale <= 1e-9 ? 1e-9 : scale)));
}

}  // namespace bikegraph::geo
