#include "geo/bbox.h"

#include <algorithm>

#include "geo/haversine.h"

namespace bikegraph::geo {

BBox::BBox() : min_(90.0, 180.0), max_(-90.0, -180.0) {}

BBox::BBox(const LatLon& min_corner, const LatLon& max_corner)
    : min_(min_corner), max_(max_corner) {}

BBox BBox::Around(const std::vector<LatLon>& points) {
  BBox box;
  for (const auto& p : points) box.Extend(p);
  return box;
}

bool BBox::IsEmpty() const { return min_.lat > max_.lat || min_.lon > max_.lon; }

void BBox::Extend(const LatLon& p) {
  min_.lat = std::min(min_.lat, p.lat);
  min_.lon = std::min(min_.lon, p.lon);
  max_.lat = std::max(max_.lat, p.lat);
  max_.lon = std::max(max_.lon, p.lon);
}

bool BBox::Contains(const LatLon& p) const {
  return !IsEmpty() && p.lat >= min_.lat && p.lat <= max_.lat &&
         p.lon >= min_.lon && p.lon <= max_.lon;
}

BBox BBox::ExpandedBy(double meters) const {
  if (IsEmpty()) return *this;
  const double dlat = MetersToLatDegrees(meters);
  const double ref_lat = std::max(std::abs(min_.lat), std::abs(max_.lat));
  const double dlon = MetersToLonDegrees(meters, ref_lat);
  return BBox(LatLon(min_.lat - dlat, min_.lon - dlon),
              LatLon(max_.lat + dlat, max_.lon + dlon));
}

double BBox::HeightMeters() const {
  if (IsEmpty()) return 0.0;
  double mid_lon = (min_.lon + max_.lon) / 2.0;
  return HaversineMeters(LatLon(min_.lat, mid_lon), LatLon(max_.lat, mid_lon));
}

double BBox::WidthMeters() const {
  if (IsEmpty()) return 0.0;
  double mid_lat = (min_.lat + max_.lat) / 2.0;
  return HaversineMeters(LatLon(mid_lat, min_.lon), LatLon(mid_lat, max_.lon));
}

}  // namespace bikegraph::geo
