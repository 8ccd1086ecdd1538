#pragma once

#include <vector>

#include "geo/latlon.h"

namespace bikegraph::geo {

/// \brief An axis-aligned latitude/longitude bounding box.
///
/// Used for coarse spatial filtering (the Dublin study-area gate in the
/// cleaning pipeline) and as the extent of the GridIndex. Boxes never wrap
/// the antimeridian — Dublin is comfortably far from it.
class BBox {
 public:
  /// Constructs an empty (inverted) box; extend with Extend().
  BBox();
  BBox(const LatLon& min_corner, const LatLon& max_corner);

  /// Builds the tight box around `points` (empty input yields empty box).
  static BBox Around(const std::vector<LatLon>& points);

  bool IsEmpty() const;

  /// Grows the box to include `p`.
  void Extend(const LatLon& p);

  /// True iff `p` lies inside or on the boundary.
  bool Contains(const LatLon& p) const;

  /// Returns a copy expanded by `meters` on all sides (latitude-correct).
  BBox ExpandedBy(double meters) const;

  const LatLon& min_corner() const { return min_; }
  const LatLon& max_corner() const { return max_; }

  /// Height/width in metres (Haversine along the mid-lines).
  double HeightMeters() const;
  double WidthMeters() const;

 private:
  LatLon min_;
  LatLon max_;
};

}  // namespace bikegraph::geo
