#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.h"
#include "geo/latlon.h"

namespace bikegraph::cluster {

/// \brief Parameters of the constrained geo-clustering stage (paper §IV-A).
struct GeoClusterParams {
  /// Rule 1 — Cluster-Boundary: maximum distance between any two locations
  /// inside one cluster (complete-linkage cut threshold).
  double cluster_boundary_m = 100.0;
  /// Preprocessing: locations within this radius of a fixed station are
  /// absorbed into the station's group and excluded from clustering (also
  /// Rule 2's minimum centroid separation).
  double station_absorption_m = 50.0;
};

/// \brief One group produced by the constrained clustering: either a fixed
/// station with its absorbed locations, or a free cluster of dockless
/// locations.
struct GeoCluster {
  /// Group centroid. Fixed-station groups keep the station position
  /// (stations are "immovable"); free clusters use the arithmetic mean of
  /// their members, which is exact to millimetres at <=100 m extents.
  geo::LatLon centroid;
  /// Indices into the input `locations` vector.
  std::vector<int32_t> member_indices;
  /// Index into the input `stations` vector, or -1 for a free cluster.
  int32_t station_index = -1;

  bool is_station_group() const { return station_index >= 0; }
};

/// \brief Result of the constrained clustering pass.
struct GeoClusteringResult {
  /// All groups; station groups first (in station order), then free
  /// clusters in deterministic order.
  std::vector<GeoCluster> clusters;
  /// For each input location, the index of its group in `clusters`.
  std::vector<int32_t> assignment;
  /// Locations absorbed into stations during preprocessing.
  size_t absorbed_count = 0;

  size_t station_group_count() const;
  size_t free_cluster_count() const;
};

/// \brief Runs the paper's constrained clustering: fixed stations are
/// immovable centroids; locations within `station_absorption_m` of a
/// station (boundary inclusive) are absorbed to the nearest such station,
/// ties going to the smaller station index; the remaining locations are
/// clustered by complete-linkage HAC cut at `cluster_boundary_m`.
/// Returns InvalidArgument unless both thresholds are finite,
/// `cluster_boundary_m` > 0 and `station_absorption_m` >= 0, or for an
/// invalid coordinate.
///
/// \param locations dockless (non-station) location coordinates.
/// \param stations fixed station coordinates.
Result<GeoClusteringResult> ClusterLocations(
    const std::vector<geo::LatLon>& locations,
    const std::vector<geo::LatLon>& stations,
    const GeoClusterParams& params = {});

/// \brief Mean of a set of points (component-wise; valid at city scale).
geo::LatLon Centroid(const std::vector<geo::LatLon>& points);

}  // namespace bikegraph::cluster
