#include "cluster/geo_cluster.h"

#include <cmath>
#include <limits>
#include <set>

#include "core/rng.h"
#include "geo/haversine.h"

#include <gtest/gtest.h>

#include "core/checked_cast.h"

using bikegraph::AsIndex;

namespace bikegraph::cluster {
namespace {

using geo::LatLon;
using geo::Offset;

const LatLon kCenter(53.35, -6.26);

TEST(CentroidTest, MeanOfPoints) {
  EXPECT_EQ(Centroid({}), LatLon());
  LatLon c = Centroid({{53.0, -6.0}, {53.2, -6.4}});
  EXPECT_NEAR(c.lat, 53.1, 1e-9);
  EXPECT_NEAR(c.lon, -6.2, 1e-9);
}

TEST(GeoClusterTest, RejectsBadParamsAndPoints) {
  GeoClusterParams bad;
  bad.cluster_boundary_m = 0.0;
  EXPECT_FALSE(ClusterLocations({kCenter}, {}, bad).ok());
  EXPECT_FALSE(
      ClusterLocations({LatLon(200.0, 0.0)}, {}, GeoClusterParams{}).ok());
  EXPECT_FALSE(
      ClusterLocations({kCenter}, {LatLon(200.0, 0.0)}, GeoClusterParams{})
          .ok());
}

TEST(GeoClusterTest, RejectsNonFiniteThresholds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<LatLon> locations = {kCenter, Offset(kCenter, 30.0, 0.0)};
  for (double bad : {nan, inf}) {
    GeoClusterParams boundary;
    boundary.cluster_boundary_m = bad;
    auto r = ClusterLocations(locations, {kCenter}, boundary);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    GeoClusterParams absorption;
    absorption.station_absorption_m = bad;
    r = ClusterLocations(locations, {kCenter}, absorption);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GeoClusterTest, EquidistantLocationJoinsSmallerStationIndex) {
  // Stations 2^-12 degrees of longitude (~16 m) east and west of the
  // location, on its latitude: both distances are bit-identical.
  const LatLon location(53.5, -6.25);
  const LatLon east(53.5, -6.25 + std::ldexp(1.0, -12));
  const LatLon west(53.5, -6.25 - std::ldexp(1.0, -12));
  ASSERT_EQ(geo::HaversineMeters(east, location),
            geo::HaversineMeters(west, location));
  for (const auto& stations : {std::vector<LatLon>{east, west},
                               std::vector<LatLon>{west, east}}) {
    auto result = ClusterLocations({location}, stations, GeoClusterParams{});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->absorbed_count, 1u);
    EXPECT_EQ(result->assignment[0], 0);
  }
}

TEST(GeoClusterTest, AbsorptionBoundaryIsInclusive) {
  const LatLon station = kCenter;
  const LatLon location = Offset(station, 50.0, 90.0);
  GeoClusterParams at;
  at.station_absorption_m = geo::HaversineMeters(station, location);
  auto absorbed = ClusterLocations({location}, {station}, at);
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(absorbed->absorbed_count, 1u);
  EXPECT_EQ(absorbed->assignment[0], 0);

  GeoClusterParams below;
  below.station_absorption_m = std::nextafter(at.station_absorption_m, 0.0);
  auto free = ClusterLocations({location}, {station}, below);
  ASSERT_TRUE(free.ok());
  EXPECT_EQ(free->absorbed_count, 0u);
}

TEST(GeoClusterTest, NearestStationBeyondRadiusLeavesLocationFree) {
  const std::vector<LatLon> stations = {kCenter,
                                        Offset(kCenter, 400.0, 180.0)};
  auto result = ClusterLocations({Offset(kCenter, 51.0, 0.0)}, stations,
                                 GeoClusterParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->absorbed_count, 0u);
  EXPECT_EQ(result->free_cluster_count(), 1u);
  EXPECT_EQ(result->assignment[0], 2);
}

TEST(GeoClusterTest, AbsorptionIntoNearestStation) {
  std::vector<LatLon> stations = {kCenter, Offset(kCenter, 300.0, 90.0)};
  std::vector<LatLon> locations = {
      Offset(kCenter, 20.0, 0.0),           // absorbed by station 0
      Offset(kCenter, 49.0, 180.0),         // absorbed by station 0 (edge)
      Offset(stations[1], 30.0, 90.0),      // absorbed by station 1
      Offset(kCenter, 150.0, 0.0),          // free
  };
  auto result = ClusterLocations(locations, stations, GeoClusterParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->absorbed_count, 3u);
  EXPECT_EQ(result->station_group_count(), 2u);
  EXPECT_EQ(result->free_cluster_count(), 1u);
  // Station groups come first and keep station positions as centroids.
  EXPECT_EQ(result->clusters[0].centroid, stations[0]);
  EXPECT_EQ(result->clusters[0].station_index, 0);
  EXPECT_EQ(result->assignment[0], 0);
  EXPECT_EQ(result->assignment[2], 1);
  EXPECT_EQ(result->assignment[3], 2);
}

TEST(GeoClusterTest, FreeClustersRespectBoundary) {
  Rng rng(7);
  std::vector<LatLon> locations;
  for (int i = 0; i < 200; ++i) {
    locations.push_back(Offset(kCenter, rng.NextUniform(60.0, 700.0),
                               rng.NextUniform(0.0, 360.0)));
  }
  GeoClusterParams params;
  params.cluster_boundary_m = 100.0;
  auto result = ClusterLocations(locations, {kCenter}, params);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < locations.size(); ++i) {
    for (size_t j = i + 1; j < locations.size(); ++j) {
      if (result->assignment[i] == result->assignment[j] &&
          result->assignment[i] >= 1) {  // same free cluster
        EXPECT_LE(geo::HaversineMeters(locations[i], locations[j]), 100.0 + 1e-6);
      }
    }
  }
}

TEST(GeoClusterTest, CentroidIsMemberMean) {
  std::vector<LatLon> locations = {Offset(kCenter, 1000.0, 90.0),
                                   Offset(kCenter, 1040.0, 90.0)};
  auto result = ClusterLocations(locations, {}, GeoClusterParams{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->clusters.size(), 1u);
  LatLon expected = Centroid(locations);
  EXPECT_NEAR(result->clusters[0].centroid.lat, expected.lat, 1e-9);
  EXPECT_NEAR(result->clusters[0].centroid.lon, expected.lon, 1e-9);
}

TEST(GeoClusterTest, EveryLocationAssignedExactlyOnce) {
  Rng rng(13);
  std::vector<LatLon> stations;
  for (int i = 0; i < 5; ++i) {
    stations.push_back(Offset(kCenter, 200.0 * i, 45.0));
  }
  std::vector<LatLon> locations;
  for (int i = 0; i < 300; ++i) {
    locations.push_back(Offset(kCenter, rng.NextUniform(0.0, 1500.0),
                               rng.NextUniform(0.0, 360.0)));
  }
  auto result = ClusterLocations(locations, stations, GeoClusterParams{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->assignment.size(), locations.size());
  std::vector<size_t> seen(locations.size(), 0);
  for (const auto& cluster : result->clusters) {
    for (int32_t member : cluster.member_indices) {
      ASSERT_GE(member, 0);
      ASSERT_LT(static_cast<size_t>(member), locations.size());
      ++seen[AsIndex(member)];
    }
  }
  for (size_t i = 0; i < locations.size(); ++i) {
    EXPECT_EQ(seen[i], 1u) << "location " << i;
    EXPECT_GE(result->assignment[i], 0);
  }
}

TEST(GeoClusterTest, NoStationsMeansNoAbsorption) {
  std::vector<LatLon> locations = {kCenter, Offset(kCenter, 10.0, 0.0)};
  auto result = ClusterLocations(locations, {}, GeoClusterParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->absorbed_count, 0u);
  EXPECT_EQ(result->station_group_count(), 0u);
  EXPECT_EQ(result->free_cluster_count(), 1u);
}

TEST(GeoClusterTest, AbsorptionRadiusIsConfigurable) {
  std::vector<LatLon> locations = {Offset(kCenter, 80.0, 0.0)};
  GeoClusterParams narrow;
  narrow.station_absorption_m = 50.0;
  GeoClusterParams wide;
  wide.station_absorption_m = 100.0;
  auto r_narrow = ClusterLocations(locations, {kCenter}, narrow);
  auto r_wide = ClusterLocations(locations, {kCenter}, wide);
  ASSERT_TRUE(r_narrow.ok());
  ASSERT_TRUE(r_wide.ok());
  EXPECT_EQ(r_narrow->absorbed_count, 0u);
  EXPECT_EQ(r_wide->absorbed_count, 1u);
}

}  // namespace
}  // namespace bikegraph::cluster
