#include "data/synthetic.h"

#include <cstdint>
#include <set>
#include <string_view>

#include "data/cleaning.h"
#include "geo/dublin.h"
#include "geo/haversine.h"

#include <gtest/gtest.h>

#include "core/checked_cast.h"

using bikegraph::AsIndex;

namespace bikegraph::data {
namespace {

/// Small config for fast unit tests (the full-size generator is exercised
/// by the integration test and the benches).
SyntheticConfig SmallConfig() {
  SyntheticConfig cfg;
  cfg.clean_rental_count = 4000;
  cfg.station_count = 40;
  cfg.micro_concentration = 120.0;
  return cfg;
}

TEST(SyntheticTest, DeterministicForSeed) {
  auto a = GenerateSyntheticMoby(SmallConfig());
  auto b = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->locations().size(), b->locations().size());
  ASSERT_EQ(a->rentals().size(), b->rentals().size());
  for (size_t i = 0; i < a->rentals().size(); ++i) {
    EXPECT_EQ(a->rentals()[i].rental_location_id,
              b->rentals()[i].rental_location_id);
    EXPECT_EQ(a->rentals()[i].start_time, b->rentals()[i].start_time);
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticConfig c1 = SmallConfig(), c2 = SmallConfig();
  c2.seed = 777;
  auto a = GenerateSyntheticMoby(c1);
  auto b = GenerateSyntheticMoby(c2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Some rentals must differ.
  bool any_diff = a->rentals().size() != b->rentals().size();
  for (size_t i = 0; !any_diff && i < a->rentals().size(); ++i) {
    any_diff = a->rentals()[i].rental_location_id !=
               b->rentals()[i].rental_location_id;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, StationCountsMatchConfig) {
  auto ds = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(ds.ok());
  auto summary = ds->Summarize();
  EXPECT_EQ(summary.station_count, 40u + 3u);  // good + bad stations
}

TEST(SyntheticTest, RentalTimesInsideStudyWindow) {
  auto ds = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(ds.ok());
  const CivilTime start = CivilTime::FromCalendar(2020, 1, 3).ValueOrDie();
  const CivilTime end = CivilTime::FromCalendar(2021, 9, 21).ValueOrDie();
  for (const auto& r : ds->rentals()) {
    EXPECT_GE(r.start_time, start);
    EXPECT_LT(r.start_time, end);
    EXPECT_GE(r.end_time, r.start_time);
  }
}

TEST(SyntheticTest, CleaningRestoresConfiguredCounts) {
  SyntheticConfig cfg = SmallConfig();
  auto ds = GenerateSyntheticMoby(cfg);
  ASSERT_TRUE(ds.ok());
  auto cleaned = CleanDataset(*ds, geo::DublinLand());
  ASSERT_TRUE(cleaned.ok()) << cleaned.status();
  EXPECT_EQ(cleaned->report.after.rental_count, cfg.clean_rental_count);
  EXPECT_EQ(cleaned->report.after.station_count,
            static_cast<size_t>(cfg.station_count));
  EXPECT_EQ(cleaned->report.stations_removed,
            static_cast<size_t>(cfg.bad_station_count));
}

TEST(SyntheticTest, CleanLocationsAreOnLand) {
  auto ds = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(ds.ok());
  auto cleaned = CleanDataset(*ds, geo::DublinLand());
  ASSERT_TRUE(cleaned.ok());
  geo::Region land = geo::DublinLand();
  for (const auto& loc : cleaned->dataset.locations()) {
    ASSERT_TRUE(loc.has_coordinates());
    EXPECT_TRUE(land.Contains(loc.position))
        << loc.id << " at " << loc.position.ToString();
  }
}

TEST(SyntheticTest, GpsJitterCreatesNearDuplicateLocations) {
  // The paper observed many distinct locations < 3 m apart; the generator
  // must reproduce that property.
  auto ds = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(ds.ok());
  size_t near_duplicates = 0;
  const auto& locs = ds->locations();
  for (size_t i = 0; i + 1 < locs.size() && near_duplicates < 5; ++i) {
    if (!locs[i].has_coordinates()) continue;
    for (size_t j = i + 1; j < std::min(locs.size(), i + 200); ++j) {
      if (!locs[j].has_coordinates()) continue;
      if (geo::HaversineMeters(locs[i].position, locs[j].position) < 3.0) {
        ++near_duplicates;
        break;
      }
    }
  }
  EXPECT_GE(near_duplicates, 5u);
}

TEST(SyntheticTest, StationSitesRespectMinSeparation) {
  SyntheticConfig cfg = SmallConfig();
  auto sites = GenerateStationSites(cfg);
  ASSERT_EQ(sites.size(), static_cast<size_t>(cfg.station_count));
  for (size_t i = 0; i < sites.size(); ++i) {
    for (size_t j = i + 1; j < sites.size(); ++j) {
      EXPECT_GE(geo::HaversineMeters(sites[i], sites[j]),
                cfg.station_min_separation_m - 1.0);
    }
  }
}

TEST(SyntheticTest, BikeIdsWithinFleet) {
  auto ds = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(ds.ok());
  for (const auto& r : ds->rentals()) {
    EXPECT_GE(r.bike_id, 1);
    EXPECT_LE(r.bike_id, 95);
  }
}

/// FNV-1a 64 over `bytes` (offset basis 0xcbf29ce484222325, prime
/// 0x100000001b3).
uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Locks the generator's output byte for byte at the paper's scale: both CSV
// exports of the default config, hashed, for the default seed and one other.
// Any change that alters one generated value or one exported byte moves a
// hash. (A weight off by an ulp usually alters nothing: no draw lands in
// the sliver between the old and the new boundary.) GoldenFingerprint in
// integration_paper_test only pins what the pipeline derives from the data;
// this pins the data itself.
TEST(SyntheticTest, CsvExportBytesArePinned) {
  struct Pin {
    uint64_t seed;
    uint64_t locations;
    uint64_t rentals;
  };
  const Pin kPins[] = {
      {20200103, 0xa21729c33cab9ce9ULL, 0xae7544a10d3cb43bULL},
      {1, 0x8c7b05435789558fULL, 0xd1e8ffbd3e1775eeULL},
  };
  for (const Pin& pin : kPins) {
    SyntheticConfig cfg;
    cfg.seed = pin.seed;
    auto ds = GenerateSyntheticMoby(cfg);
    ASSERT_TRUE(ds.ok()) << ds.status();
    EXPECT_EQ(Fnv1a64(ds->LocationsCsvString()), pin.locations)
        << "seed " << pin.seed;
    EXPECT_EQ(Fnv1a64(ds->RentalsCsvString()), pin.rentals)
        << "seed " << pin.seed;
  }
}

TEST(SyntheticTest, RejectsNonsenseConfig) {
  SyntheticConfig cfg;
  cfg.station_count = 0;
  EXPECT_FALSE(GenerateSyntheticMoby(cfg).ok());
  cfg = SyntheticConfig();
  cfg.clean_rental_count = 0;
  EXPECT_FALSE(GenerateSyntheticMoby(cfg).ok());
  cfg = SyntheticConfig();
  cfg.end_year = 2019;  // window before start
  EXPECT_FALSE(GenerateSyntheticMoby(cfg).ok());
}

TEST(ProfileTest, CommuteWeekdayHasDoubleRush) {
  auto p = HourProfile(geo::Hotspot::Kind::kCommute, /*weekend=*/false);
  // 8am and 5pm dominate midday and night.
  EXPECT_GT(p[8], p[13]);
  EXPECT_GT(p[17], p[13]);
  EXPECT_GT(p[8], p[3] * 10);
}

TEST(ProfileTest, LeisurePeaksMidday) {
  auto p = HourProfile(geo::Hotspot::Kind::kLeisure, /*weekend=*/true);
  int argmax = 0;
  for (int h = 1; h < 24; ++h) {
    if (p[AsIndex(h)] > p[AsIndex(argmax)]) argmax = h;
  }
  EXPECT_GE(argmax, 11);
  EXPECT_LE(argmax, 16);
}

TEST(ProfileTest, DayProfilesContrastWeekend) {
  auto commute = DayProfile(geo::Hotspot::Kind::kCommute);
  auto leisure = DayProfile(geo::Hotspot::Kind::kLeisure);
  // Commute: weekdays above weekend; leisure: the reverse.
  EXPECT_GT(commute[0], commute[5]);
  EXPECT_LT(leisure[0], leisure[5]);
}

TEST(ProfileTest, SeasonalCovidDip) {
  // April 2020 (full lockdown) far below June 2021 (recovery).
  EXPECT_LT(SeasonalFactor(2020, 4), SeasonalFactor(2021, 6) * 0.5);
  // Summer beats winter within a year.
  EXPECT_GT(SeasonalFactor(2021, 7), SeasonalFactor(2021, 1));
}

}  // namespace
}  // namespace bikegraph::data
