#include "cluster/hac.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "core/checked_cast.h"
#include "core/rng.h"
#include "geo/grid_index.h"
#include "geo/haversine.h"

#include <gtest/gtest.h>

#include "support/dense_hac.h"

namespace bikegraph::cluster {
namespace {

using geo::LatLon;
using geo::Offset;

const LatLon kCenter(53.35, -6.26);

/// Canonicalises a labelling so different label orders compare equal.
std::vector<int32_t> Canonical(std::vector<int32_t> labels) {
  std::map<int32_t, int32_t> remap;
  for (int32_t& l : labels) {
    auto [it, inserted] = remap.emplace(l, static_cast<int32_t>(remap.size()));
    l = it->second;
    (void)inserted;
  }
  return labels;
}

TEST(ThresholdHacTest, EmptyAndErrors) {
  auto empty = ThresholdCompleteLinkage({}, 100.0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(ThresholdCompleteLinkage({kCenter}, -1.0).ok());
  EXPECT_FALSE(
      ThresholdCompleteLinkage({LatLon(999.0, 0.0)}, 100.0).ok());
}

TEST(ThresholdHacTest, RejectsNonFiniteThresholds) {
  const std::vector<LatLon> points = {kCenter, Offset(kCenter, 30.0, 0.0)};
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    auto labels = ThresholdCompleteLinkage(points, bad);
    ASSERT_FALSE(labels.ok()) << bad;
    EXPECT_EQ(labels.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ThresholdHacTest, IsolatedPointsStaySingletons) {
  std::vector<LatLon> points = {
      kCenter, Offset(kCenter, 500.0, 0.0), Offset(kCenter, 500.0, 180.0)};
  auto labels = ThresholdCompleteLinkage(points, 100.0);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(std::set<int32_t>(labels->begin(), labels->end()).size(), 3u);
}

TEST(ThresholdHacTest, TightGroupMerges) {
  std::vector<LatLon> points = {
      kCenter, Offset(kCenter, 30.0, 0.0), Offset(kCenter, 30.0, 120.0),
      Offset(kCenter, 2000.0, 90.0)};
  auto labels = ThresholdCompleteLinkage(points, 100.0);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ((*labels)[0], (*labels)[1]);
  EXPECT_EQ((*labels)[0], (*labels)[2]);
  EXPECT_NE((*labels)[0], (*labels)[3]);
}

TEST(ThresholdHacTest, DiameterInvariantHolds) {
  Rng rng(11);
  std::vector<LatLon> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back(Offset(kCenter, rng.NextUniform(0.0, 800.0),
                            rng.NextUniform(0.0, 360.0)));
  }
  const double threshold = 100.0;
  auto labels = ThresholdCompleteLinkage(points, threshold);
  ASSERT_TRUE(labels.ok());
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      if ((*labels)[i] == (*labels)[j]) {
        EXPECT_LE(geo::HaversineMeters(points[i], points[j]),
                  threshold + 1e-6);
      }
    }
  }
}

// Property test: the scalable threshold HAC must produce exactly the same
// partition as the dense reference implementation cut at the same level.
class ThresholdEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, int>> {};

TEST_P(ThresholdEquivalenceTest, MatchesDenseReference) {
  auto [seed, threshold, n] = GetParam();
  Rng rng(seed);
  std::vector<LatLon> points;
  for (int i = 0; i < n; ++i) {
    points.push_back(Offset(kCenter, rng.NextUniform(0.0, 600.0),
                            rng.NextUniform(0.0, 360.0)));
  }
  auto sparse = ThresholdCompleteLinkage(points, threshold);
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(Canonical(*sparse),
            Canonical(DenseCompleteLinkageCut(points, threshold)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThresholdEquivalenceTest,
    ::testing::Values(std::tuple<uint64_t, double, int>{1, 80.0, 50},
                      std::tuple<uint64_t, double, int>{2, 120.0, 100},
                      std::tuple<uint64_t, double, int>{3, 60.0, 150},
                      std::tuple<uint64_t, double, int>{4, 200.0, 80},
                      std::tuple<uint64_t, double, int>{5, 100.0, 120}));

TEST(ThresholdHacTest, DuplicatePointsMergeAtZeroDistance) {
  std::vector<LatLon> points = {kCenter, kCenter, kCenter,
                                Offset(kCenter, 500.0, 0.0)};
  auto labels = ThresholdCompleteLinkage(points, 10.0);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ((*labels)[0], (*labels)[1]);
  EXPECT_EQ((*labels)[1], (*labels)[2]);
  EXPECT_NE((*labels)[0], (*labels)[3]);
}

// ---------------------------------------------------------------------------
// Exact-label oracle: the single-heap merge loop over all points at once,
// which the per-component implementation replaced. Both must return the
// same label vector, not just the same partition, on inputs with ties and
// with many components.
// ---------------------------------------------------------------------------
std::vector<int32_t> ReferenceThresholdCompleteLinkage(
    const std::vector<LatLon>& points, double threshold_m) {
  const size_t n = points.size();
  if (n == 0) return {};
  geo::GridIndex grid(std::max(threshold_m, 1.0));
  for (size_t i = 0; i < n; ++i) grid.Add(static_cast<int64_t>(i), points[i]);

  struct Entry {
    int32_t slot;
    double dist;
  };
  const size_t max_slots = 2 * n;
  std::vector<std::vector<Entry>> nbrs(n);
  std::vector<bool> active(n, true);
  nbrs.reserve(max_slots);
  active.reserve(max_slots);

  struct HeapEntry {
    double dist;
    int32_t a, b;
    bool operator<(const HeapEntry& o) const {
      if (dist != o.dist) return dist < o.dist;
      if (a != o.a) return a < o.a;
      return b < o.b;
    }
    bool operator>(const HeapEntry& o) const { return o < *this; }
  };

  std::vector<HeapEntry> initial;
  grid.ForEachPairWithinRadius(
      threshold_m, [&](int64_t a64, int64_t b64, double dist) {
        const int32_t i = static_cast<int32_t>(std::min(a64, b64));
        const int32_t j = static_cast<int32_t>(std::max(a64, b64));
        nbrs[AsIndex(i)].push_back(Entry{j, dist});
        nbrs[AsIndex(j)].push_back(Entry{i, dist});
        initial.push_back(HeapEntry{dist, i, j});
      });
  std::sort(initial.begin(), initial.end());
  size_t next_initial = 0;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      generated;

  std::vector<int32_t> parent(n);
  parent.reserve(max_slots);
  for (size_t i = 0; i < n; ++i) parent[i] = static_cast<int32_t>(i);
  auto find = [&parent](int32_t x) {
    while (parent[AsIndex(x)] != x) {
      parent[AsIndex(x)] = parent[AsIndex(parent[AsIndex(x)])];
      x = parent[AsIndex(x)];
    }
    return x;
  };

  std::vector<double> dist_to(max_slots, 0.0);
  std::vector<char> mark(max_slots, 0);
  std::vector<Entry> merged;

  while (true) {
    while (next_initial < initial.size() &&
           (!active[AsIndex(initial[next_initial].a)] ||
            !active[AsIndex(initial[next_initial].b)])) {
      ++next_initial;
    }
    while (!generated.empty() && (!active[AsIndex(generated.top().a)] ||
                                  !active[AsIndex(generated.top().b)])) {
      generated.pop();
    }
    HeapEntry top;
    if (next_initial < initial.size() &&
        (generated.empty() || initial[next_initial] < generated.top())) {
      top = initial[next_initial++];
    } else if (!generated.empty()) {
      top = generated.top();
      generated.pop();
    } else {
      break;
    }

    const int32_t a = top.a, b = top.b;
    const int32_t c = static_cast<int32_t>(nbrs.size());
    active[AsIndex(a)] = active[AsIndex(b)] = false;
    parent.push_back(c);
    active.push_back(true);
    parent[AsIndex(find(a))] = c;
    parent[AsIndex(find(b))] = c;

    merged.clear();
    for (const Entry& e : nbrs[AsIndex(a)]) {
      if (!active[AsIndex(e.slot)]) continue;
      mark[AsIndex(e.slot)] = 1;
      dist_to[AsIndex(e.slot)] = e.dist;
    }
    for (const Entry& e : nbrs[AsIndex(b)]) {
      if (!mark[AsIndex(e.slot)]) continue;
      mark[AsIndex(e.slot)] = 0;
      const double dck = std::max(dist_to[AsIndex(e.slot)], e.dist);
      if (dck > threshold_m) continue;
      merged.push_back(Entry{e.slot, dck});
    }
    for (const Entry& e : nbrs[AsIndex(a)]) mark[AsIndex(e.slot)] = 0;
    nbrs.emplace_back(merged.begin(), merged.end());
    for (const Entry& e : nbrs[AsIndex(c)]) {
      nbrs[AsIndex(e.slot)].push_back(Entry{c, e.dist});
      generated.push(
          HeapEntry{e.dist, std::min(c, e.slot), std::max(c, e.slot)});
    }
    nbrs[AsIndex(a)].clear();
    nbrs[AsIndex(b)].clear();
  }

  std::vector<int32_t> labels(n, -1);
  std::vector<int32_t> remap(nbrs.size(), -1);
  int32_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    int32_t root = find(static_cast<int32_t>(i));
    if (remap[AsIndex(root)] < 0) remap[AsIndex(root)] = next++;
    labels[i] = remap[AsIndex(root)];
  }
  return labels;
}

/// `clumps` clumps on a 1 km lattice, each holding points within 250 m of
/// its centre, so no pair of clumps is linked at thresholds up to 500 m.
std::vector<LatLon> SeparatedClumps(size_t n, size_t clumps, uint64_t seed) {
  Rng rng(seed);
  std::vector<LatLon> centres;
  for (size_t c = 0; c < clumps; ++c) {
    const double east = 1000.0 * static_cast<double>(c % 5);
    const double north = 1000.0 * static_cast<double>(c / 5);
    centres.push_back(Offset(Offset(kCenter, east, 90.0), north, 0.0));
  }
  std::vector<LatLon> points;
  for (size_t i = 0; i < n; ++i) {
    const LatLon& centre = centres[rng.NextBounded(clumps)];
    points.push_back(Offset(centre, rng.NextUniform(0.0, 250.0),
                            rng.NextUniform(0.0, 360.0)));
  }
  return points;
}

void ExpectOracleLabels(const std::vector<LatLon>& points, double threshold) {
  auto labels = ThresholdCompleteLinkage(points, threshold);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(*labels, ReferenceThresholdCompleteLinkage(points, threshold))
      << "n=" << points.size() << " threshold=" << threshold;
}

TEST(ThresholdHacOracleTest, SeparatedClumpsMatchExactly) {
  for (size_t n : {200u, 1000u, 5000u}) {
    for (size_t clumps : {8u, 13u, 24u}) {
      const auto points = SeparatedClumps(n, clumps, n + clumps);
      for (double threshold : {40.0, 100.0}) {
        ExpectOracleLabels(points, threshold);
      }
    }
  }
}

TEST(ThresholdHacOracleTest, DuplicatedPointsTieAtZeroDistance) {
  Rng rng(21);
  std::vector<LatLon> points = SeparatedClumps(600, 10, 5);
  // Every point a second and third time, at shuffled positions.
  const size_t base = points.size();
  for (size_t copy = 0; copy < 2; ++copy) {
    for (size_t i = 0; i < base; ++i) points.push_back(points[i]);
  }
  for (size_t i = points.size() - 1; i > 0; --i) {
    std::swap(points[i], points[rng.NextBounded(i + 1)]);
  }
  ExpectOracleLabels(points, 100.0);
  ExpectOracleLabels(points, 0.0);
}

TEST(ThresholdHacOracleTest, LatticePointsTieAtEqualDistances) {
  // Nine 12 x 12 lattices with 2^-14 degree steps (~7 m of latitude, ~4 m
  // of longitude): every row and column spacing repeats exactly.
  const double step = std::ldexp(1.0, -14);
  std::vector<LatLon> points;
  for (int block = 0; block < 9; ++block) {
    const double lat0 = 53.25 + 0.015625 * (block / 3);
    const double lon0 = -6.25 + 0.03125 * (block % 3);
    for (int r = 0; r < 12; ++r) {
      for (int c = 0; c < 12; ++c) {
        points.emplace_back(lat0 + step * r, lon0 + step * c);
      }
    }
  }
  for (double threshold : {7.0, 20.0, 50.0, 100.0}) {
    ExpectOracleLabels(points, threshold);
  }
}

TEST(ThresholdHacOracleTest, SingleGiantComponent) {
  Rng rng(8);
  std::vector<LatLon> points;
  for (int i = 0; i < 2000; ++i) {
    points.push_back(Offset(kCenter, rng.NextUniform(0.0, 400.0),
                            rng.NextUniform(0.0, 360.0)));
  }
  ExpectOracleLabels(points, 100.0);
}

TEST(ThresholdHacOracleTest, AllPointsIsolated) {
  std::vector<LatLon> points;
  for (int i = 0; i < 64; ++i) {
    points.push_back(Offset(kCenter, 300.0 * (i % 8), 90.0));
    points.back() = Offset(points.back(), 300.0 * (i / 8), 0.0);
  }
  auto labels = ThresholdCompleteLinkage(points, 100.0);
  ASSERT_TRUE(labels.ok());
  std::vector<int32_t> singletons(points.size());
  for (size_t i = 0; i < singletons.size(); ++i) {
    singletons[i] = static_cast<int32_t>(i);
  }
  EXPECT_EQ(*labels, singletons);
  EXPECT_EQ(*labels, ReferenceThresholdCompleteLinkage(points, 100.0));
}

}  // namespace
}  // namespace bikegraph::cluster
