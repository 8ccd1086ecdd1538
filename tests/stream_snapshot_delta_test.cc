// Copy-on-write snapshot deltas: the WeightedGraphPatcher's CSR patching
// against a rebuild-from-scratch reference, the SlidingWindowGraph dirty
// tracking contract (arming, exactness, overflow), and the headline lock
// — FreezeSnapshotDelta chained across a thousand randomized epochs is
// bit-identical to a full FreezeSnapshot of the same window, for the
// GBasic and temporal projections, with the engine wiring on top — and
// the history-independence lock: the same live pair set reached by
// different histories freezes to the same CSR bit for bit.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/checked_cast.h"
#include "core/civil_time.h"
#include "core/rng.h"
#include "graphdb/weighted_graph.h"
#include "stream/engine.h"
#include "stream/snapshot.h"
#include "stream/testing.h"
#include "stream/window_graph.h"

#include <gtest/gtest.h>

#include "graph_test_util.h"

namespace bikegraph::stream {
namespace {

using bikegraph::ExpectGraphsIdentical;  // tests/graph_test_util.h
using graphdb::WeightedGraph;
using graphdb::WeightedGraphBuilder;
using graphdb::WeightedGraphPatcher;

// ---------------------------------------------------------------------------
// WeightedGraphPatcher: patching == rebuilding, on randomized graphs.
// ---------------------------------------------------------------------------

TEST(WeightedGraphPatcherTest, RandomizedPatchMatchesRebuild) {
  Rng rng(2026);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 4 + rng.NextBounded(40);
    // Base edge set: weight per pair (self pairs allowed).
    std::unordered_map<uint64_t, double> weights;
    const auto key = [](int32_t u, int32_t v) {
      if (u > v) std::swap(u, v);
      return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
             static_cast<uint32_t>(v);
    };
    const size_t base_edges = rng.NextBounded(4 * n) + 1;
    for (size_t i = 0; i < base_edges; ++i) {
      const auto u = static_cast<int32_t>(rng.NextBounded(n));
      const auto v = static_cast<int32_t>(rng.NextBounded(n));
      weights[key(u, v)] = 0.25 + rng.NextDouble();
    }
    const auto build = [&](const std::unordered_map<uint64_t, double>& w) {
      WeightedGraphBuilder b(n);
      std::vector<uint64_t> keys;
      // lint: unordered-iter-ok: keys are collected then sorted
      // immediately below; map order cannot reach the builder.
      for (const auto& [k, weight] : w) keys.push_back(k);
      std::sort(keys.begin(), keys.end());
      for (uint64_t k : keys) {
        EXPECT_TRUE(b.AddEdge(static_cast<int32_t>(k >> 32),
                              static_cast<int32_t>(k & 0xFFFFFFFFu),
                              w.at(k))
                        .ok());
      }
      return b.Build();
    };
    const WeightedGraph base = build(weights);

    // Random updates: removals, reweights, inserts (u > v on purpose
    // sometimes, the patcher canonicalises), plus duplicate updates for
    // the same pair (last wins) and removals of absent pairs (no-op).
    std::vector<WeightedGraphPatcher::EdgeUpdate> updates;
    auto next = weights;
    const size_t update_count = rng.NextBounded(3 * n) + 1;
    for (size_t i = 0; i < update_count; ++i) {
      auto u = static_cast<int32_t>(rng.NextBounded(n));
      auto v = static_cast<int32_t>(rng.NextBounded(n));
      const uint64_t k = key(u, v);
      if (rng.NextBounded(2) == 0) std::swap(u, v);
      const uint64_t action = rng.NextBounded(4);
      if (action == 0) {
        updates.push_back({u, v, 0.0, true});
        next.erase(k);
      } else {
        const double w = action == 1 ? 0.0 : 0.25 + rng.NextDouble();
        updates.push_back({u, v, w, false});
        next[k] = w;
      }
    }
    auto patched = WeightedGraphPatcher::Apply(base, updates);
    ASSERT_TRUE(patched.ok()) << patched.status();
    ExpectGraphsIdentical(*patched, build(next));
  }
}

TEST(WeightedGraphPatcherTest, ValidatesUpdates) {
  WeightedGraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 2.0).ok());
  const WeightedGraph base = b.Build();
  EXPECT_EQ(WeightedGraphPatcher::Apply(base, {{0, 3, 1.0, false}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WeightedGraphPatcher::Apply(base, {{-1, 0, 1.0, false}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WeightedGraphPatcher::Apply(base, {{0, 1, -1.0, false}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Removing an absent edge is a no-op, not an error.
  auto same = WeightedGraphPatcher::Apply(base, {{1, 2, 0.0, true}});
  ASSERT_TRUE(same.ok());
  ExpectGraphsIdentical(*same, base);
}

// ---------------------------------------------------------------------------
// SlidingWindowGraph::DrainDirty contract.
// ---------------------------------------------------------------------------

CivilTime At(int day, int hour, int minute = 0) {
  return CivilTime::FromCalendar(2020, 1, day, hour, minute).ValueOrDie();
}

TripEvent Trip(int32_t from, int32_t to, CivilTime start, int64_t id = 1) {
  TripEvent e;
  e.rental_id = id;
  e.from_station = from;
  e.to_station = to;
  e.start_time = start;
  e.end_time = start.AddSeconds(600);
  return e;
}

TEST(WindowDirtyTrackingTest, FirstDrainArmsAndReportsIncomplete) {
  SlidingWindowGraph w({4, 7200});  // wide enough that nothing expires
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  WindowDirtySet first = w.DrainDirty();
  EXPECT_FALSE(first.complete);  // pre-arming changes were not tracked
  EXPECT_TRUE(first.pairs.empty());
  // Armed now: the next epoch records exactly what was touched.
  ASSERT_TRUE(w.Ingest(Trip(1, 2, At(6, 9))).ok());
  ASSERT_TRUE(w.Ingest(Trip(2, 1, At(6, 9, 5))).ok());
  WindowDirtySet second = w.DrainDirty();
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.pairs,
            (std::vector<uint64_t>{SlidingWindowGraph::PairKey(1, 2)}));
  EXPECT_EQ(second.stations, (std::vector<int32_t>{1, 2}));
  // Nothing touched since: the next drain is complete and empty.
  WindowDirtySet third = w.DrainDirty();
  EXPECT_TRUE(third.complete);
  EXPECT_TRUE(third.pairs.empty());
  EXPECT_TRUE(third.stations.empty());
}

TEST(WindowDirtyTrackingTest, MarkIncompleteForcesOneFullDrain) {
  // The engine's freeze-failed path: the drained set is already gone, so
  // it poisons the next drain (one only) to force a full freeze.
  SlidingWindowGraph w({4, 0});
  (void)w.DrainDirty();  // arm
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  w.MarkDirtyTrackingIncomplete();
  EXPECT_FALSE(w.DrainDirty().complete);
  ASSERT_TRUE(w.Ingest(Trip(2, 3, At(6, 9))).ok());
  WindowDirtySet next = w.DrainDirty();
  EXPECT_TRUE(next.complete);
  EXPECT_EQ(next.pairs,
            (std::vector<uint64_t>{SlidingWindowGraph::PairKey(2, 3)}));
}

TEST(WindowDirtyTrackingTest, ExpiryDirtiesTheRetiredPairs) {
  SlidingWindowGraph w({4, 1800});
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  (void)w.DrainDirty();  // arm
  (void)w.DrainDirty();
  // Advancing far enough expires the (0, 1) trip: its pair and both
  // stations must be reported even though nothing was ingested.
  w.Advance(At(6, 12));
  EXPECT_EQ(w.trip_count(), 0u);
  WindowDirtySet dirty = w.DrainDirty();
  EXPECT_TRUE(dirty.complete);
  EXPECT_EQ(dirty.pairs,
            (std::vector<uint64_t>{SlidingWindowGraph::PairKey(0, 1)}));
  EXPECT_EQ(dirty.stations, (std::vector<int32_t>{0, 1}));
}

TEST(WindowDirtyTrackingTest, PathologicalChurnOverflowsToIncomplete) {
  // The dirty list caps at max(4096, 2 * live pairs): unreachable by
  // growth alone (every grown pair is live), so the overflow needs
  // churn — thousands of DISTINCT pairs created and expired within one
  // epoch, leaving the live set tiny while the dead-dirty list balloons.
  // The drain then reports incomplete (forcing a full freeze) and
  // re-arms cleanly.
  const size_t n = 128;
  SlidingWindowGraph w({n, 30});  // 30 s window, one event per minute
  (void)w.DrainDirty();           // arm
  CivilTime t = At(6, 0);
  size_t pushed = 0;
  for (size_t u = 0; u < n && pushed < 6000; ++u) {
    for (size_t v = u; v < n && pushed < 6000; ++v) {
      ASSERT_TRUE(w.Ingest(Trip(static_cast<int32_t>(u),
                                static_cast<int32_t>(v), t,
                                static_cast<int64_t>(pushed)))
                      .ok());
      t = t.AddSeconds(60);  // expires the previous pair immediately
      ++pushed;
    }
  }
  w.Advance(t.AddSeconds(3600));  // expire the last churn pair too
  EXPECT_EQ(w.pair_count(), 0u);
  WindowDirtySet overflowed = w.DrainDirty();
  EXPECT_FALSE(overflowed.complete);
  // The epoch after the overflow tracks normally again.
  ASSERT_TRUE(w.Ingest(Trip(0, 1, t)).ok());
  WindowDirtySet next = w.DrainDirty();
  EXPECT_TRUE(next.complete);
  EXPECT_EQ(next.pairs,
            (std::vector<uint64_t>{SlidingWindowGraph::PairKey(0, 1)}));
}

// ---------------------------------------------------------------------------
// Delta vs full freeze: bit identity across randomized epoch chains.
// ---------------------------------------------------------------------------

void ExpectSnapshotsIdentical(const WindowSnapshot& a,
                              const WindowSnapshot& b) {
  EXPECT_EQ(a.window_start, b.window_start);
  EXPECT_EQ(a.window_end, b.window_end);
  EXPECT_EQ(a.trip_count, b.trip_count);
  EXPECT_EQ(a.profiles.day, b.profiles.day);
  EXPECT_EQ(a.profiles.hour, b.profiles.hour);
  ExpectGraphsIdentical(a.graph, b.graph);
}

/// Chains FreezeSnapshotDelta across `epochs` randomized epochs (each
/// the previous delta's output — so patching errors would compound) and
/// checks every epoch against an independent full freeze, bit for bit.
void RunRandomizedEpochChain(const analysis::TemporalGraphOptions& projection,
                             int epochs, uint64_t seed,
                             int64_t window_seconds) {
  Rng rng(seed);
  const size_t stations = 16;
  SlidingWindowGraph window({stations, window_seconds});
  const ShardedWindowView view({&window});
  SnapshotDeltaPolicy force_delta;
  force_delta.max_dirty_fraction = 1e18;  // never fall back on size

  CivilTime t = At(6, 0);
  int64_t id = 0;
  (void)window.DrainDirty();  // arm tracking
  WindowSnapshot previous = FreezeSnapshot(view, projection).ValueOrDie();
  size_t delta_epochs = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const uint64_t events = rng.NextBounded(12);
    for (uint64_t i = 0; i < events; ++i) {
      t = t.AddSeconds(static_cast<int64_t>(rng.NextBounded(180)));
      ASSERT_TRUE(
          window
              .Ingest(Trip(static_cast<int32_t>(rng.NextBounded(stations)),
                           static_cast<int32_t>(rng.NextBounded(stations)),
                           t, ++id))
              .ok());
    }
    if (rng.NextBounded(8) == 0) {
      t = t.AddSeconds(static_cast<int64_t>(rng.NextBounded(7200)));
      window.Advance(t);  // expiry without ingestion
    }
    const WindowDirtySet dirty = window.DrainDirty();
    bool used_delta = false;
    auto delta = FreezeSnapshotDelta(view, previous, dirty, projection,
                                   nullptr, force_delta, &used_delta);
    ASSERT_TRUE(delta.ok()) << delta.status();
    if (used_delta) ++delta_epochs;
    auto full = FreezeSnapshot(view, projection);
    ASSERT_TRUE(full.ok());
    ExpectSnapshotsIdentical(*delta, *full);
    previous = std::move(*delta);
  }
  // The chain must actually exercise the patch path, not the fallback.
  EXPECT_GT(delta_epochs, static_cast<size_t>(epochs) * 9 / 10)
      << "delta fallback dominated; the test lost its teeth";
}

TEST(SnapshotDeltaTest, ThousandEpochBitIdentityGBasic) {
  RunRandomizedEpochChain({}, 1000, 101, /*window_seconds=*/1800);
}

TEST(SnapshotDeltaTest, ThousandEpochBitIdentityGDay) {
  analysis::TemporalGraphOptions projection;
  projection.granularity = analysis::TemporalGranularity::kDay;
  RunRandomizedEpochChain(projection, 1000, 202, /*window_seconds=*/1800);
}

TEST(SnapshotDeltaTest, EpochChainBitIdentityGHourLandmark) {
  analysis::TemporalGraphOptions projection;
  projection.granularity = analysis::TemporalGranularity::kHour;
  projection.similarity_floor = 0.2;
  projection.contrast = 2.0;
  RunRandomizedEpochChain(projection, 300, 303, /*window_seconds=*/0);
}

TEST(SnapshotDeltaTest, FallsBackWithoutPreviousCompatibleSnapshot) {
  SlidingWindowGraph window({4, 0});
  const ShardedWindowView view({&window});
  ASSERT_TRUE(window.Ingest(Trip(0, 1, At(6, 8))).ok());
  // Incomplete dirty set (tracking not yet armed) -> full freeze.
  WindowDirtySet dirty = window.DrainDirty();
  ASSERT_FALSE(dirty.complete);
  WindowSnapshot prev = FreezeSnapshot(view).ValueOrDie();
  bool used_delta = true;
  auto snap = FreezeSnapshotDelta(view, prev, dirty, {}, nullptr, {},
                                &used_delta);
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(used_delta);
  ExpectSnapshotsIdentical(*snap, prev);

  // Projection mismatch against the previous epoch -> full freeze.
  ASSERT_TRUE(window.Ingest(Trip(1, 2, At(6, 9))).ok());
  dirty = window.DrainDirty();
  ASSERT_TRUE(dirty.complete);
  analysis::TemporalGraphOptions day;
  day.granularity = analysis::TemporalGranularity::kDay;
  auto mismatched = FreezeSnapshotDelta(view, prev, dirty, day, nullptr,
                                      {}, &used_delta);
  ASSERT_TRUE(mismatched.ok());
  EXPECT_FALSE(used_delta);
  auto full = FreezeSnapshot(view, day);
  ASSERT_TRUE(full.ok());
  ExpectSnapshotsIdentical(*mismatched, *full);
}

TEST(SnapshotDeltaTest, LargeDirtyFractionFallsBackAndStaysCorrect) {
  SlidingWindowGraph window({8, 0});
  const ShardedWindowView view({&window});
  ASSERT_TRUE(window.Ingest(Trip(0, 1, At(6, 8), 1)).ok());
  (void)window.DrainDirty();
  WindowSnapshot prev = FreezeSnapshot(view).ValueOrDie();
  // Touch many new pairs: far beyond the default 25% dirty budget of a
  // 1-edge base graph.
  CivilTime t = At(6, 9);
  for (int32_t u = 0; u < 8; ++u) {
    for (int32_t v = u; v < 8; ++v) {
      ASSERT_TRUE(window.Ingest(Trip(u, v, t, 10 + u * 8 + v)).ok());
      t = t.AddSeconds(10);
    }
  }
  const WindowDirtySet dirty = window.DrainDirty();
  bool used_delta = true;
  auto snap =
      FreezeSnapshotDelta(view, prev, dirty, {}, nullptr, {}, &used_delta);
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(used_delta);  // the policy chose the full rebuild
  auto full = FreezeSnapshot(view);
  ASSERT_TRUE(full.ok());
  ExpectSnapshotsIdentical(*snap, *full);
}

// ---------------------------------------------------------------------------
// Engine wiring: delta-frozen epochs match a delta-disabled engine.
// ---------------------------------------------------------------------------

TEST(SnapshotDeltaTest, EngineDeltaEpochsMatchFullFreezeEngine) {
  const size_t stations = 24;
  const auto events = testing::PlantedStream(stations, 3, 6, 500, 11);

  StreamEngineConfig config;
  config.station_count = stations;
  config.window_seconds = 2 * 86400;
  StreamEngine delta_engine(config);
  config.snapshot_delta.enabled = false;
  StreamEngine full_engine(config);

  size_t count = 0;
  for (const TripEvent& e : events) {
    ASSERT_TRUE(delta_engine.Ingest(e).ok());
    ASSERT_TRUE(full_engine.Ingest(e).ok());
    if (++count % 31 == 0) {
      auto ds = delta_engine.Snapshot();
      auto fs = full_engine.Snapshot();
      ASSERT_TRUE(ds.ok());
      ASSERT_TRUE(fs.ok());
      ExpectSnapshotsIdentical(**ds, **fs);
    }
  }
  EXPECT_GT(delta_engine.delta_freeze_count(), 0u);
  EXPECT_EQ(full_engine.delta_freeze_count(), 0u);
  EXPECT_GT(full_engine.full_freeze_count(), 0u);
  // Unchanged window: Snapshot() reuses the epoch, no freeze of either
  // kind.
  const uint64_t deltas = delta_engine.delta_freeze_count();
  const uint64_t fulls = delta_engine.full_freeze_count();
  auto first = delta_engine.Snapshot();
  auto second = delta_engine.Snapshot();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(delta_engine.delta_freeze_count() +
                delta_engine.full_freeze_count(),
            deltas + fulls + 1);
}

TEST(SnapshotDeltaTest, ShardedEngineDeltaEpochsMatchSingleWriterFull) {
  // The sharded composition of both machineries: a 3-shard engine
  // freezing through merged dirty sets and the copy-on-write patcher
  // must stay bit-identical to a single-writer engine that full-rebuilds
  // every epoch, across a chain of mid-stream epochs.
  const size_t stations = 24;
  const auto events = testing::PlantedStream(stations, 3, 6, 500, 11);

  StreamEngineConfig config;
  config.station_count = stations;
  config.window_seconds = 2 * 86400;
  config.shard_count = 3;
  StreamEngine sharded_delta(config);
  config.shard_count = 1;
  config.snapshot_delta.enabled = false;
  StreamEngine single_full(config);

  size_t count = 0;
  for (const TripEvent& e : events) {
    ASSERT_TRUE(sharded_delta.Ingest(e).ok());
    ASSERT_TRUE(single_full.Ingest(e).ok());
    if (++count % 31 == 0) {
      auto ss = sharded_delta.Snapshot();
      auto fs = single_full.Snapshot();
      ASSERT_TRUE(ss.ok());
      ASSERT_TRUE(fs.ok());
      ExpectSnapshotsIdentical(**ss, **fs);
    }
  }
  // The merged dirty sets really drove the patch path (first freeze and
  // any large epochs aside).
  EXPECT_GT(sharded_delta.delta_freeze_count(), 0u);
  EXPECT_EQ(single_full.delta_freeze_count(), 0u);
}


// ---------------------------------------------------------------------------
// History independence: the freeze reads pairs in the pair map's storage
// order, which depends on how the live set was reached. Build() sorts, so
// the same live pair set must freeze to the same CSR bit for bit whatever
// the history.
// ---------------------------------------------------------------------------

/// Events at 14 distinct (day, hour) start times, ~100 random pairs each,
/// over `stations` stations. Within one start time the order is free, so
/// reversing each group keeps every counter and changes the order in
/// which pairs first enter the map.
std::vector<std::vector<TripEvent>> TimestampGroups(size_t stations) {
  Rng rng(1717);
  std::vector<std::vector<TripEvent>> groups(14);
  int64_t id = 0;
  for (int k = 0; k < 14; ++k) {
    const CivilTime t = At(6 + k, (7 + 5 * k) % 24);
    for (int i = 0; i < 100; ++i) {
      groups[AsIndex(k)].push_back(
          Trip(static_cast<int32_t>(rng.NextBounded(stations)),
               static_cast<int32_t>(rng.NextBounded(stations)), t, ++id));
    }
  }
  return groups;
}

/// The freezes of one window under GBasic and GHour.
std::vector<WindowSnapshot> FreezeBothProjections(
    const SlidingWindowGraph& window) {
  analysis::TemporalGraphOptions hour;
  hour.granularity = analysis::TemporalGranularity::kHour;
  hour.similarity_floor = 0.2;
  std::vector<WindowSnapshot> out;
  for (const analysis::TemporalGraphOptions& projection :
       {analysis::TemporalGraphOptions{}, hour}) {
    auto snap = FreezeSnapshot(ShardedWindowView({&window}), projection);
    EXPECT_TRUE(snap.ok()) << snap.status();
    out.push_back(std::move(*snap));
  }
  return out;
}

std::vector<uint64_t> VisitOrder(const SlidingWindowGraph& window) {
  std::vector<uint64_t> keys;
  window.ForEachPair([&](int32_t u, int32_t v, int64_t) {
    keys.push_back(SlidingWindowGraph::PairKey(u, v));
  });
  return keys;
}

TEST(SnapshotHistoryIndependenceTest, SameLivePairsFreezeToTheSameCsr) {
  const size_t stations = 40;
  const auto groups = TimestampGroups(stations);
  const int64_t window_seconds = 20 * 86400;  // holds all 14 days

  // Reference: every group in generation order.
  SlidingWindowGraph reference({stations, window_seconds});
  for (const auto& group : groups) {
    for (const TripEvent& e : group) ASSERT_TRUE(reference.Ingest(e).ok());
  }

  // History 1: each group ingested back to front.
  SlidingWindowGraph reversed({stations, window_seconds});
  for (const auto& group : groups) {
    for (auto it = group.rbegin(); it != group.rend(); ++it) {
      ASSERT_TRUE(reversed.Ingest(*it).ok());
    }
  }

  // History 2: insert/expire churn. Every pair of a larger universe is
  // inserted well before the real events and expires as they arrive, so
  // the map grows (rehashes) past the live set and erases its way back.
  SlidingWindowGraph churned({stations, window_seconds});
  {
    const CivilTime junk = At(6, 0).AddSeconds(-window_seconds - 86400);
    int64_t id = 1'000'000;
    for (int32_t u = 0; u < static_cast<int32_t>(stations); ++u) {
      for (int32_t v = u; v < static_cast<int32_t>(stations); ++v) {
        ASSERT_TRUE(churned.Ingest(Trip(u, v, junk, ++id)).ok());
      }
    }
    EXPECT_EQ(churned.pair_count(), stations * (stations + 1) / 2);
  }
  for (const auto& group : groups) {
    for (const TripEvent& e : group) ASSERT_TRUE(churned.Ingest(e).ok());
  }
  EXPECT_EQ(churned.trip_count(), reference.trip_count());

  // History 3: a landmark window exported and restored, which re-inserts
  // the pairs in key order.
  SlidingWindowGraph landmark({stations, 0});
  for (const auto& group : groups) {
    for (const TripEvent& e : group) ASSERT_TRUE(landmark.Ingest(e).ok());
  }
  SlidingWindowGraph restored({stations, 0});
  ASSERT_TRUE(restored.RestoreState(landmark.ExportState()).ok());

  // The histories really reach the pairs in a different storage order
  // (otherwise this lock would compare one order with itself).
  const std::vector<uint64_t> reference_order = VisitOrder(reference);
  size_t differing = 0;
  for (const SlidingWindowGraph* other : {&reversed, &churned, &restored}) {
    ASSERT_EQ(other->pair_count(), reference.pair_count());
    if (VisitOrder(*other) != reference_order) ++differing;
  }
  EXPECT_GT(differing, 0u) << "every history kept the reference visit order";

  const std::vector<WindowSnapshot> expected = FreezeBothProjections(reference);
  for (const SlidingWindowGraph* other : {&reversed, &churned, &restored}) {
    const std::vector<WindowSnapshot> got = FreezeBothProjections(*other);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t p = 0; p < got.size(); ++p) {
      SCOPED_TRACE(p == 0 ? "GBasic" : "GHour");
      EXPECT_EQ(got[p].profiles.day, expected[p].profiles.day);
      EXPECT_EQ(got[p].profiles.hour, expected[p].profiles.hour);
      ExpectGraphsIdentical(got[p].graph, expected[p].graph);
    }
  }
}

}  // namespace
}  // namespace bikegraph::stream
