// Shard-partitioned ingestion: the ShardRouter partition function, the
// SPSC command ring, the merged freeze view, and the engine-level
// headline — an N-shard engine reproduces the single-writer engine's
// snapshots, profiles, and Louvain partitions bit for bit (merge-at-
// freeze), including the routing edge cases: a station first seen
// mid-stream landing on a previously idle shard, cross-shard pairs
// canonicalizing to one owner, and empty shards contributing empty
// (not stale) dirty sets to the delta freeze.
//
// lint: thread-ok: the SPSC ring handoff test needs a real producer and
// consumer thread — that cross-thread delivery is the property under test.

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "community/detector.h"
#include "core/civil_time.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "stream/shard.h"
#include "stream/snapshot.h"
#include "stream/spsc_ring.h"
#include "stream/testing.h"
#include "stream/window_graph.h"

#include <gtest/gtest.h>

#include "graph_test_util.h"

namespace bikegraph::stream {
namespace {

using bikegraph::ExpectGraphsIdentical;
using testing::PlantedStream;

CivilTime At(int day, int hour, int minute = 0) {
  return CivilTime::FromCalendar(2020, 1, day, hour, minute).ValueOrDie();
}

TripEvent Trip(int32_t from, int32_t to, CivilTime start,
               int64_t rental_id = 1) {
  TripEvent e;
  e.rental_id = rental_id;
  e.from_station = from;
  e.to_station = to;
  e.start_time = start;
  e.end_time = start.AddSeconds(600);
  return e;
}

// ---------------------------------------------------------------------------
// ShardRouter: the partition function must be stable across processes
// (WAL replay re-routes the merged log), orientation-free, and cover
// every shard.
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, MixMatchesTheSplitmix64TestVector) {
  // The first two outputs of the reference splitmix64 stream seeded with
  // 0 — the published test vector. A platform or refactor that changes
  // these re-routes every station and silently breaks WAL recovery.
  EXPECT_EQ(ShardRouter::Mix(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(ShardRouter::Mix(0x9E3779B97F4A7C15ull), 0x6E789E6AA1B965F4ull);
}

TEST(ShardRouterTest, RoutingIsDeterministicAndInRange) {
  const ShardRouter a(4);
  const ShardRouter b(4);
  for (int32_t s = 0; s < 512; ++s) {
    const size_t owner = a.OwnerOf(s);
    EXPECT_LT(owner, 4u);
    EXPECT_EQ(owner, b.OwnerOf(s)) << "station " << s;
  }
}

TEST(ShardRouterTest, EveryShardOwnsStations) {
  const ShardRouter router(4);
  std::array<size_t, 4> owned{};
  for (int32_t s = 0; s < 256; ++s) ++owned[router.OwnerOf(s)];
  for (size_t shard = 0; shard < owned.size(); ++shard) {
    EXPECT_GT(owned[shard], 0u) << "shard " << shard;
    // The mix really spreads: no shard hoards the universe.
    EXPECT_LT(owned[shard], 256u) << "shard " << shard;
  }
}

TEST(ShardRouterTest, PairOwnershipIsOrientationFree) {
  const ShardRouter router(3);
  for (int32_t u = 0; u < 24; ++u) {
    for (int32_t v = 0; v < 24; ++v) {
      EXPECT_EQ(router.OwnerOfPair(u, v), router.OwnerOfPair(v, u))
          << u << "," << v;
      EXPECT_EQ(router.OwnerOfPair(u, v), router.OwnerOf(std::min(u, v)))
          << u << "," << v;
    }
  }
}

TEST(ShardRouterTest, ZeroShardCountClampsToOne) {
  const ShardRouter router(0);
  EXPECT_EQ(router.shard_count(), 1u);
  EXPECT_EQ(router.OwnerOf(12345), 0u);
}

// ---------------------------------------------------------------------------
// SpscRing: the bounded command channel between the ingest thread and a
// shard worker.
// ---------------------------------------------------------------------------

TEST(SpscRingTest, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);  // the floor
}

TEST(SpscRingTest, FillDrainAndWraparound) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99));  // full: bounded means bounded
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(ring.TryPop(out));  // empty
  // Many laps around the (power-of-two) index space: the monotonic
  // head/tail counters must keep masking correctly.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
    ASSERT_TRUE(ring.TryPop(out));
    ASSERT_EQ(out, i);
  }
}

TEST(SpscRingTest, TwoThreadHandoffDeliversEverythingInOrder) {
  // One producer, one consumer, a ring far smaller than the payload:
  // every value must arrive exactly once, in order (run under
  // BIKEGRAPH_SANITIZE=thread this is the data-race lock).
  SpscRing<uint64_t> ring(8);
  constexpr uint64_t kCount = 50000;
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!ring.TryPush(i)) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    uint64_t value = 0;
    if (!ring.TryPop(value)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(value, expected);
    ++expected;
  }
  producer.join();
  uint64_t leftover = 0;
  EXPECT_FALSE(ring.TryPop(leftover));
}

// ---------------------------------------------------------------------------
// MergeDirtySets: the freeze-time union of per-shard change records.
// ---------------------------------------------------------------------------

TEST(MergeDirtySetsTest, EmptyInputIsIncomplete) {
  const WindowDirtySet merged = MergeDirtySets({});
  EXPECT_FALSE(merged.complete);
}

TEST(MergeDirtySetsTest, DisjointPairsAndSharedStationsMerge) {
  WindowDirtySet a;
  a.complete = true;
  a.pairs = {SlidingWindowGraph::PairKey(0, 1),
             SlidingWindowGraph::PairKey(2, 3)};
  a.stations = {0, 1, 2, 3};
  WindowDirtySet b;
  b.complete = true;
  b.pairs = {SlidingWindowGraph::PairKey(1, 4)};
  b.stations = {1, 4};
  WindowDirtySet empty;  // an idle shard: complete, nothing changed
  empty.complete = true;

  const WindowDirtySet merged = MergeDirtySets({a, b, empty});
  EXPECT_TRUE(merged.complete);
  EXPECT_EQ(merged.pairs,
            (std::vector<uint64_t>{SlidingWindowGraph::PairKey(0, 1),
                                   SlidingWindowGraph::PairKey(1, 4),
                                   SlidingWindowGraph::PairKey(2, 3)}));
  EXPECT_EQ(merged.stations, (std::vector<int32_t>{0, 1, 2, 3, 4}));
}

TEST(MergeDirtySetsTest, OneIncompleteShardPoisonsTheMerge) {
  WindowDirtySet good;
  good.complete = true;
  good.pairs = {SlidingWindowGraph::PairKey(0, 1)};
  good.stations = {0, 1};
  WindowDirtySet overflowed;  // e.g. a first drain or a pair overflow
  overflowed.complete = false;
  const WindowDirtySet merged = MergeDirtySets({good, overflowed});
  EXPECT_FALSE(merged.complete);  // never a silent partial patch
}

// ---------------------------------------------------------------------------
// ShardedWindowView: the merged read surface must agree with a single
// window that ingested the union stream.
// ---------------------------------------------------------------------------

TEST(ShardedWindowViewTest, MergedViewMatchesTheUnionWindow) {
  const size_t stations = 32;
  const auto events = PlantedStream(stations, 4, 5, 400, 21);
  const ShardRouter router(3);
  const WindowGraphOptions options{stations, 2 * 86400};

  SlidingWindowGraph single(options);
  std::vector<SlidingWindowGraph> shards(3, SlidingWindowGraph(options));
  for (const TripEvent& e : events) {
    ASSERT_TRUE(single.Ingest(e).ok());
    ASSERT_TRUE(shards[router.OwnerOfPair(e.from_station, e.to_station)]
                    .Ingest(e)
                    .ok());
  }
  // Align every shard to the union watermark (the engine's phase-2
  // barrier) so expiry cutoffs agree.
  for (SlidingWindowGraph& shard : shards) shard.Advance(single.watermark());

  const ShardedWindowView view({&shards[0], &shards[1], &shards[2]});
  EXPECT_EQ(view.station_count(), single.station_count());
  EXPECT_EQ(view.trip_count(), single.trip_count());
  EXPECT_EQ(view.pair_count(), single.pair_count());
  EXPECT_EQ(view.watermark(), single.watermark());
  EXPECT_EQ(view.window_start(), single.window_start());
  for (int32_t s = 0; s < static_cast<int32_t>(stations); ++s) {
    EXPECT_EQ(view.DayCounts(s), single.DayCounts(s)) << "station " << s;
    EXPECT_EQ(view.HourCounts(s), single.HourCounts(s)) << "station " << s;
  }
  const analysis::StationProfiles merged_profiles = view.Profiles();
  const analysis::StationProfiles single_profiles = single.Profiles();
  EXPECT_EQ(merged_profiles.day, single_profiles.day);
  EXPECT_EQ(merged_profiles.hour, single_profiles.hour);

  // ForEachPair: the same set of (u, v, trips) triples, each pair once
  // (visit order is storage order, so compare sorted copies).
  std::vector<std::array<int64_t, 3>> from_view, from_single;
  view.ForEachPair([&](int32_t u, int32_t v, int64_t trips) {
    from_view.push_back({u, v, trips});
    EXPECT_EQ(view.TripsBetween(u, v), trips);
  });
  single.ForEachPair([&](int32_t u, int32_t v, int64_t trips) {
    from_single.push_back({u, v, trips});
  });
  std::sort(from_view.begin(), from_view.end());
  std::sort(from_single.begin(), from_single.end());
  EXPECT_EQ(from_view, from_single);
  EXPECT_EQ(from_view.size(), single.pair_count());

  // And the freeze built over the view is bit-identical to the freeze
  // built over the union window.
  auto merged_snap = FreezeSnapshot(view);
  auto single_snap = FreezeSnapshot(ShardedWindowView({&single}));
  ASSERT_TRUE(merged_snap.ok());
  ASSERT_TRUE(single_snap.ok());
  EXPECT_EQ(merged_snap->trip_count, single_snap->trip_count);
  EXPECT_EQ(merged_snap->window_start, single_snap->window_start);
  EXPECT_EQ(merged_snap->window_end, single_snap->window_end);
  EXPECT_EQ(merged_snap->profiles.day, single_snap->profiles.day);
  EXPECT_EQ(merged_snap->profiles.hour, single_snap->profiles.hour);
  ExpectGraphsIdentical(merged_snap->graph, single_snap->graph);
}

TEST(ShardedWindowViewTest, EmptyShardsContributeNothing) {
  const WindowGraphOptions options{8, 86400};
  SlidingWindowGraph populated(options);
  SlidingWindowGraph empty_a(options);
  SlidingWindowGraph empty_b(options);
  ASSERT_TRUE(populated.Ingest(Trip(0, 1, At(6, 10))).ok());
  ASSERT_TRUE(populated.Ingest(Trip(1, 2, At(6, 11))).ok());

  const ShardedWindowView view({&empty_a, &populated, &empty_b});
  EXPECT_EQ(view.trip_count(), 2u);
  EXPECT_EQ(view.pair_count(), 2u);
  EXPECT_EQ(view.watermark(), populated.watermark());
  EXPECT_EQ(view.window_start(), populated.window_start());
  EXPECT_EQ(view.TripsBetween(0, 1), 1);
  EXPECT_EQ(view.TripsBetween(3, 4), 0);
  size_t visited = 0;
  view.ForEachPair([&](int32_t, int32_t, int64_t) { ++visited; });
  EXPECT_EQ(visited, 2u);
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: the headline lock. An N-shard engine fed the
// same (jittered) stream as a single-writer engine must publish
// bit-identical snapshots and Louvain partitions at every barrier.
// ---------------------------------------------------------------------------

StreamEngineConfig BaseConfig(size_t stations, int64_t window_seconds,
                              size_t shard_count,
                              int64_t max_lateness_seconds = 0) {
  StreamEngineConfig config;
  config.station_count = stations;
  config.window_seconds = window_seconds;
  config.max_lateness_seconds = max_lateness_seconds;
  config.shard_count = shard_count;
  return config;
}

void ExpectSnapshotsIdentical(const WindowSnapshot& sharded,
                              const WindowSnapshot& single) {
  EXPECT_EQ(sharded.trip_count, single.trip_count);
  EXPECT_EQ(sharded.window_start, single.window_start);
  EXPECT_EQ(sharded.window_end, single.window_end);
  EXPECT_EQ(sharded.profiles.day, single.profiles.day);
  EXPECT_EQ(sharded.profiles.hour, single.profiles.hour);
  ExpectGraphsIdentical(sharded.graph, single.graph);
}

/// Feeds the identical jittered planted stream into a single-writer and
/// an N-shard engine, snapshotting mid-stream every `snapshot_every`
/// events (each one a sharded barrier), and requires bit identity at
/// every snapshot, at the final flush, and on the Louvain partition.
void ExpectShardedEquivalence(int64_t window_seconds, size_t shard_count) {
  const size_t stations = 24;
  const auto ordered = PlantedStream(stations, 3, 10, 300, 7);
  const auto jittered = JitterArrivalOrder(ordered, 1800, 99).events;
  const size_t snapshot_every = 617;

  StreamEngine single(BaseConfig(stations, window_seconds, 1, 1800));
  StreamEngine sharded(
      BaseConfig(stations, window_seconds, shard_count, 1800));
  ASSERT_EQ(sharded.shard_count(), shard_count);

  for (size_t i = 0; i < jittered.size(); ++i) {
    ASSERT_TRUE(single.Ingest(jittered[i]).ok());
    ASSERT_TRUE(sharded.Ingest(jittered[i]).ok());
    if ((i + 1) % snapshot_every == 0) {
      auto single_snap = single.Snapshot();
      auto sharded_snap = sharded.Snapshot();
      ASSERT_TRUE(single_snap.ok());
      ASSERT_TRUE(sharded_snap.ok());
      ExpectSnapshotsIdentical(**sharded_snap, **single_snap);
    }
  }
  ASSERT_TRUE(single.Flush().ok());
  ASSERT_TRUE(sharded.Flush().ok());

  // Quiescent now: the aggregate live stats must agree exactly.
  EXPECT_EQ(sharded.ingested_count(), single.ingested_count());
  EXPECT_EQ(sharded.trip_count(), single.trip_count());
  EXPECT_EQ(sharded.expired_count(), single.expired_count());
  EXPECT_EQ(sharded.watermark(), single.watermark());
  EXPECT_EQ(sharded.reordered_count(), single.reordered_count());
  EXPECT_EQ(sharded.late_dropped_count(), 0u);
  EXPECT_EQ(sharded.buffered_count(), 0u);
  EXPECT_GT(sharded.reordered_count(), 0u);

  auto single_snap = single.Snapshot();
  auto sharded_snap = sharded.Snapshot();
  ASSERT_TRUE(single_snap.ok());
  ASSERT_TRUE(sharded_snap.ok());
  ExpectSnapshotsIdentical(**sharded_snap, **single_snap);

  auto single_detect = single.DetectCurrent();
  auto sharded_detect = sharded.DetectCurrent();
  ASSERT_TRUE(single_detect.ok());
  ASSERT_TRUE(sharded_detect.ok());
  EXPECT_EQ(sharded_detect->result.partition.assignment,
            single_detect->result.partition.assignment);
  EXPECT_EQ(sharded_detect->result.modularity,
            single_detect->result.modularity);  // bitwise
}

TEST(ShardedEngineTest, TwoShardsSlidingBitForBit) {
  ExpectShardedEquivalence(/*window_seconds=*/3 * 86400, /*shard_count=*/2);
}

TEST(ShardedEngineTest, FourShardsSlidingBitForBit) {
  ExpectShardedEquivalence(/*window_seconds=*/3 * 86400, /*shard_count=*/4);
}

TEST(ShardedEngineTest, TwoShardsLandmarkBitForBit) {
  ExpectShardedEquivalence(/*window_seconds=*/0, /*shard_count=*/2);
}

TEST(ShardedEngineTest, FourShardsLandmarkBitForBit) {
  ExpectShardedEquivalence(/*window_seconds=*/0, /*shard_count=*/4);
}

TEST(ShardedEngineTest, ShardCountZeroMeansSingleWriter) {
  StreamEngine zero(BaseConfig(4, 0, 0));
  EXPECT_EQ(zero.shard_count(), 1u);
  StreamEngine four(BaseConfig(4, 0, 4));
  EXPECT_EQ(four.shard_count(), 4u);
}

TEST(ShardedEngineTest, ValidationStaysSynchronousWhenSharded) {
  // Endpoint validation and the flushed check happen at arrival, before
  // routing — only in-shard failures are deferred.
  StreamEngine engine(BaseConfig(4, 0, 2));
  EXPECT_EQ(engine.Ingest(Trip(0, 9, At(6, 10))).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.Ingest(Trip(0, 1, At(6, 11))).code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Routing edge cases (the satellite locks).
// ---------------------------------------------------------------------------

/// The first station (by id) whose owner under `router` differs from
/// `avoid`, or -1.
int32_t FirstStationNotOwnedBy(const ShardRouter& router, size_t avoid,
                               size_t stations) {
  for (int32_t s = 0; s < static_cast<int32_t>(stations); ++s) {
    if (router.OwnerOf(s) != avoid) return s;
  }
  return -1;
}

TEST(ShardedEngineTest, MidStreamStationWakesAnIdleShard) {
  const size_t stations = 64;
  const ShardRouter router(4);
  // Warm phase: all trips among stations owned by one shard, so three
  // shards never see an event.
  const size_t hot = router.OwnerOf(0);
  std::vector<int32_t> hot_stations;
  for (int32_t s = 0; s < static_cast<int32_t>(stations); ++s) {
    if (router.OwnerOf(s) == hot) hot_stations.push_back(s);
  }
  ASSERT_GE(hot_stations.size(), 2u);
  // The wake-up pair must be *owned* by an idle shard: its canonical
  // (smaller) endpoint belongs to a shard with no prior events.
  const int32_t cold = FirstStationNotOwnedBy(router, hot, stations);
  ASSERT_GE(cold, 0);
  int32_t partner = -1;
  for (int32_t s : hot_stations) {
    if (s > cold) partner = s;
  }
  ASSERT_GE(partner, 0);
  ASSERT_NE(router.OwnerOfPair(cold, partner), hot);

  StreamEngine single(BaseConfig(stations, 0, 1));
  StreamEngine sharded(BaseConfig(stations, 0, 4));
  int64_t rental = 1;
  for (int minute = 0; minute < 30; ++minute) {
    const TripEvent e =
        Trip(hot_stations[0], hot_stations[1], At(6, 10, minute), rental++);
    ASSERT_TRUE(single.Ingest(e).ok());
    ASSERT_TRUE(sharded.Ingest(e).ok());
  }
  auto warm_single = single.Snapshot();
  auto warm_sharded = sharded.Snapshot();
  ASSERT_TRUE(warm_single.ok());
  ASSERT_TRUE(warm_sharded.ok());
  ExpectSnapshotsIdentical(**warm_sharded, **warm_single);

  // Mid-stream, a never-before-seen station routes its pair to a shard
  // that was idle through the warm phase and the first freeze.
  const TripEvent wake = Trip(cold, partner, At(6, 11), rental++);
  ASSERT_TRUE(single.Ingest(wake).ok());
  ASSERT_TRUE(sharded.Ingest(wake).ok());
  auto woken_single = single.Snapshot();
  auto woken_sharded = sharded.Snapshot();
  ASSERT_TRUE(woken_single.ok());
  ASSERT_TRUE(woken_sharded.ok());
  ExpectSnapshotsIdentical(**woken_sharded, **woken_single);
  EXPECT_EQ((*woken_sharded)->trip_count, 31u);
  EXPECT_EQ((*woken_sharded)->graph.edge_count(),
            (*warm_sharded)->graph.edge_count() + 1);
}

TEST(ShardedEngineTest, CrossShardPairCanonicalizesToOneOwner) {
  // Both orientations of a pair whose endpoints live on different shards
  // must land on the same shard and fold into one edge, exactly as in
  // the single-writer engine.
  const size_t stations = 16;
  const ShardRouter router(4);
  int32_t u = -1, v = -1;
  for (int32_t a = 0; a < static_cast<int32_t>(stations) && u < 0; ++a) {
    for (int32_t b = a + 1; b < static_cast<int32_t>(stations); ++b) {
      if (router.OwnerOf(a) != router.OwnerOf(b)) {
        u = a;
        v = b;
        break;
      }
    }
  }
  ASSERT_GE(u, 0);

  StreamEngine single(BaseConfig(stations, 0, 1));
  StreamEngine sharded(BaseConfig(stations, 0, 4));
  const std::vector<TripEvent> events = {Trip(u, v, At(6, 10), 1),
                                         Trip(v, u, At(6, 10, 5), 2),
                                         Trip(u, v, At(6, 10, 9), 3)};
  for (const TripEvent& e : events) {
    ASSERT_TRUE(single.Ingest(e).ok());
    ASSERT_TRUE(sharded.Ingest(e).ok());
  }
  ASSERT_TRUE(single.Flush().ok());
  ASSERT_TRUE(sharded.Flush().ok());
  EXPECT_EQ(sharded.trip_count(), 3u);
  auto single_snap = single.Snapshot();
  auto sharded_snap = sharded.Snapshot();
  ASSERT_TRUE(single_snap.ok());
  ASSERT_TRUE(sharded_snap.ok());
  ExpectSnapshotsIdentical(**sharded_snap, **single_snap);
  EXPECT_EQ((*sharded_snap)->graph.edge_count(), 1u);  // one folded edge
}

TEST(ShardedEngineTest, EmptyShardFreezeTakesTheDeltaPathNotAStaleSet) {
  // All events live on one shard; the other three stay empty across two
  // freezes. An empty shard must contribute a *complete empty* dirty
  // set to the second freeze — the merged record stays complete and the
  // copy-on-write delta path runs — rather than an incomplete (stale)
  // one forcing full rebuilds forever.
  const size_t stations = 64;
  const ShardRouter router(4);
  const size_t hot = router.OwnerOf(0);
  std::vector<int32_t> hot_stations;
  for (int32_t s = 0; s < static_cast<int32_t>(stations); ++s) {
    if (router.OwnerOf(s) == hot) hot_stations.push_back(s);
  }
  ASSERT_GE(hot_stations.size(), 16u);

  StreamEngine single(BaseConfig(stations, 0, 1));
  StreamEngine sharded(BaseConfig(stations, 0, 4));
  int64_t rental = 1;
  int minute = 0;
  const auto feed = [&](size_t a, size_t b) {
    const TripEvent e =
        Trip(hot_stations[a], hot_stations[b], At(6, 10, minute++), rental++);
    ASSERT_TRUE(single.Ingest(e).ok());
    ASSERT_TRUE(sharded.Ingest(e).ok());
  };
  // First epoch: 15 distinct pairs, so the one-pair second epoch stays
  // far under the delta policy's dirty-fraction cap.
  for (size_t i = 0; i + 1 < 16; ++i) feed(i, i + 1);
  auto first_single = single.Snapshot();
  auto first_sharded = sharded.Snapshot();
  ASSERT_TRUE(first_single.ok());
  ASSERT_TRUE(first_sharded.ok());
  ExpectSnapshotsIdentical(**first_sharded, **first_single);
  EXPECT_EQ(sharded.full_freeze_count(), 1u);  // first freeze arms dirty
                                               // tracking on every shard
  EXPECT_EQ(sharded.delta_freeze_count(), 0u);

  // A small second epoch: one touched pair out of fifteen edges.
  feed(0, 1);
  auto second_single = single.Snapshot();
  auto second_sharded = sharded.Snapshot();
  ASSERT_TRUE(second_single.ok());
  ASSERT_TRUE(second_sharded.ok());
  ExpectSnapshotsIdentical(**second_sharded, **second_single);
  // The empty shards' records were complete, so the merge stayed
  // complete and the delta path ran.
  EXPECT_EQ(sharded.delta_freeze_count(), 1u);
  EXPECT_EQ(sharded.full_freeze_count(), 1u);
}

TEST(ShardedEngineTest, DeferredShardErrorsSurfaceAtTheNextBarrier) {
  // Strict lateness (0, kError): the single-writer engine fails the
  // Ingest; a sharded engine accepts the enqueue and surfaces the
  // shard's error at the next barrier — exactly once.
  StreamEngine engine(BaseConfig(8, 0, 2));
  ASSERT_TRUE(engine.Ingest(Trip(0, 1, At(6, 10), 1)).ok());
  // A start-time regression under max_lateness 0 fails inside the
  // owning shard; the enqueuing call cannot see that.
  ASSERT_TRUE(engine.Ingest(Trip(2, 3, At(6, 9), 2)).ok());
  const Status deferred = engine.Flush();
  EXPECT_EQ(deferred.code(), StatusCode::kFailedPrecondition);
  // Surfaced once: the barrier cleared the parked error, and the good
  // event is in the window.
  auto snap = engine.Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->trip_count, 1u);
  EXPECT_EQ(engine.trip_count(), 1u);
}

TEST(ShardedEngineTest, RefusedLateEventStillReleasesWhatItsClockMadeSafe) {
  // A late event's command forwards the global watermark to its owning
  // shard, whose clock lagged: the held event that watermark made safe
  // must reach the window although the late event itself is refused —
  // the barrier sends no align command to a shard already at the global
  // watermark.
  const ShardRouter router(2);
  const int32_t a = 0;
  const int32_t b = FirstStationNotOwnedBy(router, router.OwnerOf(a), 8);
  ASSERT_GE(b, 0);
  StreamEngine single(BaseConfig(8, 0, 1, 3600));
  StreamEngine sharded(BaseConfig(8, 0, 2, 3600));
  for (StreamEngine* engine : {&single, &sharded}) {
    ASSERT_TRUE(engine->Ingest(Trip(a, a, At(6, 10), 1)).ok());
    ASSERT_TRUE(engine->Ingest(Trip(b, b, At(6, 12), 2)).ok());
  }
  // 10:30 is older than the 12:00 watermark minus the 1 h horizon.
  EXPECT_EQ(single.Ingest(Trip(a, a, At(6, 10, 30), 3)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sharded.Ingest(Trip(a, a, At(6, 10, 30), 3)).ok());
  EXPECT_EQ(sharded.Snapshot().status().code(),
            StatusCode::kFailedPrecondition);

  auto single_snap = single.Snapshot();
  auto sharded_snap = sharded.Snapshot();
  ASSERT_TRUE(single_snap.ok());
  ASSERT_TRUE(sharded_snap.ok());
  EXPECT_EQ((*single_snap)->trip_count, 1u);
  ExpectSnapshotsIdentical(**sharded_snap, **single_snap);
  EXPECT_EQ(sharded.buffered_count(), single.buffered_count());
}

TEST(ShardedEngineTest, DrainFailureAfterARefusedLateEventIsNotLost) {
  // Same shape, but the held event cannot enter the window (a negative
  // window length refuses every ingest): the drain the refused event
  // triggers fails, and that failure — not the refusal — is the deferred
  // error the next barrier reports.
  const ShardRouter router(2);
  const int32_t a = 0;
  const int32_t b = FirstStationNotOwnedBy(router, router.OwnerOf(a), 8);
  ASSERT_GE(b, 0);
  StreamEngine sharded(BaseConfig(8, -1, 2, 3600));
  ASSERT_TRUE(sharded.Ingest(Trip(a, a, At(6, 10), 1)).ok());
  ASSERT_TRUE(sharded.Ingest(Trip(b, b, At(6, 12), 2)).ok());
  ASSERT_TRUE(sharded.Ingest(Trip(a, a, At(6, 10, 30), 3)).ok());
  EXPECT_EQ(sharded.Snapshot().status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bikegraph::stream
