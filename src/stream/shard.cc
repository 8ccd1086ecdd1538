#include "stream/shard.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace bikegraph::stream {

ShardedWindowView::ShardedWindowView(
    std::vector<const SlidingWindowGraph*> shards)
    : shards_(std::move(shards)) {
  assert(!shards_.empty() && "a view needs at least one shard");
}

size_t ShardedWindowView::station_count() const {
  return shards_[0]->station_count();
}

size_t ShardedWindowView::trip_count() const {
  size_t total = 0;
  for (const SlidingWindowGraph* shard : shards_) {
    total += shard->trip_count();
  }
  return total;
}

size_t ShardedWindowView::pair_count() const {
  size_t total = 0;
  for (const SlidingWindowGraph* shard : shards_) {
    total += shard->pair_count();
  }
  return total;
}

CivilTime ShardedWindowView::watermark() const {
  CivilTime newest(INT64_MIN);
  for (const SlidingWindowGraph* shard : shards_) {
    if (shard->watermark() > newest) newest = shard->watermark();
  }
  return newest;
}

CivilTime ShardedWindowView::window_start() const {
  // Mirrors SlidingWindowGraph::window_start() over the merged
  // watermark: INT64_MIN for a landmark window (window_seconds <= 0) or
  // before any event, else the exclusive bound watermark - window.
  const int64_t window_seconds = shards_[0]->options().window_seconds;
  const CivilTime mark = watermark();
  if (window_seconds <= 0 || mark == CivilTime(INT64_MIN)) {
    return CivilTime(INT64_MIN);
  }
  return mark.AddSeconds(-window_seconds);
}

int64_t ShardedWindowView::TripsBetween(int32_t u, int32_t v) const {
  // Exclusive pair ownership: at most one shard holds a nonzero count,
  // so the sum needs no router — and stays correct even if routing
  // policy changes.
  int64_t total = 0;
  for (const SlidingWindowGraph* shard : shards_) {
    total += shard->TripsBetween(u, v);
  }
  return total;
}

std::array<int64_t, 7> ShardedWindowView::DayCounts(int32_t station) const {
  std::array<int64_t, 7> merged{};
  for (const SlidingWindowGraph* shard : shards_) {
    const std::array<int64_t, 7>& counts = shard->DayCounts(station);
    for (size_t i = 0; i < merged.size(); ++i) merged[i] += counts[i];
  }
  return merged;
}

std::array<int64_t, 24> ShardedWindowView::HourCounts(
    int32_t station) const {
  std::array<int64_t, 24> merged{};
  for (const SlidingWindowGraph* shard : shards_) {
    const std::array<int64_t, 24>& counts = shard->HourCounts(station);
    for (size_t i = 0; i < merged.size(); ++i) merged[i] += counts[i];
  }
  return merged;
}

analysis::StationProfiles ShardedWindowView::Profiles() const {
  // Sum the *integral* shard counters and convert once: integer addition
  // is exact and order-independent, so the merged profile is bit-equal
  // to the profile a single window over the union stream would export.
  analysis::StationProfiles profiles;
  const size_t n = station_count();
  profiles.day.assign(n, {});
  profiles.hour.assign(n, {});
  for (size_t s = 0; s < n; ++s) {
    const auto station = static_cast<int32_t>(s);
    const std::array<int64_t, 7> day = DayCounts(station);
    const std::array<int64_t, 24> hour = HourCounts(station);
    for (size_t i = 0; i < day.size(); ++i) {
      profiles.day[s][i] = static_cast<double>(day[i]);
    }
    for (size_t i = 0; i < hour.size(); ++i) {
      profiles.hour[s][i] = static_cast<double>(hour[i]);
    }
  }
  return profiles;
}

WindowDirtySet MergeDirtySets(std::vector<WindowDirtySet> inputs) {
  if (inputs.empty()) return WindowDirtySet{};
  WindowDirtySet merged = std::move(inputs[0]);
  std::vector<uint64_t> pairs;
  std::vector<int32_t> stations;
  for (size_t i = 1; i < inputs.size(); ++i) {
    const WindowDirtySet& in = inputs[i];
    merged.complete = merged.complete && in.complete;
    // Pairs are disjoint across shards (exclusive ownership), so a plain
    // merge is already the deduplicated union; stations can be dirtied
    // from several shards and need the set union.
    pairs.clear();
    pairs.reserve(merged.pairs.size() + in.pairs.size());
    std::merge(merged.pairs.begin(), merged.pairs.end(), in.pairs.begin(),
               in.pairs.end(), std::back_inserter(pairs));
    merged.pairs.swap(pairs);
    stations.clear();
    stations.reserve(merged.stations.size() + in.stations.size());
    std::set_union(merged.stations.begin(), merged.stations.end(),
                   in.stations.begin(), in.stations.end(),
                   std::back_inserter(stations));
    merged.stations.swap(stations);
  }
  return merged;
}

}  // namespace bikegraph::stream
