// The live workloads: a city-scale trip stream served by StreamEngine.
//
//   live-serve      open-loop writer at a fixed event rate publishing an
//                   epoch on a wall-clock cadence, two closed-loop readers
//                   running query batches through QueryService.
//   replay-durable  closed-loop catch-up replay with the WAL on, periodic
//                   checkpoints, a crash after the last event and Recover().
//   replay-sharded  the same closed-loop replay with WAL off and two shards.
//
// The numbers behind each constant are discussed in README.md.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include <unistd.h>

#include "checks.h"
#include "common.h"
#include "core/civil_time.h"
#include "core/rng.h"
#include "data/synthetic.h"
#include "geo/dublin.h"
#include "query/service.h"
#include "query/workload.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/replay.h"

namespace perfbench {
namespace {

using namespace bikegraph;
namespace fs = std::filesystem;

// Shape of the city stream.
constexpr size_t kStations = 1024;
constexpr size_t kRegions = 16;
constexpr double kInRegionShare = 0.8;
constexpr int kTripsPerDay = 20000;
constexpr int64_t kJitterSeconds = 3600;
constexpr int kWindowDays = 7;
constexpr int kReplayDays = 28;

// live-serve: offered rate (about half of the single writer's closed-loop
// capacity on the reference host), epoch cadence, readers.
constexpr double kOfferedEventsPerSecond = 600000.0;
constexpr int64_t kPublishEveryNs = 50'000'000;
constexpr size_t kReaders = 2;
constexpr size_t kQueryBatch = 16;
// How late the writer runs is sampled on every 8th offered event.
constexpr size_t kLagSampleEvery = 8;

// replay-*: epoch cadence in event time, checkpoint cadence, shards.
constexpr int64_t kReplayTickSeconds = 4 * 3600;
constexpr uint64_t kCheckpointEveryEpochs = 32;
// Group fsync every 8192 WAL records instead of the default 512. With about
// 1,100 fsyncs per pass, the shared host's fsync latency set the figure: in
// one set of ten seeds durable throughput ran from 196k to 402k events/s.
constexpr uint64_t kWalSyncEveryRecords = 8192;
constexpr size_t kReplayShards = 2;

// Stream generation takes a fraction of a second, so it is repeated often
// enough for its median to be steady.
constexpr int kSetups = 5;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// The city stream
// ---------------------------------------------------------------------------

struct CityStream {
  std::vector<geo::LatLon> positions;
  /// Arrival order: start-time order perturbed by up to an hour of report
  /// lag (stream::JitterArrivalOrder).
  std::vector<stream::TripEvent> events;
  /// Event-time span of `events` (whole days).
  int64_t span_seconds = 0;

  /// Event k of the endless stream: the base events repeated cycle after
  /// cycle, each cycle shifted by the span (and given fresh rental ids), so
  /// a long open-loop run needs no more memory than one cycle. Every event
  /// of cycle c + 1 starts after every event of cycle c, so the jitter
  /// stays within the reorder horizon across the seam.
  stream::TripEvent At(size_t k) const {
    const size_t cycle = k / events.size();
    stream::TripEvent e = events[k % events.size()];
    const auto shift = static_cast<int64_t>(cycle) * span_seconds;
    e.start_time = e.start_time.AddSeconds(shift);
    e.end_time = e.end_time.AddSeconds(shift);
    e.rental_id += static_cast<int64_t>(cycle * events.size());
    return e;
  }
};

size_t Draw(const std::vector<double>& cumulative, Rng& rng) {
  const double x = rng.NextDouble() * cumulative.back();
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), x);
  return std::min(static_cast<size_t>(it - cumulative.begin()),
                  cumulative.size() - 1);
}

std::vector<double> Cumulative(const std::vector<double>& weights) {
  std::vector<double> cumulative(weights.size());
  std::partial_sum(weights.begin(), weights.end(), cumulative.begin());
  return cumulative;
}

/// `days` days of trips over kStations stations in kRegions neighbourhoods.
/// Station popularity is Zipf-like, each neighbourhood has a commute,
/// leisure or mixed hour-of-day shape (data::HourProfile), and most trips
/// stay inside their neighbourhood, so the graph has community structure.
CityStream MakeCityStream(uint64_t seed, int days) {
  // The city itself (station sites and popularity) is fixed, like a real
  // network whose stations do not move; the seed draws each
  // neighbourhood's kind and every trip, so seeds differ in their trips
  // and not in the shape of the graph they build.
  Rng city_rng(0xC17E);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xC17E);
  CityStream city;

  std::vector<geo::LatLon> centres;
  std::vector<geo::Hotspot::Kind> kinds;
  for (size_t r = 0; r < kRegions; ++r) {
    centres.emplace_back(53.30 + 0.025 * static_cast<double>(r / 4),
                         -6.40 + 0.07 * static_cast<double>(r % 4));
    kinds.push_back(static_cast<geo::Hotspot::Kind>(rng.NextBounded(3)));
  }
  std::vector<size_t> rank(kStations);
  std::iota(rank.begin(), rank.end(), 0);
  city_rng.Shuffle(&rank);
  std::vector<double> popularity(kStations);
  std::vector<std::vector<int32_t>> members(kRegions);
  std::vector<std::vector<double>> member_weights(kRegions);
  for (size_t s = 0; s < kStations; ++s) {
    const size_t region = s % kRegions;
    city.positions.emplace_back(
        centres[region].lat + city_rng.NextGaussian(0.0, 0.008),
        centres[region].lon + city_rng.NextGaussian(0.0, 0.012));
    popularity[s] = 1.0 / std::pow(1.0 + static_cast<double>(rank[s]), 0.8);
    members[region].push_back(static_cast<int32_t>(s));
    member_weights[region].push_back(popularity[s]);
  }
  const std::vector<double> any_station = Cumulative(popularity);
  std::vector<std::vector<double>> in_region;
  for (const auto& weights : member_weights) in_region.push_back(Cumulative(weights));
  std::vector<double> hour_cdf[3][2];
  for (int kind = 0; kind < 3; ++kind) {
    for (int weekend = 0; weekend < 2; ++weekend) {
      const auto profile = data::HourProfile(
          static_cast<geo::Hotspot::Kind>(kind), weekend == 1);
      hour_cdf[kind][weekend] =
          Cumulative(std::vector<double>(profile.begin(), profile.end()));
    }
  }

  const CivilTime first_day = CivilTime::FromCalendar(2021, 3, 1).ValueOrDie();
  std::vector<stream::TripEvent> events;
  events.reserve(static_cast<size_t>(days) * kTripsPerDay);
  for (int d = 0; d < days; ++d) {
    const CivilTime day = first_day.AddDays(d);
    const int weekend = IsWeekend(day.weekday()) ? 1 : 0;
    for (int t = 0; t < kTripsPerDay; ++t) {
      const size_t origin = Draw(any_station, rng);
      const size_t region = origin % kRegions;
      const auto kind = static_cast<size_t>(kinds[region]);
      const auto hour = static_cast<int64_t>(Draw(hour_cdf[kind][weekend], rng));
      stream::TripEvent e;
      e.from_station = static_cast<int32_t>(origin);
      e.to_station = rng.NextDouble() < kInRegionShare
                         ? members[region][Draw(in_region[region], rng)]
                         : static_cast<int32_t>(Draw(any_station, rng));
      e.start_time = day.AddSeconds(hour * 3600 +
                                    static_cast<int64_t>(rng.NextBounded(3600)));
      e.end_time = e.start_time.AddSeconds(
          300 + static_cast<int64_t>(rng.NextBounded(2400)));
      events.push_back(e);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const stream::TripEvent& a, const stream::TripEvent& b) {
                     return a.start_time < b.start_time;
                   });
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].rental_id = static_cast<int64_t>(i + 1);
  }
  city.events = stream::JitterArrivalOrder(std::move(events), kJitterSeconds,
                                           seed ^ 0x5EEDF00DULL)
                    .events;
  city.span_seconds = int64_t{days} * 86400;
  return city;
}

/// Set-up shared by the live workloads: the stream is generated kSetups
/// times and the median generation time is the run's setup_s.
CityStream SetUpStream(uint64_t seed, int days, Report* report) {
  std::vector<double> setup_s;
  CityStream city;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t start = NowNs();
    city = MakeCityStream(seed, days);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  report->end_to_end["setup_s"] = {Median(setup_s), "s"};
  report->Note("stream: " + std::to_string(city.events.size()) + " events, " +
               std::to_string(kStations) + " stations, " + std::to_string(days) +
               " days, jitter " + std::to_string(kJitterSeconds) + " s");
  return city;
}

stream::StreamEngineConfig BaseConfig(const CityStream& city) {
  stream::StreamEngineConfig config;
  config.station_count = kStations;
  config.window_seconds = int64_t{kWindowDays} * 86400;
  config.max_lateness_seconds = kJitterSeconds;
  config.station_positions = city.positions;
  return config;
}

// ---------------------------------------------------------------------------
// Counting and checking
// ---------------------------------------------------------------------------

/// The run's report plus the events the engine refused (late under
/// LateEventPolicy::kError), which conservation counts as late.
struct Ops {
  Report* report;
  uint64_t refused = 0;

  void Ingest(stream::StreamEngine& engine, const stream::TripEvent& e) {
    if (!report->Count(engine.Ingest(e), "Ingest")) ++refused;
  }
};

/// Final snapshot of an unpaced single-writer replay of the first `count`
/// events of the stream.
std::string ReferenceSnapshot(const CityStream& city, size_t count) {
  stream::StreamEngine engine(BaseConfig(city));
  for (size_t i = 0; i < count; ++i) {
    if (!engine.Ingest(city.At(i)).ok()) return "reference ingest failed";
  }
  if (!engine.Flush().ok()) return "reference flush failed";
  auto snapshot = engine.Snapshot();
  return snapshot.ok() ? SnapshotBytes(**snapshot) : "reference freeze failed";
}

/// Flushes, then checks conservation and bit identity with the reference.
/// Returns the Flush() time in ms.
double CheckFinalState(stream::StreamEngine& engine, uint64_t offered,
                       uint64_t refused, const std::string& reference,
                       Ops* ops) {
  const int64_t start = NowNs();
  const bool flushed = ops->report->Count(engine.Flush(), "Flush");
  const double flush_ms = Ms(NowNs() - start);
  auto snapshot = engine.Snapshot();
  ops->report->Count(snapshot.status(), "Snapshot");
  Report* report = ops->report;
  report->Check(flushed && snapshot.ok(), "final flush or freeze failed");
  report->Verdict(CheckConservation(StreamCounts{
      offered, engine.ingested_count(), engine.late_dropped_count() + refused,
      engine.duplicate_count(), engine.buffered_count()}));
  if (snapshot.ok()) {
    report->Verdict(CheckSnapshotMatches(reference, SnapshotBytes(**snapshot)));
  }
  return flush_ms;
}

/// Freeze counters of one engine, reported per pass.
struct EngineCounts {
  double epochs = 0, delta = 0, full = 0, reuses = 0, reordered = 0,
         late = 0, duplicates = 0;
};

EngineCounts CountsOf(const stream::StreamEngine& engine, uint64_t epochs,
                      uint64_t reuses) {
  EngineCounts c;
  c.epochs = static_cast<double>(epochs);
  c.delta = static_cast<double>(engine.delta_freeze_count());
  c.full = static_cast<double>(engine.full_freeze_count());
  c.reuses = static_cast<double>(reuses);
  c.reordered = static_cast<double>(engine.reordered_count());
  c.late = static_cast<double>(engine.late_dropped_count());
  c.duplicates = static_cast<double>(engine.duplicate_count());
  return c;
}

void ReportCounts(const EngineCounts& c, Report* report) {
  report->Layer("stream.epochs", c.epochs, "count");
  report->Layer("stream.delta_freezes", c.delta, "count");
  report->Layer("stream.full_freezes", c.full, "count");
  report->Layer("stream.snapshot_reuses", c.reuses, "count");
  report->Layer("stream.reordered", c.reordered, "count");
  report->Layer("stream.late_dropped", c.late, "count");
  report->Layer("stream.duplicates", c.duplicates, "count");
}

double SelfMs(const Attribution& a, const char* name) {
  const auto it = a.self_ms.find(name);
  return it == a.self_ms.end() ? 0.0 : it->second;
}

/// `busy_base_ms` is the writer wall time the busy shares are taken of.
void ReportAttribution(const Attribution& a, double busy_base_ms, double events,
                       double throughput_untraced, double throughput_traced,
                       Report* report) {
  report->Check(a.balanced, "attribution does not sum to writer wall time");
  report->Layer("stream.ingest_ns",
                events > 0 ? SelfMs(a, "stream.ingest") * 1e6 / events : 0.0,
                "ns");
  report->Layer("stream.ingest_busy",
                SelfMs(a, "stream.ingest") / busy_base_ms, "ratio");
  report->Layer("stream.freeze_busy",
                SelfMs(a, "stream.freeze") / busy_base_ms, "ratio");
  report->Layer("bench.unattributed_ms", a.unattributed_ms, "ms");
  report->Layer("bench.unattributed_share", a.unattributed_ms / a.wall_ms,
                "ratio");
  report->Layer("bench.trace_overhead_pct",
                100.0 * (throughput_untraced / throughput_traced - 1.0), "%");
}

// ---------------------------------------------------------------------------
// live-serve
// ---------------------------------------------------------------------------

struct ReaderResult {
  std::vector<double> batch_us, pin_us, exec_us;
  uint64_t queries = 0;
  uint64_t errors = 0;
};

struct LivePhase {
  std::vector<double> batch_us, pin_us, exec_us;
  std::vector<double> publish_ms, freeze_ms, lag_ms;
  uint64_t queries = 0, query_errors = 0;
  double reader_seconds = 0.0;
  double events = 0.0;
  Window writer;
  double flush_ms = 0.0;
  EngineCounts counts;
  query::QueryServiceStats service;
};

/// Closed-loop reader: pins the newest epoch and runs one mixed batch,
/// again and again until told to stop.
void ReadLoop(const query::QueryService& service, uint64_t seed, bool split,
              const std::atomic<bool>& stop, ReaderResult* out) {
  std::mt19937_64 rng(seed);
  query::WorkloadSpec spec;
  spec.station_count = kStations;
  spec.community_count = 2;
  spec.batch_size = kQueryBatch;
  while (!stop.load(std::memory_order_relaxed)) {
    const auto batch = query::MakeWorkloadBatch(spec, rng);
    const int64_t start = NowNs();
    auto pinned = service.Pin();
    const int64_t pinned_at = split ? NowNs() : 0;
    if (!pinned.ok()) {
      out->errors += batch.size();
      out->queries += batch.size();
      continue;
    }
    const auto outcome = service.ExecuteBatchOn(*pinned, batch);
    const int64_t end = NowNs();
    out->batch_us.push_back(static_cast<double>(end - start) / 1e3);
    if (split) {
      out->pin_us.push_back(static_cast<double>(pinned_at - start) / 1e3);
      out->exec_us.push_back(static_cast<double>(end - pinned_at) / 1e3);
    }
    out->queries += batch.size();
    for (const auto& answer : outcome.answers) out->errors += answer.ok() ? 0 : 1;
  }
}

/// Offers stream events [warm, n) open loop; events [0, warm) fill the first
/// window beforehand.
LivePhase RunLivePhase(const CityStream& city, size_t warm, size_t n,
                       uint64_t seed, const std::string& reference,
                       Tracer& tracer, Ops* ops) {
  LivePhase p;
  stream::StreamEngine engine(BaseConfig(city));
  query::QueryService service(engine);

  // Fill the first window unpaced and publish it, so readers start on a
  // full window and caches are warm before the clock starts.
  for (size_t i = 0; i < warm; ++i) ops->Ingest(engine, city.At(i));
  ops->report->Count(engine.Snapshot().status(), "Snapshot");
  uint64_t last_epoch = engine.publisher().epoch();

  std::atomic<bool> stop{false};
  std::vector<ReaderResult> reader_results(kReaders);
  std::vector<std::thread> readers;
  const int64_t readers_start = NowNs();
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back(ReadLoop, std::cref(service), seed * 31 + r,
                         tracer.enabled(), std::cref(stop), &reader_results[r]);
  }

  // Open-loop writer: event i is due i / rate seconds after t0, whatever
  // state the engine is in; an epoch tick is due every kPublishEveryNs.
  const double ns_per_event = 1e9 / kOfferedEventsPerSecond;
  const int64_t t0 = NowNs();
  const auto due = [&](size_t i) {
    return t0 + static_cast<int64_t>(static_cast<double>(i - warm) * ns_per_event);
  };
  int64_t next_tick = t0 + kPublishEveryNs;
  uint64_t epoch_group = 0, reuses = 0;
  p.lag_ms.reserve((n - warm) / kLagSampleEvery + 1);
  size_t i = warm;
  while (i < n) {
    int64_t now = NowNs();
    const int64_t burst_start = now;
    size_t burst = 0;
    // A writer that falls behind still publishes on cadence: the burst
    // yields to a due epoch tick.
    while (i < n && due(i) <= now) {
      if (i % kLagSampleEvery == 0) p.lag_ms.push_back(Ms(now - due(i)));
      ops->Ingest(engine, city.At(i));
      ++i;
      if ((++burst & 255) == 0 && (now = NowNs()) >= next_tick) break;
    }
    if (burst > 0) {
      now = NowNs();
      tracer.Add("stream.ingest", epoch_group, burst_start, now);
    }
    if (now >= next_tick) {
      const int64_t start = now;
      auto snapshot = engine.Snapshot();
      const int64_t end = NowNs();
      tracer.Add("stream.freeze", epoch_group, start, end);
      ops->report->Count(snapshot.status(), "Snapshot");
      if (snapshot.ok() && (*snapshot)->epoch != last_epoch) {
        last_epoch = (*snapshot)->epoch;
        p.publish_ms.push_back(Ms(end - next_tick));
        p.freeze_ms.push_back(Ms(end - start));
      } else {
        ++reuses;
      }
      while (next_tick <= end) next_tick += kPublishEveryNs;
      ++epoch_group;
      now = end;
    }
    const int64_t wake = i < n ? std::min(due(i), next_tick) : now;
    if (wake > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
      tracer.Add("gen.idle", epoch_group, now, NowNs());
    }
  }
  const int64_t t1 = NowNs();
  stop.store(true);
  for (auto& reader : readers) reader.join();
  p.reader_seconds = static_cast<double>(NowNs() - readers_start) / 1e9;
  p.writer = {t0, t1};
  p.events = static_cast<double>(n - warm);
  for (auto& r : reader_results) {
    p.batch_us.insert(p.batch_us.end(), r.batch_us.begin(), r.batch_us.end());
    p.pin_us.insert(p.pin_us.end(), r.pin_us.begin(), r.pin_us.end());
    p.exec_us.insert(p.exec_us.end(), r.exec_us.begin(), r.exec_us.end());
    p.queries += r.queries;
    p.query_errors += r.errors;
  }
  ops->report->attempted += p.queries;
  ops->report->failed += p.query_errors;
  p.service = service.stats();
  p.counts = CountsOf(engine, p.publish_ms.size() + 1, reuses);

  p.flush_ms = CheckFinalState(engine, n, ops->refused, reference, ops);
  return p;
}

double QueriesPerSecond(const LivePhase& p) {
  return static_cast<double>(p.queries) / p.reader_seconds;
}

}  // namespace

void RunLiveServe(const RunArgs& args, Report* report) {
  const CityStream city = SetUpStream(args.seed, kReplayDays, report);
  const size_t warm = static_cast<size_t>(kWindowDays) * kTripsPerDay;
  const size_t n =
      warm + static_cast<size_t>(kOfferedEventsPerSecond * args.seconds);
  const std::string reference = ReferenceSnapshot(city, n);
  Ops ops{report};

  ResetPeakRss();
  Tracer untraced(false);
  const LivePhase timed =
      RunLivePhase(city, warm, n, args.seed, reference, untraced, &ops);
  report->end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  report->Check(!timed.batch_us.empty() && !timed.publish_ms.empty(),
                "no reader batch or no epoch completed");
  const Tail tail = HighestTail(timed.batch_us);
  report->end_to_end["latency_p50_ms"] = {Median(timed.batch_us) / 1e3, "ms"};
  report->end_to_end["latency_tail_ms"] = {tail.value / 1e3, "ms"};
  report->end_to_end["throughput_per_s"] = {QueriesPerSecond(timed), "1/s"};
  const double offered_eps =
      timed.events / (static_cast<double>(timed.writer.second - timed.writer.first) / 1e9);
  report->Note("query batch tail = p" + FormatNumber(tail.percentile) + " of " +
               std::to_string(tail.count) + " batches");
  report->Note("offered " + FormatNumber(offered_eps) + " events/s (target " +
               FormatNumber(kOfferedEventsPerSecond) + "), " +
               std::to_string(timed.publish_ms.size()) + " epochs published");
  report->Note("publish_p50_ms = " + FormatNumber(Median(timed.publish_ms)) +
               ", publish_p99_ms = " + FormatNumber(Percentile(timed.publish_ms, 99)) +
               ", gen.lag_p99_ms = " + FormatNumber(Percentile(timed.lag_ms, 99)));
  if (!args.trace) return;

  Tracer tracer(true);
  const LivePhase traced =
      RunLivePhase(city, warm, n, args.seed, reference, tracer, &ops);
  const Attribution a = Attribute(tracer, {traced.writer});
  ReportAttribution(a, a.wall_ms, traced.events, QueriesPerSecond(timed),
                    QueriesPerSecond(traced), report);
  report->Layer("ingest_eps", offered_eps, "1/s");
  report->Layer("publish_p50_ms", Median(timed.publish_ms), "ms");
  report->Layer("publish_p99_ms", Percentile(timed.publish_ms, 99), "ms");
  report->Layer("query_p50_us", Median(timed.batch_us), "us");
  report->Layer("query_p99_us", Percentile(timed.batch_us, 99), "us");
  report->Layer("query_qps", QueriesPerSecond(timed), "1/s");
  report->Layer("stream.freeze_ms_p50", Median(traced.freeze_ms), "ms");
  report->Layer("stream.freeze_ms_p99", Percentile(traced.freeze_ms, 99), "ms");
  report->Layer("stream.flush_ms", traced.flush_ms, "ms");
  ReportCounts(traced.counts, report);
  const auto& s = traced.service;
  const double hits = static_cast<double>(s.community_memo_hits + s.pairs_memo_hits);
  const double misses =
      static_cast<double>(s.community_memo_misses + s.pairs_memo_misses);
  report->Layer("query.pin_us_p99", Percentile(traced.pin_us, 99), "us");
  report->Layer("query.exec_us_p50", Median(traced.exec_us), "us");
  report->Layer("query.exec_us_p99", Percentile(traced.exec_us, 99), "us");
  report->Layer("query.memo_hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  report->Layer("query.memo_misses", misses, "count");
  report->Layer("query.errors", static_cast<double>(traced.query_errors), "count");
  report->Layer("gen.lag_p99_ms", Percentile(traced.lag_ms, 99), "ms");
  tracer.WriteCsv(args.workdir + "/trace-live-serve-seed" +
                  std::to_string(args.seed) + ".csv");
}

// ---------------------------------------------------------------------------
// replay-durable and replay-sharded
// ---------------------------------------------------------------------------

namespace {

struct ReplayPhase {
  std::vector<double> eps;         // per pass
  std::vector<double> publish_ms;  // every publishing Snapshot()
  std::vector<double> checkpoint_ms, flush_ms, recover_s;
  std::vector<Window> windows;     // replay (+ recovery) sections
  double replay_ms = 0.0;          // replay sections only
  double events = 0.0;
  EngineCounts counts;
  double wal_records = 0, wal_bytes = 0, wal_retries = 0, checkpoint_bytes = 0,
         recover_replayed = 0, recover_truncated = 0;
};

/// Bytes of all WAL segments and of the newest checkpoint in `dir`. The
/// file names carry zero-padded sequence numbers, so the newest checkpoint
/// sorts last.
std::pair<uint64_t, uint64_t> DurableBytes(const fs::path& dir) {
  uint64_t wal = 0, checkpoint = 0;
  std::string newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) wal += entry.file_size();
    if (name.rfind("ckpt-", 0) == 0 && name > newest) {
      newest = name;
      checkpoint = entry.file_size();
    }
  }
  return {wal, checkpoint};
}

/// One closed-loop replay of the whole stream into a fresh engine.
void RunReplayPass(const CityStream& city, bool durable, const fs::path& dir,
                   const std::string& reference, Tracer& tracer, uint64_t pass,
                   ReplayPhase* p, Ops* ops) {
  stream::StreamEngineConfig config = BaseConfig(city);
  if (durable) {
    config.durability.enabled = true;
    config.durability.directory = dir.string();
    config.durability.sync_interval_records = kWalSyncEveryRecords;
  } else {
    config.shard_count = kReplayShards;
  }
  fs::remove_all(dir);
  auto engine = std::make_unique<stream::StreamEngine>(config);
  const uint64_t refused_before = ops->refused;

  const int64_t t0 = NowNs();
  int64_t burst_start = t0;
  int64_t next_tick = INT64_MIN;
  uint64_t epochs = 0, reuses = 0, last_epoch = 0;
  // Returns whether the call published a new epoch.
  const auto publish = [&] {
    const int64_t start = NowNs();
    tracer.Add("stream.ingest", pass, burst_start, start);
    auto snapshot = engine->Snapshot();
    const int64_t end = NowNs();
    tracer.Add("stream.freeze", pass, start, end);
    ops->report->Count(snapshot.status(), "Snapshot");
    if (snapshot.ok() && (*snapshot)->epoch != last_epoch) {
      last_epoch = (*snapshot)->epoch;
      ++epochs;
      p->publish_ms.push_back(Ms(end - start));
      burst_start = end;
      return true;
    }
    ++reuses;
    burst_start = end;
    return false;
  };
  for (const stream::TripEvent& e : city.events) {
    ops->Ingest(*engine, e);
    const int64_t t = e.start_time.seconds_since_epoch();
    if (t < next_tick) continue;
    if (next_tick != INT64_MIN) {
      if (publish() && durable && epochs % kCheckpointEveryEpochs == 0) {
        const int64_t start = NowNs();
        ops->report->Count(engine->Checkpoint(), "Checkpoint");
        const int64_t end = NowNs();
        tracer.Add("stream.checkpoint", pass, start, end);
        p->checkpoint_ms.push_back(Ms(end - start));
        burst_start = end;
      }
    }
    next_tick = (t / kReplayTickSeconds + 1) * kReplayTickSeconds;
  }
  if (!durable) {
    const int64_t start = NowNs();
    tracer.Add("stream.ingest", pass, burst_start, start);
    ops->report->Count(engine->Flush(), "Flush");
    const int64_t end = NowNs();
    tracer.Add("stream.flush", pass, start, end);
    p->flush_ms.push_back(Ms(end - start));
    burst_start = end;
    (void)publish();
  } else {
    tracer.Add("stream.ingest", pass, burst_start, NowNs());
  }
  const int64_t t1 = NowNs();
  p->windows.emplace_back(t0, t1);
  p->replay_ms += Ms(t1 - t0);
  p->events += static_cast<double>(city.events.size());
  p->eps.push_back(static_cast<double>(city.events.size()) /
                   (static_cast<double>(t1 - t0) / 1e9));
  p->counts = CountsOf(*engine, epochs, reuses);

  if (durable) {
    // Crash: drop the engine without Flush, then rebuild it from disk.
    const std::string at_crash =
        stream::SerializeCheckpoint(engine->CaptureState());
    p->wal_records = static_cast<double>(engine->wal_seq());
    p->wal_retries = static_cast<double>(engine->wal_retry_count());
    engine.reset();
    const auto [wal_bytes, checkpoint_bytes] = DurableBytes(dir);
    p->wal_bytes = static_cast<double>(wal_bytes);
    p->checkpoint_bytes = static_cast<double>(checkpoint_bytes);

    stream::StreamEngine::RecoveryStats stats;
    const int64_t r0 = NowNs();
    auto recovered = stream::StreamEngine::Recover(config, &stats);
    const int64_t r1 = NowNs();
    tracer.Add("stream.recover", pass, r0, r1);
    p->windows.emplace_back(r0, r1);
    p->recover_s.push_back(static_cast<double>(r1 - r0) / 1e9);
    ops->report->Count(recovered.status(), "Recover");
    if (!recovered.ok()) {
      ops->report->Check(false, "Recover failed");
      return;
    }
    engine = std::move(*recovered);
    ops->report->Verdict(CheckRecovered(
        at_crash, stream::SerializeCheckpoint(engine->CaptureState()),
        stats.replay_errors));
    p->recover_replayed = static_cast<double>(stats.replayed_records);
    p->recover_truncated = static_cast<double>(stats.truncated_bytes);
  }
  (void)CheckFinalState(*engine, city.events.size(),
                        ops->refused - refused_before, reference, ops);
  engine.reset();
  fs::remove_all(dir);
}

ReplayPhase RunReplayPhase(const CityStream& city, bool durable,
                           const RunArgs& args, const std::string& reference,
                           Tracer& tracer, Ops* ops) {
  ReplayPhase p;
  const fs::path dir = fs::path(args.workdir) /
                       ("wal-" + std::to_string(::getpid()));
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  uint64_t pass = 0;
  do {
    RunReplayPass(city, durable, dir, reference, tracer, pass++, &p, ops);
  } while (NowNs() < deadline);
  return p;
}

void RunReplay(const RunArgs& args, bool durable, Report* report) {
  const CityStream city = SetUpStream(args.seed, kReplayDays, report);
  const std::string reference = ReferenceSnapshot(city, city.events.size());
  Ops ops{report};

  ResetPeakRss();
  Tracer untraced(false);
  const ReplayPhase timed =
      RunReplayPhase(city, durable, args, reference, untraced, &ops);
  report->end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  const Tail tail = HighestTail(timed.publish_ms);
  report->end_to_end["latency_p50_ms"] = {Median(timed.publish_ms), "ms"};
  report->end_to_end["latency_tail_ms"] = {tail.value, "ms"};
  report->end_to_end["throughput_per_s"] = {Median(timed.eps), "1/s"};
  std::string per_pass;
  for (double eps : timed.eps) {
    per_pass += ' ';
    per_pass += FormatNumber(std::round(eps));
  }
  report->Note(std::to_string(timed.eps.size()) + " replay passes (events/s:" +
               per_pass + "); publish tail = p" + FormatNumber(tail.percentile) +
               " of " + std::to_string(tail.count) + " epochs");
  if (durable) {
    report->Note("recover_s = " + FormatNumber(Median(timed.recover_s)) + " s");
  }
  if (!args.trace) return;

  Tracer tracer(true);
  const ReplayPhase traced =
      RunReplayPhase(city, durable, args, reference, tracer, &ops);
  const Attribution a = Attribute(tracer, traced.windows);
  // Busy shares are of the replay sections; recovery is reported apart.
  ReportAttribution(a, traced.replay_ms, traced.events, Median(timed.eps),
                    Median(traced.eps), report);
  report->Layer("ingest_eps", Median(timed.eps), "1/s");
  report->Layer("publish_p50_ms", Median(timed.publish_ms), "ms");
  report->Layer("publish_p99_ms", Percentile(timed.publish_ms, 99), "ms");
  report->Layer("recover_s", Median(timed.recover_s), "s");
  report->Layer("stream.freeze_ms_p50", Median(traced.publish_ms), "ms");
  report->Layer("stream.freeze_ms_p99", Percentile(traced.publish_ms, 99), "ms");
  report->Layer("stream.flush_ms", Median(traced.flush_ms), "ms");
  ReportCounts(traced.counts, report);
  report->Layer("stream.wal_records", traced.wal_records, "count");
  report->Layer("stream.wal_bytes", traced.wal_bytes, "B");
  report->Layer("stream.wal_retries", traced.wal_retries, "count");
  report->Layer("stream.checkpoint_ms_p50", Median(traced.checkpoint_ms), "ms");
  report->Layer("stream.checkpoint_ms_p99", Percentile(traced.checkpoint_ms, 99), "ms");
  report->Layer("stream.checkpoint_bytes", traced.checkpoint_bytes, "B");
  report->Layer("stream.recover_replayed", traced.recover_replayed, "count");
  report->Layer("stream.recover_truncated_bytes", traced.recover_truncated, "B");
  tracer.WriteCsv(args.workdir + "/trace-replay-" +
                  (durable ? "durable" : "sharded") + "-seed" +
                  std::to_string(args.seed) + ".csv");
}

}  // namespace

void RunReplayDurable(const RunArgs& args, Report* report) {
  RunReplay(args, /*durable=*/true, report);
}

void RunReplaySharded(const RunArgs& args, Report* report) {
  RunReplay(args, /*durable=*/false, report);
}

}  // namespace perfbench
