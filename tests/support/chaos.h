#pragma once

#include <cstdint>
#include <vector>

#include "core/civil_time.h"
#include "stream/event.h"
#include "support/fault_io_env.h"

namespace bikegraph::stream {

/// \brief Knobs for the hostile-input stream generator. Every scenario is
/// independently toggleable so the chaos suite can isolate which hostile
/// pattern breaks an invariant; with all toggles off the generator emits
/// a well-behaved planted-community stream.
struct ChaosConfig {
  uint64_t seed = 1;
  /// Station universe; stations are split into `planted_communities`
  /// equal blocks and ~85% of trips stay inside their block, so
  /// detection over the hostile stream still has structure to find.
  size_t station_count = 48;
  size_t planted_communities = 4;
  /// Stream clock: events span `[start_seconds, start_seconds +
  /// duration_seconds)` with a watermark advance every
  /// `advance_interval_seconds`.
  int64_t start_seconds = 1'600'000'000;
  int64_t duration_seconds = 2 * 86'400;
  double events_per_second = 0.4;
  /// Must match the consuming engine's `max_lateness_seconds`: the
  /// boundary-flood scenario aims events exactly at the admission
  /// horizon `watermark - max_lateness`.
  int64_t max_lateness_seconds = 1800;
  int64_t advance_interval_seconds = 600;

  /// Demand surges: rate multiplies by 3–6x for 5–20 minutes.
  bool demand_surges = true;
  /// Station outages: a station goes silent for 30–120 minutes
  /// mid-stream (its would-be trips are suppressed).
  bool station_outages = true;
  /// Station additions: a quarter of the stations emit nothing until
  /// their activation time somewhere in the first half of the stream.
  bool station_additions = true;
  /// Clock skew: segments of 10–30 minutes during which every emitted
  /// start time is shifted by a constant ±15-minute offset, so events
  /// arrive consistently early or deeply late relative to the watermark.
  bool clock_skew = true;
  /// Duplicate storms: 1–5 minute bursts that re-deliver recent events
  /// verbatim (same rental_id) at roughly double the base rate.
  bool duplicate_storms = true;
  /// Late-event floods at the horizon boundary: bursts of 50–200 events
  /// whose start times sit within ±2 seconds of the admission cutoff,
  /// probing the exact boundary between "late" and "barely admitted".
  bool late_floods = true;
};

/// \brief One step of a chaos stream: an event to ingest or a watermark
/// to advance to.
struct ChaosAction {
  enum class Kind : uint8_t { kEvent, kAdvance };
  Kind kind = Kind::kEvent;
  TripEvent event{};      // kEvent
  CivilTime watermark{};  // kAdvance
};

/// \brief What the generator emitted, for the suite's invariant checks.
/// All counts describe the *generated* stream; the consuming engine's own
/// counters (late, duplicate, released) are what the invariants reconcile
/// against, so these stay descriptive rather than predictive.
struct ChaosStats {
  uint64_t events = 0;
  uint64_t advances = 0;
  uint64_t fresh_events = 0;  ///< events − duplicate_redeliveries
  uint64_t surge_events = 0;
  uint64_t outage_suppressed = 0;
  uint64_t skewed_events = 0;
  uint64_t duplicate_redeliveries = 0;
  uint64_t boundary_flood_events = 0;
  /// Events already below the admission horizon when emitted (the
  /// consuming engine will count them late).
  uint64_t intended_late = 0;
  // How many times each scenario fired.
  uint64_t surges = 0;
  uint64_t outages = 0;
  uint64_t additions = 0;
  uint64_t skew_segments = 0;
  uint64_t duplicate_storms = 0;
  uint64_t late_floods = 0;
  /// Peak number of emitted events whose start time was still above the
  /// admission horizon — an upper bound on how many events a correct
  /// reorder buffer may hold at once (the bounded-memory invariant).
  uint64_t max_events_in_horizon = 0;
};

struct ChaosStream {
  std::vector<ChaosAction> actions;
  ChaosStats stats;
};

/// \brief Generates a deterministic hostile event stream: same config →
/// same actions, byte for byte. See ChaosConfig for the scenario
/// catalogue and docs/STREAMING.md for how the chaos suite consumes it.
ChaosStream GenerateChaosStream(const ChaosConfig& config);

/// \brief Knobs for the randomized I/O fault dimension of the chaos
/// suite: seeded FaultPlans crossed with the kill-point recovery
/// machinery (tools/ci.sh --faults).
struct FaultChaosConfig {
  uint64_t seed = 1;
  /// Fault rules to draw (each targets one op with one fault kind over
  /// one call-index window; see FaultPlan).
  size_t rules = 4;
  /// Upper bound on consecutive injected failures per rule window.
  /// In transient-only mode a FaultPolicy with `max_retries >=
  /// max_burst` is guaranteed to ride out every drawn schedule.
  uint32_t max_burst = 3;
  /// Transient-only plans draw exclusively EINTR storms, short writes,
  /// and at most one bounded EAGAIN burst — faults a retrying writer
  /// must absorb without poisoning or degrading. Hostile plans (the
  /// default) add hard errors (EIO, EACCES, persistent ENOSPC), lying
  /// fsyncs, torn renames, and an optional small disk capacity; those
  /// may sink the run, and the invariant becomes "recovery is
  /// bit-identical or loudly failed".
  bool transient_only = false;
};

/// \brief Draws a deterministic FaultPlan from a seeded Rng: same config
/// → same plan. Rule windows are spaced (stride 60 on each op's call
/// index) so failure runs never chain across rules — which is what makes
/// the transient-only guarantee above provable rather than probabilistic.
FaultPlan MakeRandomFaultPlan(const FaultChaosConfig& config);

}  // namespace bikegraph::stream
