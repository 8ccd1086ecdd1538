#pragma once

#include <cstdint>
#include <optional>

#include "core/result.h"
#include "community/detector.h"
#include "graphdb/weighted_graph.h"

namespace bikegraph::stream {

/// \brief A warm refresh escalates to a full re-detect when its modularity
/// drops more than this below the previous window's (warm starts can only
/// get stuck in the seed's local optimum; a full run is the way out).
inline constexpr double kMaxModularityDrop = 0.02;

/// \brief When to abandon a warm-started refresh and re-detect from
/// scratch. Thresholds compare the warm result against the previous
/// window's published result — the portfolio framing: keep both refresh
/// strategies and pick per window.
struct RefreshPolicy {
  /// Escalate when NMI(previous partition, warm partition) falls below
  /// this: the community structure moved too far for the seed to be
  /// trusted as a basin of attraction.
  double min_nmi = 0.70;
  /// Force a full re-detect every N refreshes regardless of drift
  /// (0 = never). This is the escape hatch from a degraded seed basin:
  /// seeded Louvain can merge but never *split* the seed's communities,
  /// so a stream whose structure splits between windows can drift
  /// slowly enough that neither threshold above ever fires while every
  /// window publishes a stale merged partition. A bounded default caps
  /// that staleness at N windows.
  int full_refresh_interval = 16;
};

/// \brief What one refresh did, and the drift it measured.
struct RefreshOutcome {
  /// The partition to publish for this window (warm or escalated-full).
  community::CommunityResult result;
  /// True when the *published* result came from a warm-started run (can
  /// stay true under escalation if the cold run scored worse).
  bool warm_started = false;
  /// True when policy escalated to a full re-detect; the better-scoring
  /// of the warm and cold runs is published (ties go to the cold run —
  /// the portfolio pick).
  bool escalated = false;
  /// NMI between the previous window's partition and `result.partition`;
  /// 1.0 when there was no comparable previous partition.
  double nmi_drift = 1.0;
  /// Refreshes performed so far, this one included.
  uint64_t refresh_count = 0;
};

/// \brief An IncrementalCommunityTracker's complete state, for
/// checkpointing: the remembered seed partition and the counters that
/// phase the full_refresh_interval cadence.
struct TrackerState {
  uint64_t refresh_count = 0;
  uint64_t escalation_count = 0;
  double previous_modularity = 0.0;
  std::optional<community::Partition> previous_partition;
};

/// \brief Warm-start community refresh across consecutive window
/// snapshots.
///
/// The tracker remembers the previous window's partition and modularity.
/// Each `Refresh` seeds the configured algorithm with the previous
/// partition (`CommunityOptions::initial_partition` — supported by the
/// Louvain and label-propagation backends; algorithms without warm-start
/// support always take the cold path, reported as `warm_started = false`
/// and never escalated), measures NMI drift between the consecutive
/// partitions, and escalates to a full re-detect when the RefreshPolicy
/// says the warm result is no longer trustworthy. The first refresh, and
/// any refresh after the station universe changes size, is always a full
/// detect.
class IncrementalCommunityTracker {
 public:
  explicit IncrementalCommunityTracker(RefreshPolicy policy = {})
      : policy_(policy) {}

  /// Refreshes the community structure for `graph` using `spec`. The
  /// spec's own `initial_partition` is ignored — the tracker manages the
  /// seed.
  Result<RefreshOutcome> Refresh(const graphdb::WeightedGraph& graph,
                                 const community::DetectSpec& spec);

  /// Drops the remembered partition and zeroes the refresh/escalation
  /// counters: the next Refresh runs cold and the full_refresh_interval
  /// cadence restarts from it, exactly as on a freshly constructed
  /// tracker.
  void Reset();

  const RefreshPolicy& policy() const { return policy_; }
  /// Previous accepted partition (empty before the first refresh).
  const std::optional<community::Partition>& previous_partition() const {
    return previous_partition_;
  }
  uint64_t refresh_count() const { return refresh_count_; }
  uint64_t escalation_count() const { return escalation_count_; }

  /// Copies out the tracker's state (checkpointing).
  TrackerState ExportState() const {
    return TrackerState{refresh_count_, escalation_count_,
                        previous_modularity_, previous_partition_};
  }

  /// Replaces the tracker's state (recovery): the next Refresh seeds
  /// from the restored partition and continues the restored
  /// full_refresh_interval phase, exactly as the uninterrupted run
  /// would have.
  void RestoreState(TrackerState state) {
    refresh_count_ = state.refresh_count;
    escalation_count_ = state.escalation_count;
    previous_modularity_ = state.previous_modularity;
    previous_partition_ = std::move(state.previous_partition);
  }

 private:
  RefreshPolicy policy_;
  std::optional<community::Partition> previous_partition_;
  double previous_modularity_ = 0.0;
  uint64_t refresh_count_ = 0;
  uint64_t escalation_count_ = 0;
};

}  // namespace bikegraph::stream
