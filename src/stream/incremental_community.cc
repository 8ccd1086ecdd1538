#include "stream/incremental_community.h"

namespace bikegraph::stream {

namespace {

/// Backends that don't honour CommunityOptions::initial_partition take
/// the cold path: a "warm" run there would be an ordinary cold run
/// reported (and, on escalation, re-run) under false pretences. The
/// capability comes from the algorithm registry, so new seedable
/// backends are picked up without touching this file.
bool SupportsWarmStart(community::AlgorithmId id) {
  for (const community::AlgorithmInfo& info :
       community::AlgorithmRegistry()) {
    if (info.id == id) return info.supports_warm_start;
  }
  return false;
}

}  // namespace

Result<RefreshOutcome> IncrementalCommunityTracker::Refresh(
    const graphdb::WeightedGraph& graph, const community::DetectSpec& spec) {
  RefreshOutcome outcome;
  const bool comparable =
      previous_partition_.has_value() &&
      previous_partition_->node_count() == graph.node_count();
  // Drained windows (no edge weight) carry no evidence for the seed's
  // communities: seeding would either be silently skipped (Louvain) or
  // just echo the seed (label propagation), so they run cold.
  const bool seedable = comparable && SupportsWarmStart(spec.algorithm) &&
                        graph.total_weight() > 0.0;
  const bool interval_due =
      policy_.full_refresh_interval > 0 &&
      (refresh_count_ + 1) %
              static_cast<uint64_t>(policy_.full_refresh_interval) ==
          0;

  const auto run = [&](bool with_seed) {
    community::DetectSpec run_spec;
    run_spec.algorithm = spec.algorithm;
    run_spec.options = spec.options;
    if (with_seed) {
      run_spec.options.initial_partition = *previous_partition_;
    } else {
      run_spec.options.initial_partition.reset();
    }
    return community::Detect(graph, run_spec);
  };

  if (seedable && !interval_due) {
    BIKEGRAPH_ASSIGN_OR_RETURN(outcome.result, run(/*with_seed=*/true));
    outcome.warm_started = true;
    outcome.nmi_drift = community::NormalizedMutualInformation(
        *previous_partition_, outcome.result.partition);
    const bool drifted = outcome.nmi_drift < policy_.min_nmi;
    const bool degraded = outcome.result.modularity + 1e-12 <
                          previous_modularity_ - kMaxModularityDrop;
    if (drifted || degraded) {
      BIKEGRAPH_ASSIGN_OR_RETURN(community::CommunityResult cold,
                                 run(/*with_seed=*/false));
      outcome.escalated = true;
      ++escalation_count_;
      // Portfolio pick: the cold run usually wins (that's why we
      // escalated), but when it lands in a worse optimum than the warm
      // result we already hold, publishing it would strictly lose
      // quality — keep the better of the two.
      if (cold.modularity >= outcome.result.modularity) {
        outcome.result = std::move(cold);
        outcome.warm_started = false;
      }
      outcome.nmi_drift = community::NormalizedMutualInformation(
          *previous_partition_, outcome.result.partition);
    }
  } else {
    BIKEGRAPH_ASSIGN_OR_RETURN(outcome.result, run(/*with_seed=*/false));
    if (comparable) {
      outcome.nmi_drift = community::NormalizedMutualInformation(
          *previous_partition_, outcome.result.partition);
    }
  }

  previous_partition_ = outcome.result.partition;
  previous_modularity_ = outcome.result.modularity;
  outcome.refresh_count = ++refresh_count_;
  return outcome;
}

void IncrementalCommunityTracker::Reset() {
  previous_partition_.reset();
  previous_modularity_ = 0.0;
  // The refresh counter also phases the full_refresh_interval cadence:
  // leaving it at its pre-reset value would carry the old schedule across
  // the reset, making the first interval after a reset shorter (or
  // longer) than configured. A reset starts the tracker's life over.
  refresh_count_ = 0;
  escalation_count_ = 0;
}

}  // namespace bikegraph::stream
