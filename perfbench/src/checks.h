// Correctness checks of the benchmark. Each returns an empty string when
// the output is right and a description of the defect otherwise; the
// self-test (selftest.cc) plants wrong outputs to prove each one fires.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "community/detector.h"
#include "expansion/final_network.h"
#include "graphdb/weighted_graph.h"
#include "stream/snapshot.h"

namespace perfbench {

/// Exact byte image of a weighted graph (node count, adjacency with weight
/// bit patterns, self loops, strengths, total weight).
std::string GraphBytes(const bikegraph::graphdb::WeightedGraph& graph);

/// Exact byte image of a published snapshot's content: bounds, trip count,
/// projection graph and station profiles. The epoch number is left out, so
/// engines that published a different number of epochs still compare.
std::string SnapshotBytes(const bikegraph::stream::WindowSnapshot& snapshot);

/// The three community experiments of one batch pass (GBasic, GDay, GHour).
struct Detections {
  std::array<bikegraph::graphdb::WeightedGraph, 3> graphs;
  std::array<bikegraph::community::CommunityResult, 3> results;
};

/// Fingerprint of a batch pass: the final network's stations and the three
/// partitions with their modularities.
uint64_t BatchFingerprint(const bikegraph::expansion::FinalNetwork& network,
                          const Detections& detections);

std::string CheckFingerprint(uint64_t expected, uint64_t actual);
/// Detect()'s modularity equals community::Modularity recomputed on the
/// same graph and partition.
std::string CheckModularity(const Detections& detections);
/// Cleaned rentals equal the final network's total trips.
std::string CheckTripsConserved(size_t cleaned_rentals, int64_t final_trips);
/// The GBasic graph equals the landmark-window freeze of the same trips.
std::string CheckGraphsEqual(const bikegraph::graphdb::WeightedGraph& batch,
                             const bikegraph::graphdb::WeightedGraph& stream);

/// Event accounting of one live run.
struct StreamCounts {
  uint64_t offered = 0;
  uint64_t ingested = 0;
  uint64_t late = 0;
  uint64_t duplicates = 0;
  uint64_t buffered_after_flush = 0;
};
std::string CheckConservation(const StreamCounts& counts);
/// The run's final snapshot is bit-identical to the reference replay's.
std::string CheckSnapshotMatches(const std::string& reference,
                                 const std::string& actual);
/// The recovered engine state serialises equal to the state at the crash.
std::string CheckRecovered(const std::string& state_at_crash,
                           const std::string& recovered_state,
                           uint64_t replay_errors);

}  // namespace perfbench
