#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "community/modularity.h"

namespace perfbench {
namespace {

using bikegraph::graphdb::WeightedGraph;

template <typename T>
void Append(std::string* out, const T& value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string GraphBytes(const WeightedGraph& graph) {
  std::string out;
  Append(&out, graph.node_count());
  for (size_t u = 0; u < graph.node_count(); ++u) {
    const auto node = static_cast<int32_t>(u);
    Append(&out, graph.degree(node));
    for (const WeightedGraph::Neighbor& n : graph.neighbors(node)) {
      Append(&out, n.node);
      Append(&out, n.weight);
    }
    Append(&out, graph.self_weight(node));
    Append(&out, graph.strength(node));
  }
  Append(&out, graph.total_weight());
  return out;
}

std::string SnapshotBytes(const bikegraph::stream::WindowSnapshot& snapshot) {
  std::string out;
  Append(&out, snapshot.window_start.seconds_since_epoch());
  Append(&out, snapshot.window_end.seconds_since_epoch());
  Append(&out, snapshot.trip_count);
  out += GraphBytes(snapshot.graph);
  for (const auto& day : snapshot.profiles.day) Append(&out, day);
  for (const auto& hour : snapshot.profiles.hour) Append(&out, hour);
  return out;
}

uint64_t BatchFingerprint(const bikegraph::expansion::FinalNetwork& network,
                          const Detections& detections) {
  std::string bytes;
  for (const auto& station : network.stations) {
    Append(&bytes, station.position.lat);
    Append(&bytes, station.position.lon);
    Append(&bytes, station.pre_existing);
    Append(&bytes, station.candidate_index);
  }
  for (const auto& result : detections.results) {
    for (int32_t label : result.partition.assignment) Append(&bytes, label);
    Append(&bytes, result.modularity);
  }
  return Fnv1a(bytes);
}

std::string CheckFingerprint(uint64_t expected, uint64_t actual) {
  if (expected == actual) return "";
  return "batch pass fingerprint " + std::to_string(actual) +
         " differs from the first pass's " + std::to_string(expected);
}

std::string CheckModularity(const Detections& detections) {
  for (size_t i = 0; i < detections.results.size(); ++i) {
    const auto& result = detections.results[i];
    const double recomputed = bikegraph::community::Modularity(
        detections.graphs[i], result.partition);
    // Detect() sums in its own order; allow only rounding-level slack.
    if (!(std::fabs(recomputed - result.modularity) <=
          1e-12 * std::max(1.0, std::fabs(recomputed)))) {
      return "graph " + std::to_string(i) + ": Detect modularity " +
             std::to_string(result.modularity) + " != recomputed " +
             std::to_string(recomputed);
    }
  }
  return "";
}

std::string CheckTripsConserved(size_t cleaned_rentals, int64_t final_trips) {
  if (final_trips >= 0 && static_cast<size_t>(final_trips) == cleaned_rentals) {
    return "";
  }
  return "final network holds " + std::to_string(final_trips) +
         " trips, cleaned dataset " + std::to_string(cleaned_rentals);
}

std::string CheckGraphsEqual(const WeightedGraph& batch,
                             const WeightedGraph& stream) {
  if (GraphBytes(batch) == GraphBytes(stream)) return "";
  return "GBasic graph differs from the landmark stream freeze";
}

std::string CheckConservation(const StreamCounts& c) {
  if (c.ingested + c.late + c.duplicates != c.offered) {
    return "ingested " + std::to_string(c.ingested) + " + late " +
           std::to_string(c.late) + " + duplicate " +
           std::to_string(c.duplicates) + " != offered " +
           std::to_string(c.offered);
  }
  if (c.buffered_after_flush != 0) {
    return std::to_string(c.buffered_after_flush) +
           " events still buffered after Flush";
  }
  return "";
}

std::string CheckSnapshotMatches(const std::string& reference,
                                 const std::string& actual) {
  if (reference == actual) return "";
  return "final snapshot differs from the single-writer reference replay";
}

std::string CheckRecovered(const std::string& state_at_crash,
                           const std::string& recovered_state,
                           uint64_t replay_errors) {
  if (replay_errors != 0) {
    return std::to_string(replay_errors) + " WAL records failed on replay";
  }
  if (state_at_crash != recovered_state) {
    return "recovered engine state differs from the state at the crash";
  }
  return "";
}

}  // namespace perfbench
