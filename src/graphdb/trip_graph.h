#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/status.h"

namespace bikegraph::graphdb {

/// \brief One rental as a directed relationship between two nodes, with
/// the start day and hour the paper attaches to every trip (§IV-C).
struct Trip {
  int32_t from;
  int32_t to;
  uint8_t day;   ///< 0 = Monday ... 6 = Sunday
  uint8_t hour;  ///< 0-23
};

/// \brief The trip multigraph: the library's substitute for the paper's
/// Neo4j store, in which stations are nodes and every rental is one
/// relationship carrying its day and hour.
///
/// Nodes are the dense ids [0, node_count()); their data lives in the
/// caller's station or candidate vector. Trips keep insertion order, may
/// be parallel and may be loops. AddTrip range-checks every field, so a
/// reader can index day- and hour-arrays with a trip's fields directly.
class TripGraph {
 public:
  TripGraph() = default;
  explicit TripGraph(size_t node_count) : node_count_(node_count) {}

  /// InvalidArgument for an endpoint outside [0, node_count()), a day
  /// outside 0-6 or an hour outside 0-23.
  Status AddTrip(int32_t from, int32_t to, int day, int hour);

  size_t node_count() const { return node_count_; }
  const std::vector<Trip>& trips() const { return trips_; }

 private:
  size_t node_count_ = 0;
  std::vector<Trip> trips_;
};

}  // namespace bikegraph::graphdb
