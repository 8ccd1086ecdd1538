#pragma once

#include "community/partition.h"
#include "graphdb/weighted_graph.h"

namespace bikegraph::community {

/// \brief Two-level map-equation codelength L(M) of a partition on an
/// undirected graph (Rosvall & Bergstrom 2008), with node visit rates
/// proportional to strength (no teleportation):
///
///   L = plogp(Σ_M q_M) − 2·Σ_M plogp(q_M) − Σ_i plogp(p_i)
///       + Σ_M plogp(q_M + Σ_{i∈M} p_i)
///
/// where p_i = strength_i / 2m and q_M is the probability of exiting
/// module M. Lower is better.
double MapEquationCodelength(const graphdb::WeightedGraph& graph,
                             const Partition& partition);

}  // namespace bikegraph::community
