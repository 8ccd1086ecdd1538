#pragma once

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "geo/latlon.h"

namespace bikegraph::cluster {

/// \brief Scalable threshold-bounded complete-linkage HAC over geographic
/// points.
///
/// Produces exactly the clusters of dense complete-linkage HAC over the
/// Haversine distance matrix cut at `threshold_m` (the reference in
/// tests/support/dense_hac.h), but never materialises the O(n^2) matrix:
/// only point pairs within `threshold_m` (found via a spatial grid) can
/// ever merge, so the candidate structure is sparse. Complete linkage is computed by
/// Lance–Williams max-updates over sparse neighbour lists; pairs that
/// leave the threshold are dropped (they can never merge again, because
/// complete-linkage distances only grow).
///
/// Components: points in different connected components of the "within
/// `threshold_m`" graph can never merge, so the merge loop runs on each
/// component separately. The components are spread over
/// std::thread::hardware_concurrency() workers (the calling thread is one
/// of them), largest first by pair count, each to the least-loaded
/// worker. Workers never allocate: the calling thread sizes every buffer
/// before they start (a component with P pairs needs a neighbour array of
/// exactly 2P entries and a heap of at most P; see MergeComponent in
/// hac.cc for the bounds), and each worker writes only its components'
/// slices.
///
/// Determinism: the labels do not depend on the worker count or the
/// schedule. Inside a component, points get local ids in global index
/// order and merged clusters get ids in creation order; both maps preserve
/// the order of cluster ids, so every (distance, a, b) comparison, and
/// hence every merge, is the one a single global merge loop would make.
/// Labels are dense and ordered by first point occurrence.
///
/// Complexity: O(n + P log P) work with P = number of point pairs within
/// `threshold_m`; the wall time is bounded below by the largest
/// component. Returns a cluster label per point, or InvalidArgument for a
/// non-finite or negative threshold or an invalid coordinate.
Result<std::vector<int32_t>> ThresholdCompleteLinkage(
    const std::vector<geo::LatLon>& points, double threshold_m);

}  // namespace bikegraph::cluster
