#pragma once

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "geo/latlon.h"

namespace bikegraph::cluster {

/// \brief Linkage criterion for hierarchical agglomerative clustering.
///
/// The paper uses Complete linkage: the distance between two clusters is
/// the largest pairwise distance, so a cut at threshold t guarantees every
/// cluster has diameter <= t (Rule 1, the 100 m cluster boundary).
enum class Linkage { kSingle, kComplete, kAverage };

/// \brief One merge step of a dendrogram. Cluster ids: 0..n-1 are the input
/// points; merge i creates cluster n+i.
struct MergeStep {
  int32_t left;
  int32_t right;
  double distance;  ///< linkage distance at which the merge happened
};

/// \brief Full dendrogram produced by DenseHac.
struct Dendrogram {
  size_t point_count = 0;
  std::vector<MergeStep> merges;  ///< size point_count-1 for a full tree

  /// Cuts the dendrogram at `threshold`: merges with distance <= threshold
  /// are applied. Returns a cluster label per point (labels are dense,
  /// 0-based, ordered by first point occurrence).
  std::vector<int32_t> CutAt(double threshold) const;
};

/// \brief Exact O(n^2 log n) HAC over an explicit distance matrix
/// (Lance–Williams updates). Intended for small-to-medium inputs
/// (n up to a few thousand) and as the reference implementation the
/// scalable geo variant is tested against.
///
/// `distances` is a flat row-major n*n symmetric matrix.
Result<Dendrogram> DenseHac(const std::vector<double>& distances, size_t n,
                            Linkage linkage);

/// \brief Convenience: dense HAC over geographic points using the
/// Haversine metric (paper eq. 1).
Result<Dendrogram> DenseHacGeo(const std::vector<geo::LatLon>& points,
                               Linkage linkage);

/// \brief Scalable threshold-bounded complete-linkage HAC over geographic
/// points.
///
/// Produces exactly the clusters of DenseHacGeo(points, kComplete) cut at
/// `threshold_m`, but never materialises the O(n^2) matrix: only point
/// pairs within `threshold_m` (found via a spatial grid) can ever merge, so
/// the candidate structure is sparse. Complete linkage is computed by
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
