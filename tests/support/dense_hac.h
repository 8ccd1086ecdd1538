#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/checked_cast.h"
#include "geo/haversine.h"
#include "geo/latlon.h"

namespace bikegraph::cluster {

/// \brief Dense complete-linkage HAC over the Haversine distance matrix
/// (paper eq. 1), cut at `threshold_m`: the O(n^2)-memory reference that
/// ThresholdCompleteLinkage must reproduce partition for partition.
///
/// The merge loop keeps a nearest-neighbour candidate per active slot,
/// always merges the globally closest pair (ties to the smaller slot) and
/// applies the Lance–Williams complete-linkage update max(d(a,k), d(b,k)).
/// The cut applies a merge only when its distance is <= `threshold_m` and
/// both merged clusters were themselves kept whole. Labels are dense,
/// 0-based and ordered by first point occurrence. Test-only: meant for a
/// few hundred points.
inline std::vector<int32_t> DenseCompleteLinkageCut(
    const std::vector<geo::LatLon>& points, double threshold_m) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t n = points.size();
  if (n == 0) return {};

  // Per-point cos(latitude) once: the matrix fill then pays two sin calls
  // per pair instead of two sin and two cos.
  std::vector<double> cos_lat(n);
  for (size_t i = 0; i < n; ++i) {
    cos_lat[i] = std::cos(geo::DegToRad(points[i].lat));
  }
  std::vector<double> d(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double dist = geo::HaversineMetersWithCos(
          points[i], points[j], cos_lat[i], cos_lat[j]);
      d[i * n + j] = dist;
      d[j * n + i] = dist;
    }
  }
  auto at = [&](size_t i, size_t j) -> double& { return d[i * n + j]; };

  // Merge i creates dendrogram cluster n+i from clusters `left`/`right`.
  struct MergeStep {
    int32_t left;
    int32_t right;
    double distance;
  };
  std::vector<MergeStep> merges;
  std::vector<bool> active(n, true);
  std::vector<int32_t> dendro_id(n);  // slot -> dendrogram cluster id
  for (size_t i = 0; i < n; ++i) dendro_id[i] = static_cast<int32_t>(i);

  // Nearest-neighbour candidate list per active slot.
  std::vector<size_t> nn(n, SIZE_MAX);
  std::vector<double> nn_dist(n, kInf);
  auto recompute_nn = [&](size_t i) {
    nn[i] = SIZE_MAX;
    nn_dist[i] = kInf;
    for (size_t j = 0; j < n; ++j) {
      if (j == i || !active[j]) continue;
      const double dij = at(i, j);
      if (dij < nn_dist[i] || (dij == nn_dist[i] && j < nn[i])) {
        nn_dist[i] = dij;
        nn[i] = j;
      }
    }
  };
  for (size_t i = 0; i < n; ++i) recompute_nn(i);

  for (size_t merge_round = 0; merge_round + 1 < n; ++merge_round) {
    // Global minimum over the candidate list.
    size_t best = SIZE_MAX;
    for (size_t i = 0; i < n; ++i) {
      if (!active[i] || nn[i] == SIZE_MAX) continue;
      if (best == SIZE_MAX || nn_dist[i] < nn_dist[best] ||
          (nn_dist[i] == nn_dist[best] && i < best)) {
        best = i;
      }
    }
    if (best == SIZE_MAX) break;
    size_t a = best;
    size_t b = nn[best];
    if (a > b) std::swap(a, b);
    const double merge_dist = at(a, b);
    if (!std::isfinite(merge_dist)) break;

    merges.push_back(MergeStep{dendro_id[a], dendro_id[b], merge_dist});
    const auto new_id = static_cast<int32_t>(n + merges.size() - 1);

    // Lance–Williams complete-linkage update into slot a; retire slot b.
    for (size_t k = 0; k < n; ++k) {
      if (!active[k] || k == a || k == b) continue;
      const double dnew = std::max(at(a, k), at(b, k));
      at(a, k) = dnew;
      at(k, a) = dnew;
    }
    active[b] = false;
    dendro_id[a] = new_id;

    // Refresh the candidate lists that touch a or b.
    recompute_nn(a);
    for (size_t k = 0; k < n; ++k) {
      if (!active[k] || k == a) continue;
      if (nn[k] == a || nn[k] == b) {
        recompute_nn(k);
      } else if (at(k, a) < nn_dist[k]) {
        nn[k] = a;
        nn_dist[k] = at(k, a);
      }
    }
  }

  // Cut: union-find over dendrogram ids. `intact[c]` marks clusters whose
  // internal merges were all applied; a merge is applied only when both
  // children are intact.
  const size_t ids = n + merges.size();
  std::vector<int32_t> parent(ids);
  for (size_t i = 0; i < ids; ++i) parent[i] = static_cast<int32_t>(i);
  auto find = [&](int32_t x) {
    while (parent[AsIndex(x)] != x) {
      parent[AsIndex(x)] = parent[AsIndex(parent[AsIndex(x)])];
      x = parent[AsIndex(x)];
    }
    return x;
  };
  auto unite = [&](int32_t x, int32_t y) {
    parent[AsIndex(find(x))] = find(y);
  };
  std::vector<bool> intact(ids, true);
  for (size_t i = 0; i < merges.size(); ++i) {
    const MergeStep& m = merges[i];
    const auto merged = static_cast<int32_t>(n + i);
    if (m.distance <= threshold_m && intact[AsIndex(m.left)] &&
        intact[AsIndex(m.right)]) {
      unite(m.left, merged);
      unite(m.right, merged);
    } else {
      intact[AsIndex(merged)] = false;
    }
  }
  std::vector<int32_t> labels(n, -1);
  std::vector<int32_t> remap(ids, -1);
  int32_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t root = find(static_cast<int32_t>(i));
    if (remap[AsIndex(root)] < 0) remap[AsIndex(root)] = next++;
    labels[i] = remap[AsIndex(root)];
  }
  return labels;
}

}  // namespace bikegraph::cluster
