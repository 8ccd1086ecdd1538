#include "cluster/hac.h"

// lint: thread-ok: ThresholdCompleteLinkage runs independent
// geo-components on worker threads that each own disjoint slices of
// buffers sized before they start; the calling thread joins them before
// reading any result. Covered by the TSan gate's `cluster` suites.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <span>
#include <thread>

#include "geo/grid_index.h"

#include "core/checked_cast.h"

namespace bikegraph::cluster {

namespace {

/// Union-find with path compression.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<int32_t>(i);
  }
  int32_t Find(int32_t x) {
    while (parent_[AsIndex(x)] != x) {
      parent_[AsIndex(x)] = parent_[AsIndex(parent_[AsIndex(x)])];
      x = parent_[AsIndex(x)];
    }
    return x;
  }
  void Union(int32_t a, int32_t b) { parent_[AsIndex(Find(a))] = Find(b); }

 private:
  std::vector<int32_t> parent_;
};

/// A candidate merge of clusters `a` < `b` at complete-linkage distance
/// `dist`. The merge loop always takes the smallest live pair in
/// (dist, a, b) order.
struct Pair {
  double dist;
  int32_t a, b;
  bool operator<(const Pair& o) const {
    if (dist != o.dist) return dist < o.dist;
    if (a != o.a) return a < o.a;
    return b < o.b;
  }
  bool operator>(const Pair& o) const { return o < *this; }
};

/// One neighbour-list entry: a within-threshold cluster and its distance.
struct Neighbor {
  int32_t slot;
  double dist;
};

/// Per-slot state of the merge loop. A slot's neighbours are the entries
/// [begin, begin + len) of the component's neighbour array, whose region
/// holds `cap` entries.
struct Slot {
  size_t begin = 0;
  int32_t len = 0;
  int32_t cap = 0;
  int32_t parent = 0;  ///< union-find link to the slot it merged into
  uint32_t mark = 0;   ///< intersection stamp (see MergeComponent)
  double dist_to = 0.0;
};

/// One connected component of the "within threshold" graph: a range of
/// the pair array and a range of 2 * point_count slots.
struct Component {
  int32_t point_count = 0;
  size_t pair_count = 0;
  size_t pair_begin = 0;
  size_t slot_begin = 0;
};

/// Runs the threshold complete-linkage merge loop over one component with
/// local point ids 0..n-1 and within-threshold `pairs`. Slots n.. are the
/// merged clusters in creation order. On return, slots[i].parent is the
/// root slot of point i.
///
/// Never allocates: `nbrs` holds exactly 2 * pairs.size() entries, `heap`
/// at least pairs.size(), `slots` and `active` 2 * n. The bounds hold
/// because:
///  - Let Φ be the number of live pairs. A merge of a and b removes the
///    deg(a) + deg(b) - 1 pairs touching them and adds |merged|, which is
///    at most deg(a) - 1 and at most deg(b) - 1, so Φ falls by at least
///    1 + |merged|. Hence Σ|merged| < pairs.size(): the heap never holds
///    more entries than that.
///  - The new slot c takes over a's region: |merged| <= deg(a) - 1 <=
///    a's region size. A neighbour k that gains c held entries for both a
///    and b, now dead, so compacting k's full region frees room for c.
void MergeComponent(int32_t n, double threshold_m, std::span<Pair> pairs,
                    std::span<Neighbor> nbrs, std::span<Pair> heap,
                    std::span<Slot> slots, std::span<char> active) {
  // The initial pairs are sorted once and consumed by index: skipping a
  // stale entry is O(1) instead of a heap pop, and most entries go stale
  // before they surface. Only merge-generated pairs need the heap.
  std::sort(pairs.begin(), pairs.end());
  for (int32_t i = 0; i < n; ++i) {
    slots[AsIndex(i)] = Slot{};
    slots[AsIndex(i)].parent = i;
    active[AsIndex(i)] = 1;
  }
  for (const Pair& p : pairs) {
    ++slots[AsIndex(p.a)].cap;
    ++slots[AsIndex(p.b)].cap;
  }
  size_t offset = 0;
  for (int32_t i = 0; i < n; ++i) {
    slots[AsIndex(i)].begin = offset;
    offset += AsIndex(slots[AsIndex(i)].cap);
  }
  auto append = [&nbrs](Slot& s, int32_t slot, double dist) {
    nbrs[s.begin + AsIndex(s.len++)] = Neighbor{slot, dist};
  };
  for (const Pair& p : pairs) {
    append(slots[AsIndex(p.a)], p.b, p.dist);
    append(slots[AsIndex(p.b)], p.a, p.dist);
  }

  // A pair is valid iff both slots are still active: the complete-linkage
  // distance between two clusters never changes while both survive, and
  // slot ids are never reused. Neighbour entries of dead slots are skipped
  // on read and dropped when a full region is compacted.
  auto live = [&active](const Pair& p) {
    return active[AsIndex(p.a)] && active[AsIndex(p.b)];
  };
  size_t next_initial = 0;
  size_t heap_size = 0;
  int32_t next_slot = n;
  uint32_t stamp = 0;
  while (true) {
    while (next_initial < pairs.size() && !live(pairs[next_initial])) {
      ++next_initial;
    }
    while (heap_size > 0 && !live(heap[0])) {
      std::pop_heap(heap.data(), heap.data() + heap_size, std::greater<>{});
      --heap_size;
    }
    Pair top;
    if (next_initial < pairs.size() &&
        (heap_size == 0 || pairs[next_initial] < heap[0])) {
      top = pairs[next_initial++];
    } else if (heap_size > 0) {
      top = heap[0];
      std::pop_heap(heap.data(), heap.data() + heap_size, std::greater<>{});
      --heap_size;
    } else {
      break;
    }

    // Merge slots a and b into the new slot c.
    const int32_t a = top.a, b = top.b, c = next_slot++;
    active[AsIndex(a)] = active[AsIndex(b)] = 0;
    active[AsIndex(c)] = 1;
    slots[AsIndex(a)].parent = slots[AsIndex(b)].parent = c;

    // Complete linkage: d(c,k) = max(d(a,k), d(b,k)); k must be a
    // within-threshold neighbour of BOTH a and b, otherwise d(c,k) exceeds
    // the threshold and the pair is dropped forever. a's live neighbours
    // get this merge's stamp; b's list then finds the intersection, and
    // the result overwrites a's region, which is fully read by then.
    ++stamp;
    const Slot& sa = slots[AsIndex(a)];
    const Slot& sb = slots[AsIndex(b)];
    for (size_t e = sa.begin; e < sa.begin + AsIndex(sa.len); ++e) {
      if (!active[AsIndex(nbrs[e].slot)]) continue;
      Slot& sk = slots[AsIndex(nbrs[e].slot)];
      sk.mark = stamp;
      sk.dist_to = nbrs[e].dist;
    }
    int32_t merged = 0;
    for (size_t e = sb.begin; e < sb.begin + AsIndex(sb.len); ++e) {
      Slot& sk = slots[AsIndex(nbrs[e].slot)];
      if (sk.mark != stamp) continue;
      sk.mark = 0;  // consume so nothing can match twice
      const double dck = std::max(sk.dist_to, nbrs[e].dist);
      if (dck > threshold_m) continue;
      nbrs[sa.begin + AsIndex(merged++)] = Neighbor{nbrs[e].slot, dck};
    }
    Slot& sc = slots[AsIndex(c)];
    sc = Slot{};
    sc.begin = sa.begin;
    sc.len = merged;
    sc.cap = sa.cap;
    sc.parent = c;

    // Tell the surviving neighbours about c and push the new pairs.
    for (size_t e = sc.begin; e < sc.begin + AsIndex(merged); ++e) {
      const Neighbor kc = nbrs[e];
      Slot& sk = slots[AsIndex(kc.slot)];
      if (sk.len == sk.cap) {
        int32_t kept = 0;
        for (size_t f = sk.begin; f < sk.begin + AsIndex(sk.len); ++f) {
          if (active[AsIndex(nbrs[f].slot)]) {
            nbrs[sk.begin + AsIndex(kept++)] = nbrs[f];
          }
        }
        sk.len = kept;
        assert(sk.len < sk.cap && "a compacted region has room for c");
      }
      append(sk, c, kc.dist);
      assert(heap_size < heap.size() && "the heap bound holds");
      heap[heap_size++] = Pair{kc.dist, kc.slot, c};
      std::push_heap(heap.data(), heap.data() + heap_size, std::greater<>{});
    }
  }

  // Point each point straight at its root (path halving on the way).
  for (int32_t i = 0; i < n; ++i) {
    int32_t x = i;
    while (slots[AsIndex(x)].parent != x) {
      Slot& sx = slots[AsIndex(x)];
      sx.parent = slots[AsIndex(sx.parent)].parent;
      x = sx.parent;
    }
    slots[AsIndex(i)].parent = x;
  }
}

}  // namespace

Result<std::vector<int32_t>> ThresholdCompleteLinkage(
    const std::vector<geo::LatLon>& points, double threshold_m) {
  const size_t n = points.size();
  if (!std::isfinite(threshold_m) || threshold_m < 0.0) {
    return Status::InvalidArgument("threshold must be finite and >= 0");
  }
  if (n == 0) return std::vector<int32_t>{};

  // Sparse candidate pairs from the grid: only pairs within threshold can
  // ever merge under complete linkage. The same sweep unions the points
  // into geo-components, which never merge with each other.
  geo::GridIndex grid(std::max(threshold_m, 1.0));
  for (size_t i = 0; i < n; ++i) {
    if (!points[i].IsValid()) {
      return Status::InvalidArgument("invalid coordinate at index " +
                                     std::to_string(i));
    }
    grid.Add(static_cast<int64_t>(i), points[i]);
  }
  std::vector<Pair> pairs;
  UnionFind linked(n);
  grid.ForEachPairWithinRadius(
      threshold_m, [&](int64_t a64, int64_t b64, double dist) {
        const int32_t i = static_cast<int32_t>(std::min(a64, b64));
        const int32_t j = static_cast<int32_t>(std::max(a64, b64));
        pairs.push_back(Pair{dist, i, j});
        linked.Union(i, j);
      });

  // Components are numbered by their first point, and each point gets a
  // local id in global index order.
  std::vector<Component> comps;
  std::vector<int32_t> comp_of(n), local_of(n);
  {
    std::vector<int32_t> comp_of_root(n, -1);
    for (size_t i = 0; i < n; ++i) {
      const int32_t root = linked.Find(static_cast<int32_t>(i));
      int32_t& id = comp_of_root[AsIndex(root)];
      if (id < 0) {
        id = static_cast<int32_t>(comps.size());
        comps.emplace_back();
      }
      comp_of[i] = id;
      local_of[i] = comps[AsIndex(id)].point_count++;
    }
  }
  for (const Pair& p : pairs) {
    ++comps[AsIndex(comp_of[AsIndex(p.a)])].pair_count;
  }
  size_t pair_offset = 0, slot_offset = 0;
  for (Component& comp : comps) {
    comp.pair_begin = pair_offset;
    comp.slot_begin = slot_offset;
    pair_offset += comp.pair_count;
    slot_offset += 2 * AsIndex(comp.point_count);
  }

  // Group the pairs by component in place (a cycle-leader bucket
  // permutation), then rename their endpoints to local ids.
  {
    std::vector<size_t> fill(comps.size());
    for (size_t c = 0; c < comps.size(); ++c) fill[c] = comps[c].pair_begin;
    for (size_t c = 0; c < comps.size(); ++c) {
      const size_t end = comps[c].pair_begin + comps[c].pair_count;
      while (fill[c] < end) {
        Pair p = pairs[fill[c]];
        for (size_t dest = AsIndex(comp_of[AsIndex(p.a)]); dest != c;
             dest = AsIndex(comp_of[AsIndex(p.a)])) {
          std::swap(p, pairs[fill[dest]++]);
        }
        pairs[fill[c]++] = p;
      }
    }
  }
  for (Pair& p : pairs) {
    p.a = local_of[AsIndex(p.a)];
    p.b = local_of[AsIndex(p.b)];
  }

  // Static largest-first assignment of the components that have pairs:
  // each goes to the least-loaded worker, load counted in pairs. A worker
  // reuses one heap buffer, sized for the largest component it owns.
  std::vector<int32_t> work;
  for (size_t c = 0; c < comps.size(); ++c) {
    if (comps[c].pair_count > 0) work.push_back(static_cast<int32_t>(c));
  }
  std::sort(work.begin(), work.end(), [&comps](int32_t x, int32_t y) {
    const size_t px = comps[AsIndex(x)].pair_count;
    const size_t py = comps[AsIndex(y)].pair_count;
    return px != py ? px > py : x < y;
  });
  const size_t workers = std::max<size_t>(
      1, std::min<size_t>(std::thread::hardware_concurrency(), work.size()));
  std::vector<size_t> load(workers, 0), heap_begin(workers + 1, 0);
  std::vector<size_t> owner(work.size());
  for (size_t k = 0; k < work.size(); ++k) {
    const size_t w = AsIndex(std::min_element(load.begin(), load.end()) -
                             load.begin());
    const size_t count = comps[AsIndex(work[k])].pair_count;
    owner[k] = w;
    load[w] += count;
    heap_begin[w + 1] = std::max(heap_begin[w + 1], count);
  }
  for (size_t w = 0; w < workers; ++w) heap_begin[w + 1] += heap_begin[w];

  // Every buffer a worker touches, sized before any worker starts.
  std::vector<Neighbor> nbrs(2 * pairs.size());
  std::vector<Pair> heaps(heap_begin[workers]);
  std::vector<Slot> slots(2 * n);
  std::vector<char> active(2 * n, 0);
  auto run_worker = [&](size_t w) {
    const std::span<Pair> heap(heaps.data() + heap_begin[w],
                               heap_begin[w + 1] - heap_begin[w]);
    for (size_t k = 0; k < work.size(); ++k) {
      if (owner[k] != w) continue;
      const Component& comp = comps[AsIndex(work[k])];
      const size_t slot_count = 2 * AsIndex(comp.point_count);
      MergeComponent(
          comp.point_count, threshold_m,
          std::span<Pair>(pairs.data() + comp.pair_begin, comp.pair_count),
          std::span<Neighbor>(nbrs.data() + 2 * comp.pair_begin,
                              2 * comp.pair_count),
          heap, std::span<Slot>(slots.data() + comp.slot_begin, slot_count),
          std::span<char>(active.data() + comp.slot_begin, slot_count));
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w) {
      helpers.emplace_back([&run_worker, w] { run_worker(w); });
    }
    run_worker(0);
  }  // joins the helpers

  // Dense labels by first point: a point's cluster is its component's
  // root slot (slot 0 of a component without pairs).
  std::vector<int32_t> labels(n, -1);
  std::vector<int32_t> remap(2 * n, -1);
  int32_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    const Component& comp = comps[AsIndex(comp_of[i])];
    const int32_t root =
        comp.pair_count == 0
            ? 0
            : slots[comp.slot_begin + AsIndex(local_of[i])].parent;
    int32_t& label = remap[comp.slot_begin + AsIndex(root)];
    if (label < 0) label = next++;
    labels[i] = label;
  }
  return labels;
}

}  // namespace bikegraph::cluster
