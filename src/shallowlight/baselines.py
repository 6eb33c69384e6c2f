"""Classical shallow-light constructions used as comparison points.

All three take an Instance and return a RootedTree over the input points
(solomon adds Steiner points). Ties are broken by vertex index everywhere, so
each builder is deterministic.

kry_slt   - MST traversal that re-parents a vertex to the source whenever its
            tentative tree distance exceeds (1+eps) times its direct distance;
            distances are relaxed along tree edges in both traversal
            directions. Hard guarantee: stretch <= 1+eps.
abp_slt   - Hamiltonian path (DFS preorder of the MST, weight <= 2 MST),
            broken greedily into subpaths of weight <= eps * (min distance to
            source seen in the subpath); each subpath hangs off the source at
            its closest vertex.
solomon_slt - same breaking with sqrt(eps); instead of spoking the anchor, a
            balanced gadget of Steiner points funnels each subpath to the
            source: adjacent pairs merge at their midpoint displaced toward
            the source by the pair separation, rounds repeat until one point
            remains, which connects to the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, depth_first_order

from .graphcore import KIND_INPUT, KIND_SOURCE, KIND_STEINER, RootedTree, mst, root_distances

_STRETCH_RTOL = 1e-9


def _mst_adjacency(instance):
    """Sorted neighbor lists (with edge lengths) of the instance's MST."""
    edges, total = mst(instance.points)
    n = instance.n
    d = instance.points[edges[:, 0]] - instance.points[edges[:, 1]]
    # math.hypot of the differences is what math.dist computes; mapped over
    # the arrays, not over lists, so no float list of every edge stays alive
    lengths = map(math.hypot, d[:, 0], d[:, 1])
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in zip(edges.tolist(), lengths):
        adj[u].append((v, w))
        adj[v].append((u, w))
    for lst in adj:
        lst.sort()
    return adj, total


def mst_rooted(instance) -> RootedTree:
    """The MST itself, oriented away from the source (lightness exactly 1)."""
    edges, _ = mst(instance.points)
    n = instance.n
    s = instance.source_index
    adj = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    # a tree has one path to the source, so the search order cannot change a parent
    _, pred = breadth_first_order(adj, s, directed=False, return_predecessors=True)
    parent = np.where(pred < 0, -1, pred).astype(np.int64)
    dist = root_distances(parent, instance.points, s)
    return RootedTree(instance.points.copy(), _input_kinds(instance), s, parent, dist)


def _input_kinds(instance) -> np.ndarray:
    kind = np.full(instance.n, KIND_INPUT, dtype=np.int8)
    kind[instance.source_index] = KIND_SOURCE
    return kind


def kry_slt(instance) -> RootedTree:
    """Light approximate shortest-path tree over the MST (stretch <= 1+eps)."""
    eps = instance.eps
    n = instance.n
    s = instance.source_index
    pts = instance.points
    adj, _ = _mst_adjacency(instance)
    ds = np.hypot(pts[:, 0] - pts[s, 0], pts[:, 1] - pts[s, 1])

    d = np.full(n, np.inf)
    d[s] = 0.0
    parent = np.full(n, -1, dtype=np.int64)
    # iterative DFS with explicit enter/exit so returns relax the parent too
    stack: list[tuple[int, int, float, int]] = [(s, -1, 0.0, 0)]
    seen = [False] * n
    seen[s] = True
    while stack:
        u, pu, w_up, i = stack.pop()
        if i == len(adj[u]):
            # upward relaxation re-parents too: d stays the exact tree-path
            # distance, so the visit-time check is a hard stretch guarantee.
            # No cycle: d decreases strictly along parent chains.
            if pu >= 0 and d[u] + w_up < d[pu]:
                d[pu] = d[u] + w_up
                parent[pu] = u
            continue
        stack.append((u, pu, w_up, i + 1))
        v, w = adj[u][i]
        if seen[v]:
            continue
        seen[v] = True
        if d[u] + w < d[v]:
            d[v] = d[u] + w
        if d[v] > (1.0 + eps) * ds[v]:
            d[v] = ds[v]
            parent[v] = s
        else:
            parent[v] = u
        stack.append((v, u, w, 0))

    dist = root_distances(parent, pts, s)
    _check_stretch(dist, ds, eps, "kry_slt")
    return RootedTree(pts.copy(), _input_kinds(instance), s, parent, dist)


def _check_stretch(dist, ds, eps, who: str) -> None:
    bad = np.flatnonzero(dist > (1.0 + eps) * ds * (1.0 + _STRETCH_RTOL))
    if bad.size:
        v = int(bad[0])
        raise RuntimeError(f"{who}: stretch violated at vertex {v}: "
                           f"{dist[v]:.17g} > (1+eps)*{ds[v]:.17g}")


def hamiltonian_order(instance) -> list[int]:
    """DFS preorder of the MST from the source, neighbors in ascending id;
    consecutive-hop weight <= 2 MST."""
    edges, _ = mst(instance.points)
    n = instance.n
    u, v = np.concatenate([edges, edges[:, ::-1]]).T
    adj = csr_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    adj.sort_indices()
    return depth_first_order(adj, instance.source_index, directed=True,
                             return_predecessors=False).tolist()


@dataclass
class SubpathBreak:
    """Greedy decomposition of a vertex sequence into low-weight subpaths.

    ranges[i] = (start, stop) half-open over the input order; anchors[i] is
    the position (within the order) of the subpath vertex closest to the
    source, ties to the earliest position.
    """

    order: list[int]
    ranges: list[tuple[int, int]]
    anchors: list[int]


def break_subpaths(instance, order: list[int], factor: float) -> SubpathBreak:
    """Split order greedily: extend while subpath weight <= factor * min ds."""
    pts = instance.points
    s = instance.source_index
    at = pts[np.asarray(order, dtype=np.int64).reshape(-1)]
    # by position in order: distance to the source, and the hop from the
    # previous position as math.hypot of the differences (what math.dist computes)
    ds = np.hypot(at[:, 0] - pts[s, 0], at[:, 1] - pts[s, 1]).tolist()
    d = at[:-1] - at[1:]
    hop = [0.0, *map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist())]
    ranges: list[tuple[int, int]] = []
    anchors: list[int] = []
    i = 0
    m = len(order)
    while i < m:
        w_cur = 0.0
        md = ds[i]
        best = i
        j = i + 1
        while j < m:
            w_next = w_cur + hop[j]
            md_next = min(md, ds[j])
            if w_next > factor * md_next:
                break
            w_cur = w_next
            md = md_next
            if ds[j] < ds[best]:
                best = j
            j += 1
        ranges.append((i, j))
        anchors.append(best)
        i = j
    return SubpathBreak(list(order), ranges, anchors)


def abp_slt(instance) -> RootedTree:
    """Hamiltonian-path breaking with factor eps; anchors spoke to the source."""
    brk = break_subpaths(instance, hamiltonian_order(instance)[1:], instance.eps)
    n = instance.n
    s = instance.source_index
    pts = instance.points
    parent = np.full(n, -1, dtype=np.int64)
    order = brk.order
    for (lo, hi), a in zip(brk.ranges, brk.anchors):
        parent[order[a]] = s
        for t in range(a + 1, hi):
            parent[order[t]] = order[t - 1]
        for t in range(lo, a):
            parent[order[t]] = order[t + 1]
    dist = root_distances(parent, pts, s)
    return RootedTree(pts.copy(), _input_kinds(instance), s, parent, dist)


def solomon_slt(instance) -> RootedTree:
    """sqrt(eps)-breaking with Steiner merge gadgets instead of anchor spokes."""
    brk = break_subpaths(instance, hamiltonian_order(instance)[1:],
                         math.sqrt(instance.eps))
    n = instance.n
    s = instance.source_index
    pts = instance.points
    s_pt = pts[s]

    xy = [tuple(map(float, pts[v])) for v in range(n)]
    kind = [KIND_INPUT] * n
    kind[s] = KIND_SOURCE
    parent = [-1] * n
    for (lo, hi), _a in zip(brk.ranges, brk.anchors):
        group = brk.order[lo:hi]
        while len(group) > 1:
            nxt = []
            for t in range(0, len(group) - 1, 2):
                a, b = group[t], group[t + 1]
                pa, pb = xy[a], xy[b]
                mid = (0.5 * (pa[0] + pb[0]), 0.5 * (pa[1] + pb[1]))
                to_s = (float(s_pt[0]) - mid[0], float(s_pt[1]) - mid[1])
                gap = math.hypot(*to_s)
                # displacement toward the source, capped so we never overshoot
                if gap > 0.0:
                    step = min(math.dist(pa, pb), 0.9 * gap)
                    q = (mid[0] + to_s[0] / gap * step,
                         mid[1] + to_s[1] / gap * step)
                else:
                    q = mid
                sid = len(xy)
                xy.append(q)
                kind.append(KIND_STEINER)
                parent.append(-1)
                parent[a] = sid
                parent[b] = sid
                nxt.append(sid)
            if len(group) % 2 == 1:
                nxt.append(group[-1])
            group = nxt
        parent[group[0]] = s

    xy_arr = np.asarray(xy, dtype=np.float64)
    parent_arr = np.asarray(parent, dtype=np.int64)
    dist = root_distances(parent_arr, xy_arr, s)
    return RootedTree(xy_arr, np.asarray(kind, dtype=np.int8), s, parent_arr, dist)
