"""Geometric graphs, minimum spanning trees, and rooted shortest-path trees.

Vertices carry coordinates and a kind tag (input point, Steiner point, or the
source). Edge weights are always the Euclidean distance between endpoints;
GeoGraph.build recomputes them from coordinates so they cannot drift.

mst() is exact up to 3000 points. Where no two nearest-neighbor distances
and no two Delaunay edge lengths are equal, it takes the MST of the Delaunay
graph: every Euclidean MST edge lies in it, and distinct lengths make the MST
unique. Otherwise it runs a dense O(n^2) Prim with a lowest-index tie rule.
Above 3000 points it returns the MST of a k-nearest-neighbor candidate graph
(k=16, doubled until that graph is connected), which is not always the
Euclidean MST: a connected k-NN graph can miss an MST edge. On 3,213 points
(two 17-point clusters 10 apart, joined the long way round by a chain with
gaps of 15, plus a 3,000-point grid) it weighs 5179.008 against the exact
5174.007. At every size its edges are (u, v) pairs with u < v, sorted.

shortest_path_tree takes distances from scipy's Dijkstra and gives
each vertex the lowest-id neighbor u with dist[u] + w(u, v) == dist[v] as its
parent. root_distances sums edge lengths along parent chains in level order,
and verify_tree checks a tree's structure against its instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order as _scipy_bfs_order
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
from scipy.sparse.csgraph import minimum_spanning_tree as _scipy_mst
from scipy.spatial import Delaunay, QhullError, cKDTree

KIND_INPUT = 0
KIND_STEINER = 1
KIND_SOURCE = 2

KIND_NAMES = {KIND_INPUT: "input", KIND_STEINER: "steiner", KIND_SOURCE: "source"}
KIND_CODES = {v: k for k, v in KIND_NAMES.items()}

_EXACT_MST_LIMIT = 3000


@dataclass
class GeoGraph:
    """Undirected weighted geometric graph with canonical edge storage."""

    xy: np.ndarray  # (m, 2) float64
    kind: np.ndarray  # (m,) int8
    edges: np.ndarray  # (e, 2) int64, u < v, lexicographically sorted, unique
    weights: np.ndarray  # (e,) float64, Euclidean length of each edge

    @classmethod
    def build(cls, xy, kind, edge_pairs) -> "GeoGraph":
        xy = np.ascontiguousarray(np.asarray(xy, dtype=np.float64).reshape(-1, 2))
        kind = np.asarray(kind, dtype=np.int8)
        if kind.shape[0] != xy.shape[0]:
            raise ValueError("kind/coordinate length mismatch")
        e = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
        if e.size:
            if e.min() < 0 or e.max() >= xy.shape[0]:
                raise ValueError("edge endpoint out of range")
            if np.any(e[:, 0] == e[:, 1]):
                raise ValueError("self loop")
            e = np.sort(e, axis=1)
            e = np.unique(e, axis=0)
        w = np.hypot(
            xy[e[:, 0], 0] - xy[e[:, 1], 0], xy[e[:, 0], 1] - xy[e[:, 1], 1]
        ) if e.size else np.zeros(0)
        return cls(xy, kind, e, w)

    @property
    def n_vertices(self) -> int:
        return self.xy.shape[0]

    def total_weight(self) -> float:
        # sorted before summing so equal edge multisets give bitwise-equal totals
        return float(np.sort(self.weights).sum())


@dataclass
class RootedTree:
    """Tree with parent pointers toward root and exact root distances."""

    xy: np.ndarray  # (m, 2)
    kind: np.ndarray  # (m,) int8
    root: int
    parent: np.ndarray  # (m,) int64, -1 at the root
    root_dist: np.ndarray  # (m,) float64

    def __post_init__(self):
        if self.parent[self.root] != -1:
            raise ValueError("root must have parent -1")

    @property
    def n_vertices(self) -> int:
        return self.xy.shape[0]

    def edge_list(self) -> np.ndarray:
        """(child, parent) pairs for all non-root vertices, child ascending."""
        children = np.flatnonzero(self.parent >= 0)
        return np.stack([children, self.parent[children]], axis=1)

    def weight(self) -> float:
        e = self.edge_list()
        if not e.size:
            return 0.0
        d = np.hypot(
            self.xy[e[:, 0], 0] - self.xy[e[:, 1], 0],
            self.xy[e[:, 0], 1] - self.xy[e[:, 1], 1],
        )
        # sorted before summing so equal edge multisets give bitwise-equal totals
        return float(np.sort(d).sum())


def _prim_dense(xy: np.ndarray):
    """Exact Prim in O(n^2) with numpy row updates; starts at vertex 0.

    A vertex that joins the tree gets best = inf, so argmin (lowest index on
    ties) never picks it again, and x = NaN, so no new distance to it
    compares closer. The buffers are reused across steps.
    """
    n = xy.shape[0]
    x = xy[:, 0].copy()
    y = xy[:, 1]
    best = np.hypot(x - x[0], y - y[0])
    best[0] = np.inf
    x[0] = np.nan
    best_from = np.zeros(n, dtype=np.int64)
    dx = np.empty(n)
    dy = np.empty(n)
    closer = np.empty(n, dtype=bool)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    for t in range(n - 1):
        u = int(np.argmin(best))
        edges[t] = (best_from[u], u)
        best[u] = np.inf
        x[u] = np.nan
        np.subtract(x, xy[u, 0], out=dx)
        np.subtract(y, y[u], out=dy)
        np.hypot(dx, dy, out=dx)
        np.less(dx, best, out=closer)
        np.copyto(best, dx, where=closer)
        np.copyto(best_from, u, where=closer)
    return edges


def _mst_delaunay(xy: np.ndarray):
    """The MST over the Delaunay edges, or None where that is not certified.

    Every Euclidean MST edge has an empty diametral disc, so it is an edge of
    every Delaunay triangulation (Shamos and Hoey, 1975). When all Delaunay
    edge lengths differ, that graph has one MST, so the Euclidean MST is
    unique and this is it. None when Qhull fails or drops a point (a repeat),
    when two Delaunay edges have the same length, or when the MST does not
    span all points.
    """
    n = xy.shape[0]
    try:
        tri = Delaunay(xy)
    except QhullError:
        return None
    if tri.coplanar.size:
        return None
    indptr, nbr = tri.vertex_neighbor_vertices
    rows = np.repeat(np.arange(n), np.diff(indptr))
    up = rows < nbr
    u, v = rows[up], nbr[up]
    w = np.hypot(xy[u, 0] - xy[v, 0], xy[u, 1] - xy[v, 1])
    if _has_equal(w):
        return None
    t = _scipy_mst(csr_matrix((w, (u, v)), shape=(n, n)), overwrite=True).tocoo()
    if t.nnz != n - 1:
        return None
    return _canonical_edges(t.row, t.col)


def _nn_tie(xy: np.ndarray) -> bool:
    """True if two distinct nearest-neighbor pairs are equally long.

    A cheap screen that sends grids and other tie-rich sets straight to dense
    Prim; _mst_delaunay's equal-length check is what certifies exactness.
    """
    d, idx = cKDTree(xy).query(xy, k=2)
    i = np.arange(xy.shape[0])
    j = idx[:, 1]
    once = (idx[j, 1] != i) | (i < j)  # one copy of each mutual pair
    return _has_equal(d[once, 1])


def _has_equal(values: np.ndarray) -> bool:
    s = np.sort(values)
    return bool(np.any(s[1:] == s[:-1]))


def _mst_knn(xy: np.ndarray):
    """MST on a k-NN candidate graph, doubling k until connected.

    Repeated points are found from zero-length candidate edges; the MST is
    then taken over the distinct points (_mst_with_repeats).
    """
    n = xy.shape[0]
    k = 16
    tree = cKDTree(xy)
    while True:
        kk = min(k + 1, n)
        _, idx = tree.query(xy, k=kk)
        # scipy's canonical CSR layout: kk - 1 neighbors per row, columns sorted
        cols = np.sort(idx[:, 1:], axis=1).reshape(-1)
        rows = np.repeat(np.arange(n), kk - 1)
        w = np.hypot(
            xy[rows, 0] - xy[cols, 0], xy[rows, 1] - xy[cols, 1]
        )
        if not w.all():
            return _mst_with_repeats(xy)
        g = csr_matrix((w, cols, np.arange(0, (kk - 1) * n + 1, kk - 1)), shape=(n, n))
        t = _scipy_mst(g, overwrite=True).tocoo()
        if t.nnz == n - 1:
            return _canonical_edges(t.row, t.col)
        if kk >= n:
            raise RuntimeError("k-NN MST failed to connect at k=n")
        k *= 2


def _mst_with_repeats(xy: np.ndarray):
    """MST over the distinct points, each repeat tied to its first copy by a
    zero-length edge."""
    _, first, inv = np.unique(xy, axis=0, return_index=True, return_inverse=True)
    keep = np.sort(first)
    e, _ = mst(xy[keep])
    rep = np.ones(xy.shape[0], dtype=bool)
    rep[keep] = False
    rep = np.flatnonzero(rep)
    copy = first[inv.reshape(-1)[rep]]
    return _canonical_edges(np.concatenate([keep[e[:, 0]], copy]),
                            np.concatenate([keep[e[:, 1]], rep]))


def _canonical_edges(a, b) -> np.ndarray:
    """(u, v) pairs with u < v, lexicographically sorted, as int64."""
    e = np.sort(np.stack([a, b], axis=1).astype(np.int64), axis=1)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


def mst(points) -> tuple[np.ndarray, float]:
    """Euclidean MST: ((n-1, 2) edge array, total weight).

    Edges are (u, v) pairs with u < v in lexicographic order, at every size;
    the weight is the sorted sum of their lengths. Exact for n <= 3000: the
    Delaunay MST where no two nearest-neighbor distances and no two Delaunay
    edge lengths are equal (then the Euclidean MST is unique), otherwise
    dense Prim with its lowest-index tie rule. Above that, the MST of the k-NN
    candidate graph, which can be heavier than the exact MST when that graph
    misses an MST edge (see the module docstring); there each repeated point
    is joined to its first copy by a zero-length edge. ValueError if a
    coordinate is not finite.
    """
    xy = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if not np.isfinite(xy).all():
        raise ValueError("mst: a coordinate is not finite")
    n = xy.shape[0]
    if n == 0:
        raise ValueError("mst: empty point set")
    if n == 1:
        return np.empty((0, 2), dtype=np.int64), 0.0
    if n > _EXACT_MST_LIMIT:
        e = _mst_knn(xy)
    else:
        e = None if n < 3 or _nn_tie(xy) else _mst_delaunay(xy)
        if e is None:
            p = _prim_dense(xy)
            e = _canonical_edges(p[:, 0], p[:, 1])
    d = np.hypot(xy[e[:, 0], 0] - xy[e[:, 1], 0], xy[e[:, 0], 1] - xy[e[:, 1], 1])
    w = float(np.sort(d).sum())  # order-canonical sum, see RootedTree.weight
    return e, w


def shortest_path_tree(g: GeoGraph, root: int) -> RootedTree:
    """Dijkstra SPT from root; parent ties resolve to the lower vertex id.

    Every tight predecessor u of v (dist[u] + w(u, v) == dist[v]) is settled
    before v, so taking the lowest such u is the lower-id tie rule.
    """
    n = g.n_vertices
    if not 0 <= root < n:
        raise ValueError("shortest_path_tree: root out of range")
    e = g.edges
    csr = csr_matrix((g.weights, (e[:, 0], e[:, 1])), shape=(n, n))
    dist = _scipy_dijkstra(csr, directed=False, indices=root)
    unreachable = np.flatnonzero(np.isinf(dist))
    if unreachable.size:
        raise ValueError(
            f"shortest_path_tree: unreachable vertices {unreachable[:10].tolist()}")
    u = np.concatenate([e[:, 0], e[:, 1]])
    v = np.concatenate([e[:, 1], e[:, 0]])
    tight = dist[u] + np.concatenate([g.weights, g.weights]) == dist[v]
    parent = np.full(n, n, dtype=np.int64)
    np.minimum.at(parent, v[tight], u[tight])
    parent[root] = -1
    return RootedTree(g.xy, g.kind, root, parent, dist)


def root_distances(parent, xy, root: int) -> np.ndarray:
    """Edge-length sums along parent chains; ValueError if a chain has a cycle.

    Vertices are visited in level order from the root (scipy's breadth-first
    order over the parent -> child edges), and each adds its edge length to
    its parent's finished sum, so every sum is added in chain order. Edge
    lengths are math.hypot of the coordinate differences, which is what
    math.dist computes; np.hypot rounds some of them differently. Parents
    must be in range; the root's parent is never followed.
    """
    parent = np.asarray(parent, dtype=np.int64)
    xy = np.asarray(xy, dtype=np.float64)
    m = parent.shape[0]
    child = np.flatnonzero(np.arange(m) != root)
    down = csr_matrix((np.ones(child.size), (parent[child], child)), shape=(m, m))
    order = _scipy_bfs_order(down, root, return_predecessors=False)
    if order.size < m:
        reached = np.zeros(m, dtype=bool)
        reached[order] = True
        v = int(np.flatnonzero(~reached)[0])
        raise ValueError(f"parent chain of vertex {v} has a cycle")
    d = xy - xy[parent]
    length = list(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist()))
    up = parent.tolist()
    dist = [0.0] * m
    for v in order[1:].tolist():
        dist[v] = dist[up[v]] + length[v]
    return np.array(dist)


def verify_tree(tree: RootedTree, instance) -> list[str]:
    """Faults of tree as a tree over instance; an empty list means none.

    Checks that vertices 0..n-1 are the instance points in order, that the
    root is the source and marked KIND_SOURCE, that every parent is in range
    and every chain reaches the root, and that the stored root distances
    match the edge sums to a relative 1e-9.
    """
    n = instance.n
    m = tree.n_vertices
    if m < n or not np.array_equal(tree.xy[:n], instance.points):
        return ["tree does not carry the instance points as vertices 0..n-1"]
    faults = []
    if tree.root != instance.source_index:
        faults.append(f"root {tree.root} != instance source {instance.source_index}")
    if int(tree.kind[tree.root]) != KIND_SOURCE:
        faults.append("root vertex is not marked as the source")
    bad = (tree.parent < 0) | (tree.parent >= m)
    bad[tree.root] = tree.parent[tree.root] != -1
    if bad.any():
        v = int(np.flatnonzero(bad)[0])
        return faults + [f"parent {int(tree.parent[v])} of vertex {v} out of range"]
    try:
        want = root_distances(tree.parent, tree.xy, tree.root)
    except ValueError as e:
        return faults + [str(e)]
    err = float(np.max(np.abs(tree.root_dist - want) / np.maximum(want, 1e-30)))
    if not err <= 1e-9:  # NaN distances fail too
        faults.append(f"stored root distances off by {err:.3g} (rel)")
    return faults


def root_stretch(tree: RootedTree, instance) -> float:
    """max over input points p != source of root_dist(p) / d(p, source).

    Requires the first n tree vertices to be the instance points, in order.
    """
    pts = instance.points
    n = pts.shape[0]
    if tree.n_vertices < n or not np.array_equal(tree.xy[:n], pts):
        raise ValueError("root_stretch: tree does not carry the instance points")
    s = pts[instance.source_index]
    d = np.hypot(pts[:, 0] - s[0], pts[:, 1] - s[1])
    mask = np.arange(n) != instance.source_index
    return float(np.max(tree.root_dist[:n][mask] / d[mask]))


def lightness(tree: RootedTree, instance) -> float:
    """Tree weight over the weight of the MST of the instance points."""
    _, w = mst(instance.points)
    if w == 0.0:
        raise ValueError("lightness: degenerate instance with zero MST weight")
    return tree.weight() / w
