"""Checks every tree the benchmark builds, and the statistics it reports.

The tree checks use only the public RootedTree fields and Instance data, so
they do not trust any of the library's own verification code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay

from shallowlight import KIND_SOURCE, mst

# Frozen constant of the stretch-budget gate: paper-mode stretch must stay
# within 1 + STRETCH_C * eps * log2(1/eps).
STRETCH_C = 2.5
# Relative tolerance for stored root distances and for kry_slt's 1+eps bound.
RTOL = 1e-9


def stretch_c(stretch: float, eps: float) -> float:
    """The stretch constant a build reached: (stretch - 1) / (eps log2(1/eps))."""
    return (stretch - 1.0) / (eps * math.log2(1.0 / eps))


def stretch_limit(builder: str, eps: float) -> float | None:
    """Largest stretch a builder may reach at this eps, or None if unbounded."""
    if builder in ("steiner", "restricted", "steiner_t2"):
        return 1.0 + STRETCH_C * eps * math.log2(1.0 / eps)
    if builder == "kry_slt":
        return (1.0 + eps) * (1.0 + RTOL)
    return None


def tree_stretch(tree, instance) -> float:
    """max over input points p != source of root_dist(p) / d(p, source)."""
    pts = instance.points
    s = pts[instance.source_index]
    d = np.hypot(pts[:, 0] - s[0], pts[:, 1] - s[1])
    mask = np.arange(instance.n) != instance.source_index
    return float(np.max(tree.root_dist[: instance.n][mask] / d[mask]))


def verify_tree(tree, instance) -> list[str]:
    """Problems with a built tree; an empty list means it passed.

    Checks that vertices 0..n-1 are the instance points in order, that the
    root is the source and marked KIND_SOURCE, that every parent chain ends
    at the root, and that stored root distances match the edge-length sums
    within RTOL relative error.
    """
    n = instance.n
    m = tree.n_vertices
    if m < n or not np.array_equal(tree.xy[:n], instance.points):
        return ["vertices 0..n-1 are not the instance points in order"]
    problems = []
    root = int(tree.root)
    if root != instance.source_index:
        problems.append(f"root {root} is not the source {instance.source_index}")
    if int(tree.kind[root]) != KIND_SOURCE:
        problems.append("root is not marked KIND_SOURCE")
    parent = np.asarray(tree.parent, dtype=np.int64)
    others = np.arange(m) != root
    if parent.shape != (m,) or np.any((parent[others] < 0) | (parent[others] >= m)):
        return problems + ["parent pointers out of range"]
    # pointer doubling: after ceil(log2 m) squarings every chain is at the root
    anc = parent.copy()
    anc[root] = root
    for _ in range(max(1, math.ceil(math.log2(m))) + 1):
        anc = anc[anc]
    if np.any(anc != root):
        problems.append("some parent chains do not reach the root")
    if tree.root_dist[root] != 0.0:
        problems.append("root distance of the root is not 0")
    child = np.flatnonzero(others)
    par = parent[child]
    seg = np.hypot(tree.xy[child, 0] - tree.xy[par, 0], tree.xy[child, 1] - tree.xy[par, 1])
    want = tree.root_dist[par] + seg
    err = np.abs(tree.root_dist[child] - want) / np.maximum(want, 1e-300)
    if err.size and float(err.max()) > RTOL:
        problems.append(f"stored root distances off by {float(err.max()):.3g} (relative)")
    return problems


def mst_weight(points) -> float:
    """Euclidean MST weight, the denominator of lightness.

    Equals shallowlight.mst's weight. Up to 3000 points, where mst() runs an
    O(n^2) Prim (0.15 s at n=2000), the MST is taken over the Delaunay edges
    instead (0.03 s), which always contain a Euclidean MST.
    """
    xy = np.asarray(points, dtype=np.float64)
    n = xy.shape[0]
    if n > 3000:
        return mst(xy)[1]
    s = Delaunay(xy).simplices
    e = np.unique(np.sort(np.concatenate([s[:, [0, 1]], s[:, [1, 2]], s[:, [0, 2]]]), axis=1),
                  axis=0)
    w = np.hypot(xy[e[:, 0], 0] - xy[e[:, 1], 0], xy[e[:, 0], 1] - xy[e[:, 1], 1])
    t = minimum_spanning_tree(coo_matrix((w, (e[:, 0], e[:, 1])), shape=(n, n)))
    return float(np.sort(t.data).sum())  # sorted like mst(), so equal edges give equal sums


def geomean(values) -> float:
    """Geometric mean of positive values."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0 or np.any(v <= 0.0):
        raise ValueError("geomean: needs at least one value, all positive")
    return float(np.exp(np.log(v).mean()))


def percentile(samples, q: float, min_beyond: int = 10) -> float | None:
    """Nearest-rank q-th percentile, or None with fewer than min_beyond samples above it."""
    s = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    if len(s) - rank < min_beyond:
        return None
    return s[rank - 1]
