"""Ground-truth references: exhaustive optimum for tiny instances and a
disjoint-box weight lower bound valid for any low-stretch tree.

brute_force_opt_st enumerates all n^(n-2) labeled spanning trees via Prufer
sequences, keeps those whose root-stretch is within 1+eps, and returns the
lightest. The tree-shape catalog depends only on n and is cached across calls.

steiner_lower_bound_certificate: for each point p, the box B_p is the bounding
box of p's sandwich ellipse clipped to the vertical strip of a fixed width
immediately right of p. Any tree (Steiner points allowed anywhere) in which
every point reaches the source with stretch <= 1+eps must cross each box it
owns, paying at least the box width inside it; a pairwise-disjoint subfamily
therefore lower-bounds the tree weight by the sum of its widths.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .geom import sandwich_ellipse, slope_proj_slack, vertical_cross_section
from .graphcore import KIND_INPUT, KIND_SOURCE, RootedTree

_MAX_BRUTE_N = 8
_tree_catalog: dict[int, np.ndarray] = {}


def decode_prufer(seq, n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on [0, n) with Prufer sequence seq."""
    seq = list(seq)
    if len(seq) != n - 2:
        raise ValueError("decode_prufer: sequence length must be n-2")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        u = heapq.heappop(leaves)
        edges.append((u, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def all_spanning_trees(n: int) -> np.ndarray:
    """(n^(n-2), n-1, 2) edge array of every labeled spanning tree on n vertices."""
    if n < 2 or n > _MAX_BRUTE_N:
        raise ValueError(f"all_spanning_trees: n={n} outside [2, {_MAX_BRUTE_N}]")
    cached = _tree_catalog.get(n)
    if cached is None:
        trees = [decode_prufer(seq, n) for seq in product(range(n), repeat=n - 2)]
        cached = np.asarray(trees, dtype=np.int8)
        _tree_catalog[n] = cached
    return cached


def brute_force_opt_st(instance, eps: float):
    """Minimum weight over all spanning trees with root-stretch <= (1+eps).

    Returns (weight, RootedTree). Stretch tolerance is 1e-9 relative; the star
    from the source always qualifies, so a minimum exists.
    """
    n = instance.n
    if n > _MAX_BRUTE_N:
        raise ValueError(f"brute_force_opt_st: n={n} exceeds {_MAX_BRUTE_N}")
    pts = instance.points
    s = instance.source_index
    diff = pts[:, None, :] - pts[None, :, :]
    dm = np.hypot(diff[..., 0], diff[..., 1])
    budget = (1.0 + eps) * (1.0 + 1e-9) * dm[s]

    trees = all_spanning_trees(n)
    weights = dm[trees[:, :, 0], trees[:, :, 1]].sum(axis=1)
    for t in np.argsort(weights, kind="stable").tolist():
        edges = trees[t]
        parent, dist = _root_at(edges, dm, s, n)
        ok = all(dist[v] <= budget[v] for v in range(n) if v != s)
        if ok:
            kind = np.full(n, KIND_INPUT, dtype=np.int8)
            kind[s] = KIND_SOURCE
            return float(weights[t]), RootedTree(
                pts.copy(), kind, s,
                np.asarray(parent, dtype=np.int64),
                np.asarray(dist, dtype=np.float64),
            )
    raise RuntimeError("brute_force_opt_st: no qualifying tree (unreachable)")


def _root_at(edges, dm, root: int, n: int):
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    dist = [0.0] * n
    stack = [root]
    seen = [False] * n
    seen[root] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                dist[v] = dist[u] + dm[u, v]
                stack.append(v)
    return parent, dist


@dataclass(frozen=True)
class StripRect:
    """Axis-aligned rectangle inside one vertical strip, owned by one point.

    x_lo/x_hi are the strip's edges; y_lo/y_hi the owner's ellipse
    cross-section at the strip's right edge; owner is the point's index.
    """

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    owner: int


@dataclass
class Certificate:
    """Pairwise interior-disjoint boxes; value = sum of box widths."""

    boxes: list[StripRect]
    value: float


def steiner_lower_bound_certificate(instance, eps: float | None = None,
                                    strip_width: float | None = None) -> Certificate:
    """Disjoint-box lower bound on the weight of any (1+eps)-stretch tree.

    Requires every point-to-source segment to have |slope| <= sqrt(eps) (true
    for the flat sector layouts this certifies). Boxes are scanned in
    ascending (x, y) order and kept greedily when interior-disjoint from all
    kept boxes.
    """
    eps = instance.eps if eps is None else float(eps)
    w = math.sqrt(eps) if strip_width is None else float(strip_width)
    if w <= 0.0:
        raise ValueError("steiner_lower_bound_certificate: strip_width must be > 0")
    pts = instance.points
    s_idx = instance.source_index
    s = instance.source
    boxes: list[StripRect] = []
    for p in range(instance.n):
        if p == s_idx:
            continue
        slope, _, _ = slope_proj_slack(pts[p], s)
        if abs(slope) > math.sqrt(eps):
            raise ValueError(
                f"certificate: point {p} has |slope(ps)| > sqrt(eps); wrong frame"
            )
        e = sandwich_ellipse(pts[p], s, eps)
        x_lo = float(pts[p, 0])
        x_hi = x_lo + w
        iv = vertical_cross_section(e, x_hi)
        if iv is None:
            raise ValueError("certificate: strip_width exceeds the ellipse extent")
        boxes.append(StripRect(x_lo, x_hi, iv.lo, iv.hi, p))

    boxes.sort(key=lambda b: (b.x_lo, b.y_lo, b.owner))
    kept: list[StripRect] = []
    kept_xlo: list[float] = []
    for b in boxes:
        # only already-kept boxes with x_lo > b.x_lo - w can reach b
        i = bisect.bisect_right(kept_xlo, b.x_lo - w)
        clash = any(
            k.x_lo < b.x_hi and b.x_lo < k.x_hi
            and k.y_lo < b.y_hi and b.y_lo < k.y_hi
            for k in kept[i:]
        )
        if not clash:
            kept.append(b)
            kept_xlo.append(b.x_lo)
    return Certificate(kept, float(sum(k.x_hi - k.x_lo for k in kept)))
