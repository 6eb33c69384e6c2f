"""Centered eps-nets and per-cluster 2-spanners.

A centered eps-net N of a point set P around source s satisfies
  separation: d(a, b) > eps * min(d(a,s), d(b,s)) for distinct a, b in N,
  covering:   every p in P has a net point a with d(p, a) <= eps * d(a,s).

build_cnet is the greedy in ascending distance-to-source order, which makes
the covering radius of the assigned net point at most eps * d(p, s) and keeps
net points no farther from s than the points they cover. Neighbor lookups are
bucketed by distance ring (floor log2 d(a,s)) and grid cell so the greedy
stays near-linear; the tests recheck both conditions in O(n^2).

cluster_spanner is the path-greedy 2-spanner: candidate pairs ascending by
(length, i, j), an edge is added iff the current spanner distance exceeds
twice the Euclidean distance. It keeps the exact all-pairs spanner distances
D but touches only the entries a decision can change:
  - A pair whose endpoints lie in different components has D = inf and is
    always added, so the joins are Kruskal's run over the same pair order. A
    first pass finds them and lays the points out so that every component
    ever formed is one contiguous run of rows and columns of D.
  - A join writes its two cross blocks, the only entries it changes.
  - Every other pair lies inside one component and is tested as such; an
    accepted one (a shortcut) updates that component's diagonal block only.
  - After the last join all pairs share one component. They are filtered in
    bulk, and after each shortcut only the pairs that still violate are
    kept: distances only fall, so a pair that passes never violates later.
Every D entry a decision reads comes from the same IEEE operations, in the
same order, as the plain greedy with full-matrix updates
(tests/helpers.reference_cluster_spanner), so the edge lists are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Largest cluster size whose upper-triangle pair indices are cached: the
# cache then holds at most 2.4 MB, whatever sizes the clusters come in.
_PAIR_CACHE_MAX_M = 96
# Longest pair length whose double is finite.
_MAX_PAIR_LENGTH = np.finfo(np.float64).max / 2.0


@dataclass
class CenteredNet:
    """Net points (ascending d(.,s) insertion order) and coverage assignment.

    net holds point indices; assignment maps every point index to a position
    in net (net points map to themselves). eps and source are kept for
    downstream radius checks.
    """

    net: list[int]
    assignment: np.ndarray  # (n,) int64, position into net
    eps: float
    source: tuple[float, float]


def _floor_cells(coords: np.ndarray, cell: np.ndarray) -> list[int]:
    # Python ints: float cell keys would merge neighbouring cells beyond 2^53
    return list(map(math.floor, (coords / cell).tolist()))


def build_cnet(points, source, eps: float) -> CenteredNet:
    """Greedy centered eps-net over points (ascending d(p, source), ties by index)."""
    if not 0.0 < eps < 1.0 / 9.0:
        raise ValueError(f"build_cnet: eps={eps} outside (0, 1/9)")
    xy = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = xy.shape[0]
    sx, sy = float(source[0]), float(source[1])
    d = np.hypot(xy[:, 0] - sx, xy[:, 1] - sy)
    if np.any(d == 0.0):
        raise ValueError("build_cnet: a point coincides with the source")
    order = np.argsort(d, kind="stable").tolist()
    # ring r holds net points with d in [2^r, 2^{r+1}); cell size eps * 2^{r+1}
    # bounds their covering radius, so a 3x3 cell window suffices per ring.
    # Each point looks in its own ring and the ring below; both cells are
    # computed here, once per point.
    rings_np = np.frexp(d)[1] - 1
    cell_own = eps * np.ldexp(1.0, rings_np + 1)
    cell_below = eps * np.ldexp(1.0, rings_np)
    own = list(zip(_floor_cells(xy[:, 0], cell_own), _floor_cells(xy[:, 1], cell_own)))
    below = list(zip(_floor_cells(xy[:, 0], cell_below), _floor_cells(xy[:, 1], cell_below)))
    rings = rings_np.tolist()
    xs = xy[:, 0].tolist()
    ys = xy[:, 1].tolist()
    reach = (eps * d).tolist()  # covering radius of each point as a net point
    hypot = math.hypot
    net: list[int] = []
    net_pos = [-1] * n
    assignment = [-1] * n
    grids: dict[int, dict[tuple[int, int], list[int]]] = {}
    for p in order:
        px = xs[p]
        py = ys[p]
        r = rings[p]
        best = -1
        for grid, (cx, cy) in ((grids.get(r), own[p]), (grids.get(r - 1), below[p])):
            if grid is None:
                continue
            for gx in (cx - 1, cx, cx + 1):
                for gy in (cy - 1, cy, cy + 1):
                    for a in grid.get((gx, gy), ()):
                        if hypot(px - xs[a], py - ys[a]) <= reach[a]:
                            pos = net_pos[a]
                            if best < 0 or pos < best:
                                best = pos
        if best >= 0:
            assignment[p] = best
            continue
        net_pos[p] = len(net)
        assignment[p] = len(net)
        net.append(p)
        grids.setdefault(r, {}).setdefault(own[p], []).append(p)
    return CenteredNet(net, np.array(assignment, dtype=np.int64), eps, (sx, sy))


@lru_cache(maxsize=None)
def _cached_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(m, 1)
    iu.flags.writeable = False  # shared by every call with this m
    ju.flags.writeable = False
    return iu, ju


def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) with i < j in row-major order: sorted by (i, j)."""
    return _cached_pairs(m) if m <= _PAIR_CACHE_MAX_M else np.triu_indices(m, 1)


def _kruskal_layout(pi: list[int], pj: list[int], m: int):
    """Kruskal over the sorted pairs, up to the last of its m - 1 joins.

    Components are nodes of a merge tree: the points are nodes 0..m-1, join
    k creates node m + k over left[k] (the component of the pair's first
    point) and right[k]. events[t] says what pair t is: the node it creates
    (>= 0), or ~node of the component holding both its points. Laying each
    node's left subtree before its right one makes every node the run of
    rows start[node] .. start[node] + size[node].
    """
    uf = list(range(m))
    node = list(range(m))  # union-find root -> its current merge-tree node
    size = [1] * m
    left: list[int] = []
    right: list[int] = []
    events: list[int] = []
    for ra, rb in zip(pi, pj):
        while uf[ra] != ra:  # find with path halving
            uf[ra] = ra = uf[uf[ra]]
        while uf[rb] != rb:
            uf[rb] = rb = uf[uf[rb]]
        if ra == rb:
            events.append(~node[ra])
            continue
        new = len(size)
        left.append(node[ra])
        right.append(node[rb])
        size.append(size[node[ra]] + size[node[rb]])
        uf[rb] = ra
        node[ra] = new
        events.append(new)
        if new == 2 * m - 2:
            break
    start = [0] * len(size)
    for k in range(m - 2, -1, -1):
        start[left[k]] = start[m + k]
        start[right[k]] = start[m + k] + size[left[k]]
    return events, left, right, size, start


def _shortcut(block: np.ndarray, ri: int, rj: int, w: float) -> None:
    """The greedy's exact update for a new edge (ri, rj) of length w inside block:
    a shortest path uses the new edge at most once."""
    cand = np.minimum((block[:, ri] + w)[:, None] + block[rj, :],
                      (block[:, rj] + w)[:, None] + block[ri, :])
    np.minimum(block, cand, out=block)


def cluster_spanner(cluster) -> list[tuple[int, int]]:
    """Path-greedy stretch-2 spanner edges over one cluster (index pairs).

    Pairs ascend by (distance, i, j); an edge joins the spanner iff the
    current spanner distance between its endpoints exceeds 2x its length.
    Edges come in the order they are added. See the module docstring for how
    the greedy is computed and why its edges are the plain greedy's.

    Raises ValueError if a coordinate is not finite or, with three or more
    points, twice a pair length overflows: the greedy relies on every pair
    across two components being added, which needs 2x its length finite.
    """
    xy = np.asarray(cluster, dtype=np.float64).reshape(-1, 2)
    m = xy.shape[0]
    if not all(map(math.isfinite, xy.flat)):  # cheaper than numpy on tiny clusters
        raise ValueError("cluster_spanner: a coordinate is not finite")
    if m <= 1:
        return []
    if m == 2:
        return [(0, 1)]
    iu, ju = _upper_pairs(m)
    x = xy[:, 0]
    y = xy[:, 1]
    lens = np.hypot(x[iu] - x[ju], y[iu] - y[ju])
    if not lens.max() <= _MAX_PAIR_LENGTH:
        raise ValueError("cluster_spanner: twice a pair length overflows")
    # a stable sort of the (i, j)-ordered pairs by length is (length, i, j)
    order = np.argsort(lens, kind="stable")
    pi = iu[order].tolist()
    pj = ju[order].tolist()
    events, left, right, size, start = _kruskal_layout(pi, pj, m)
    last = len(events)
    row = start[:m]  # D row (and column) of each point
    plen = lens[order[:last]].tolist()

    dist = np.full((m, m), np.inf)  # D in layout order
    np.fill_diagonal(dist, 0.0)
    added: list[int] = []  # positions in the pair order
    for t in range(last):
        e = events[t]
        ri = row[pi[t]]
        rj = row[pj[t]]
        w = plen[t]
        if e >= 0:
            # join of runs A = [a0, a1) (holding ri) and B = [a1, b1): the
            # greedy's update is finite only on A x B, (D[u,i] + w) + D[j,v],
            # and on B x A, (D[u,j] + w) + D[i,v]. D[i,i] = D[j,j] = 0 makes a
            # one-point side's sum one addition.
            added.append(t)
            a0 = start[left[e - m]]
            a1 = start[right[e - m]]
            b1 = a0 + size[e]
            if a1 - a0 == 1 and b1 - a1 == 1:
                dist[ri, rj] = w
                dist[rj, ri] = w
            elif a1 - a0 == 1:
                np.add(dist[rj, a1:b1], w, out=dist[ri, a1:b1])
                np.add(dist[a1:b1, rj], w, out=dist[a1:b1, ri])
            elif b1 - a1 == 1:
                np.add(dist[a0:a1, ri], w, out=dist[a0:a1, rj])
                np.add(dist[ri, a0:a1], w, out=dist[rj, a0:a1])
            else:
                np.add((dist[a0:a1, ri] + w)[:, None], dist[rj, a1:b1], out=dist[a0:a1, a1:b1])
                np.add((dist[a1:b1, rj] + w)[:, None], dist[ri, a0:a1], out=dist[a1:b1, a0:a1])
        elif dist[ri, rj] > 2.0 * w:
            # a shortcut inside component ~e; rows outside its run hold inf
            added.append(t)
            c0 = start[~e]
            c1 = c0 + size[~e]
            _shortcut(dist[c0:c1, c0:c1], ri - c0, rj - c0, w)

    rest = order[last:]
    row_np = np.asarray(row)
    rows = row_np[iu[rest]]
    cols = row_np[ju[rest]]
    bound = 2.0 * lens[rest]
    viol = np.flatnonzero(dist[rows, cols] > bound)
    while viol.size:
        k = int(viol[0])
        added.append(last + k)
        _shortcut(dist, int(rows[k]), int(cols[k]), float(lens[rest[k]]))
        viol = viol[1:]
        viol = viol[dist[rows[viol], cols[viol]] > bound[viol]]
    return [(pi[t], pj[t]) for t in added]
