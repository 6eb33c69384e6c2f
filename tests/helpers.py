"""Shared test utilities: oracles and samplers the suites compare against."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from itertools import combinations
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import cKDTree

from shallowlight.geom import sandwich_ellipse, vertical_cross_section
from shallowlight.graphcore import KIND_INPUT, KIND_SOURCE, KIND_STEINER, GeoGraph
from shallowlight.hitting import GroupedSorted, hit_groups_discrete, pierce_groups
from shallowlight.instances import Instance
from shallowlight.oracles import StripRect
from shallowlight.steiner import SOURCE_CANON, ladder_depth, ladder_table
from shallowlight.tiling import TileId, tiles_of

# Relative tolerance for boundary membership: points constructed exactly on an
# ellipse boundary (e.g. piercing points at interval endpoints) must test inside.
CONTAINS_RTOL = 1e-12


def ellipse_contains(e, q) -> bool:
    """Membership with relative tolerance: d-sum <= dist_sum * (1 + 1e-12)."""
    s = math.dist(e.f1, q) + math.dist(e.f2, q)
    return s <= e.dist_sum * (1.0 + CONTAINS_RTOL)


def make_instance(points, eps, source_index=0) -> Instance:
    return Instance(np.asarray(points, dtype=np.float64), source_index, eps)


def brute_force_min_hitting(intervals, candidates=None) -> list[float]:
    """Exhaustive minimum piercing/hitting oracle for <= 15 intervals.

    With candidates=None the candidate pool is the right endpoints (an optimal
    continuous piercing always exists there). Returns the values of one
    minimum solution, ascending.
    """
    ivs = [(float(lo), float(hi)) for lo, hi in intervals]
    if any(not lo <= hi for lo, hi in ivs):
        raise ValueError("malformed interval")
    if len(ivs) > 15:
        raise ValueError("brute_force_min_hitting: more than 15 intervals")
    if candidates is None:
        pool = sorted({hi for _, hi in ivs})
    else:
        if len(candidates) > 15:
            raise ValueError("brute_force_min_hitting: more than 15 candidates")
        pool = sorted(float(c) for c in candidates)
    masks = []
    for v in pool:
        m = 0
        for bit, (lo, hi) in enumerate(ivs):
            if lo <= v <= hi:
                m |= 1 << bit
        masks.append(m)
    full = (1 << len(ivs)) - 1
    if full == 0:
        return []
    for size in range(1, len(pool) + 1):
        for combo in combinations(range(len(pool)), size):
            m = 0
            for i in combo:
                m |= masks[i]
            if m == full:
                return [pool[i] for i in combo]
    raise ValueError("no hitting set exists within the candidate pool")


@dataclass(frozen=True)
class Ladder:
    """Ladder lines of one point: line i sits at x = line_index[i] * 4^i * eps."""

    eps: float
    line_index: tuple[int, ...]

    @property
    def levels(self) -> int:
        return len(self.line_index)

    def x(self, i: int) -> float:
        return self.line_index[i] * (4.0**i * self.eps)


def ladder_lines(p, eps: float, levels: int | None = None) -> Ladder:
    """One `ladder_table` row: p's second line of each family strictly right of the last."""
    k = ladder_depth(eps) if levels is None else int(levels)
    if k < 1:
        raise ValueError("ladder_lines: levels must be >= 1")
    line_index, _, _, _ = ladder_table([p], eps, k)
    return Ladder(eps, tuple(line_index[0].tolist()))


def tile_of(p, params) -> TileId:
    """Tile containing p: a one-row call to tiles_of, so its rounding on the
    sector rays, sector = floor(phi * (k / 2pi)), is exactly the pipeline's."""
    rings, sectors = tiles_of(np.asarray(p, dtype=np.float64).reshape(1, 2), params)
    return TileId(rings[0], sectors[0])


def to_canonical(frame, q):
    """One point into a tile's canonical frame: a one-row to_canonical_many."""
    return tuple(frame.to_canonical_many(np.reshape(q, (1, 2)))[0].tolist())


def from_canonical(frame, q):
    """One point out of a tile's canonical frame: a one-row from_canonical_many."""
    return tuple(frame.from_canonical_many(np.reshape(q, (1, 2)))[0].tolist())


def chain_root_distances(parent, xy, root: int) -> np.ndarray:
    """Scalar reference for graphcore.root_distances: walk each parent chain
    up to a known sum, then add math.dist edge lengths back down."""
    m = len(parent)
    dist = np.full(m, -1.0)
    dist[root] = 0.0
    for v in range(m):
        chain = []
        u = v
        while dist[u] < 0.0:
            chain.append(u)
            u = parent[u]
            if len(chain) > m:
                raise ValueError(f"parent chain of vertex {v} has a cycle")
        acc = dist[u]
        for w in reversed(chain):
            acc += math.dist(xy[w], xy[parent[w]])
            dist[w] = acc
    return dist


def reference_cluster_spanner(cluster) -> list[tuple[int, int]]:
    """Plain path-greedy 2-spanner, the reference for cnet.cluster_spanner.

    Pairs ascend by (distance, i, j); an edge joins the spanner iff the
    current spanner distance between its endpoints exceeds 2x its length.
    The all-pairs distances get a full-matrix update per added edge.
    """
    xy = np.asarray(cluster, dtype=np.float64).reshape(-1, 2)
    m = xy.shape[0]
    if m <= 1:
        return []
    if m == 2:
        return [(0, 1)]
    diff = xy[:, None, :] - xy[None, :, :]
    dm = np.hypot(diff[..., 0], diff[..., 1])
    iu, ju = np.triu_indices(m, 1)
    lens = dm[iu, ju]
    order = np.lexsort((ju, iu, lens))
    pi = iu[order]
    pj = ju[order]
    plen = lens[order]
    dist = np.full((m, m), np.inf)
    np.fill_diagonal(dist, 0.0)
    edges: list[tuple[int, int]] = []
    pos = 0
    npairs = plen.shape[0]
    while pos < npairs:
        # all pairs until the next added edge see the same distance matrix,
        # so the sequential greedy reduces to a vectorized scan
        viol = dist[pi[pos:], pj[pos:]] > 2.0 * plen[pos:]
        hit = np.argmax(viol)
        if not viol[hit]:
            break
        pos += int(hit)
        i, j, w = int(pi[pos]), int(pj[pos]), float(plen[pos])
        edges.append((i, j))
        # exact incremental APSP: a shortest path uses the new edge at most once
        cand = np.minimum(dist[:, i][:, None] + w + dist[j, :][None, :],
                          dist[:, j][:, None] + w + dist[i, :][None, :])
        np.minimum(dist, cand, out=dist)
        pos += 1
    return edges


def reference_prim_dense(xy: np.ndarray) -> np.ndarray:
    """Dense Prim with an in-tree mask, the reference for graphcore._prim_dense."""
    n = xy.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=np.int64)
    in_tree[0] = True
    best[0] = np.inf
    d0 = np.hypot(xy[:, 0] - xy[0, 0], xy[:, 1] - xy[0, 1])
    mask = ~in_tree
    best[mask] = d0[mask]
    edges = np.empty((n - 1, 2), dtype=np.int64)
    for t in range(n - 1):
        u = int(np.argmin(np.where(in_tree, np.inf, best)))
        edges[t] = (best_from[u], u)
        in_tree[u] = True
        du = np.hypot(xy[:, 0] - xy[u, 0], xy[:, 1] - xy[u, 1])
        closer = (~in_tree) & (du < best)
        best[closer] = du[closer]
        best_from[closer] = u
    return edges


def reference_mst_knn(xy: np.ndarray) -> np.ndarray:
    """k-NN candidate MST built through a COO matrix, the reference for
    graphcore._mst_knn's direct CSR layout (inputs without repeated points)."""
    n = xy.shape[0]
    k = 16
    tree = cKDTree(xy)
    while True:
        kk = min(k + 1, n)
        _, idx = tree.query(xy, k=kk)
        rows = np.repeat(np.arange(n), kk - 1)
        cols = idx[:, 1:].reshape(-1)
        w = np.hypot(xy[rows, 0] - xy[cols, 0], xy[rows, 1] - xy[cols, 1])
        t = minimum_spanning_tree(csr_matrix((w, (rows, cols)), shape=(n, n))).tocoo()
        if t.nnz == n - 1:
            e = np.sort(np.stack([t.row, t.col], axis=1).astype(np.int64), axis=1)
            return e[np.lexsort((e[:, 1], e[:, 0]))]
        if kk >= n:
            raise RuntimeError("k-NN MST failed to connect at k=n")
        k *= 2


def level_rectangles(p, eps: float, owner: int = -1,
                     ladder: Ladder | None = None) -> list[StripRect | None]:
    """Search boxes B_0..B_{k-1} of p: strip x-ranges, ellipse-section y-ranges.

    The scalar reference for the boxes `restricted_tile_paths` reads from
    `ladder_table`. A level whose right edge misses p's ellipse yields None
    (empty box). That cannot happen for the builder's ladders, only for
    custom ones.
    """
    if ladder is None:
        ladder = ladder_lines(p, eps, levels=ladder_depth(eps) + 1)
    e = sandwich_ellipse(p, SOURCE_CANON, eps)
    out: list[StripRect | None] = []
    for i in range(ladder.levels - 1):
        x_lo, x_hi = ladder.x(i), ladder.x(i + 1)
        iv = vertical_cross_section(e, x_hi)
        out.append(None if iv is None else StripRect(x_lo, x_hi, iv.lo, iv.hi, owner))
    return out


def floyd_warshall(n: int, edges) -> np.ndarray:
    """Dense all-pairs shortest paths; edges are (u, v, w) triples."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in edges:
        if w < d[u, v]:
            d[u, v] = d[v, u] = w
    for m in range(n):
        d = np.minimum(d, d[:, m, None] + d[None, m, :])
    return d


def ellipse_frame(e):
    """(center, a_semi, b_semi, cos t, sin t) of a focal ellipse."""
    f1 = np.asarray(e.f1, dtype=np.float64)
    f2 = np.asarray(e.f2, dtype=np.float64)
    c = 0.5 * (f1 + f2)
    a = 0.5 * e.dist_sum
    foc = 0.5 * float(np.hypot(*(f2 - f1)))
    b = math.sqrt(max(a * a - foc * foc, 0.0))
    if foc > 0.0:
        ct, st = (f2 - c) / foc
    else:
        ct, st = 1.0, 0.0
    return c, a, b, float(ct), float(st)


def sample_ellipse(e, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-in-area sample of a focal ellipse, boundary included."""
    c, a, b, ct, st = ellipse_frame(e)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    r = np.sqrt(rng.uniform(0.0, 1.0, count))
    r[: max(count // 10, 1)] = 1.0  # force some exact boundary points
    ex = a * r * np.cos(phi)
    ey = b * r * np.sin(phi)
    return np.stack([c[0] + ct * ex - st * ey, c[1] + st * ex + ct * ey], axis=1)


def dist_sums(e, qs: np.ndarray) -> np.ndarray:
    f1 = np.asarray(e.f1)
    f2 = np.asarray(e.f2)
    return np.hypot(qs[:, 0] - f1[0], qs[:, 1] - f1[1]) + np.hypot(
        qs[:, 0] - f2[0], qs[:, 1] - f2[1]
    )


def inner_horizontal_focus(p, s):
    """Point a on the horizontal through p with d(p,a) = d(a,s)."""
    px, py = float(p[0]), float(p[1])
    sx, sy = float(s[0]), float(s[1])
    if px == sx:
        raise ValueError("p and s on a vertical line")
    dy = py - sy
    return (0.5 * (px + sx) + dy * dy / (2.0 * (sx - px)), py)


def loglog_slope(inv_eps, values) -> float:
    """Least-squares slope of log(values) against log(inv_eps)."""
    x = np.log(np.asarray(inv_eps, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    x = x - x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())


def tree_edge_set(tree):
    """Frozen set of (min, max) parent edges of a RootedTree."""
    return {
        (min(v, int(p)), max(v, int(p)))
        for v, p in enumerate(tree.parent.tolist())
        if p >= 0
    }


def exit_lower_bound(instance, region, eps: float) -> float:
    """Weight that any spanning tree of root-stretch <= 1+eps spends leaving `region`.

    `region` is a set of input-point indices that excludes the source. In such
    a tree the root path of each p in the region leaves it at an exit q, the
    last path vertex inside, whose parent r lies outside; hence
    |p-q| + |q-r| + |r-s| <= (1+eps)|p-s|. Call q a feasible exit of p when
    some outside r satisfies this, and let c(p) be the smallest |q-r| over
    all such feasible (q, r). Points whose sets of feasible exits are pairwise
    disjoint have distinct exits, each paying for its own parent edge, so the
    sum of their c(p) bounds the tree weight from below. Points are taken
    greedily by decreasing c(p). Bounds of disjoint regions add up, since
    their exits are distinct vertices too.

    The stretch tolerance is the 1e-9 relative slack of `brute_force_opt_st`.
    """
    region = np.unique(np.asarray(region, dtype=np.int64))
    if instance.source_index in region.tolist():
        raise ValueError("exit_lower_bound: region contains the source")
    if region.size == 0:
        return 0.0
    pts = instance.points
    src = pts[instance.source_index]
    inside = np.zeros(instance.n, dtype=bool)
    inside[region] = True
    ps = pts[region]
    outs = pts[~inside]
    out_to_s = np.hypot(outs[:, 0] - src[0], outs[:, 1] - src[1])
    budget = (1.0 + eps) * (1.0 + 1e-9) * np.hypot(ps[:, 0] - src[0], ps[:, 1] - src[1])
    p_to_q = np.hypot(ps[:, None, 0] - ps[None, :, 0], ps[:, None, 1] - ps[None, :, 1])

    # cost[p, q]: the cheapest parent edge of q on a feasible root path of p
    m = region.size
    cost = np.full((m, m), np.inf)
    chunk = 256  # rows of q per pass; keeps the (q, r) matrices near 8 MB
    for q0 in range(0, m, chunk):
        qs = ps[q0 : q0 + chunk]
        q_to_r = np.hypot(qs[:, None, 0] - outs[None, :, 0], qs[:, None, 1] - outs[None, :, 1])
        # per q, sort r by |q-r| + |r-s| (independent of p); a prefix minimum
        # of |q-r| then answers every p with one binary search
        detour = q_to_r + out_to_s[None, :]
        by_detour = np.argsort(detour, axis=1, kind="stable")
        detour = np.take_along_axis(detour, by_detour, axis=1)
        cheapest = np.minimum.accumulate(np.take_along_axis(q_to_r, by_detour, axis=1), axis=1)
        for j in range(qs.shape[0]):
            q = q0 + j
            last = np.searchsorted(detour[j], budget - p_to_q[:, q], side="right") - 1
            ok = last >= 0
            cost[ok, q] = cheapest[j, last[ok]]

    feasible = np.isfinite(cost)
    c = cost.min(axis=1)
    used = np.zeros(m, dtype=bool)
    total = 0.0
    for p in np.argsort(-c, kind="stable").tolist():
        if not (used & feasible[p]).any():
            used |= feasible[p]
            total += float(c[p])
    return total


def tooth_regions(instance) -> list[np.ndarray]:
    """Input points above the bottom edge (y > 0), grouped by x: one region per tooth."""
    pts = instance.points
    above = np.flatnonzero(pts[:, 1] > 0.0)
    above = above[above != instance.source_index]
    xs = pts[above, 0]
    return [above[xs == x] for x in np.unique(xs)]


# --- scalar references for the array tile routers ------------------------------
# The per-line and per-strip forms the routers in steiner.py, restricted.py and
# hitting.py replaced; the array forms must give the same graphs and stops.


def pierce_intervals(intervals) -> list[float]:
    """Minimum piercing set, ascending: the product's pierce_groups over one group.

    Every returned point is some interval's hi.
    """
    ivs = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    picks = pierce_groups(np.zeros(len(ivs), dtype=np.int64), ivs[:, 0], ivs[:, 1])
    return ivs[picks, 1].tolist()


def hit_intervals_discrete(intervals, candidates) -> list[int]:
    """Minimum hitting set drawn from candidates, as candidate indices: the
    product's hit_groups_discrete over one group.

    An unhit interval, in ascending (hi, lo) order, is assigned the largest
    candidate value <= hi, ties on equal values to the lowest candidate index.
    Errors if some interval contains no candidate.
    """
    ivs = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    vals = np.asarray(candidates, dtype=np.float64).reshape(-1)
    by_value = np.argsort(vals, kind="stable")
    cand = GroupedSorted(np.zeros(vals.size, dtype=np.int64), vals[by_value])
    picks = hit_groups_discrete(np.zeros(len(ivs), dtype=np.int64), ivs[:, 0], ivs[:, 1], cand)
    return by_value[picks].tolist()


@dataclass
class LeveledPath:
    """Path p -> interior stops -> source; one ladder level per interior stop."""

    vertices: list[int]
    levels: list[int]

    def __post_init__(self):
        if len(self.vertices) != len(self.levels) + 2:
            raise ValueError("LeveledPath: levels must cover exactly the interior")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("LeveledPath: levels must be strictly increasing")

    @property
    def interior(self) -> list[int]:
        return self.vertices[1:-1]


@dataclass
class StripInfo:
    """One strip shared by the net points whose ladders agree at this level."""

    level: int
    x_lo: float
    x_hi: float
    owners: list[int]  # net point ids routed through this strip
    candidates: list[int]  # tile point ids inside, ascending (y, id)
    hit: list[int]  # chosen hitting-set point ids


def walk_paths(walk) -> list[list[int]]:
    """Steiner paths from a walk table: vertex ids per net point, p first,
    source last, repeats collapsed."""
    keep = np.diff(walk, axis=1, prepend=-1) != 0
    return [row[kept].tolist() for row, kept in zip(walk, keep)]


def leveled_paths(net_idx, stop, kept, source_id: int) -> list[LeveledPath]:
    """Restricted paths from a stop table: per net point, the stops where
    kept is set (stop >= 0 for the raw paths, keep for the pruned ones)."""
    levels = [np.flatnonzero(row).tolist() for row in kept]
    return [LeveledPath([p, *row[lv].tolist(), source_id], lv)
            for p, row, lv in zip(np.ravel(net_idx).tolist(), stop, levels)]


def assert_same_tile(res, ref):
    """A tile router's result equals its reference's: every array of the
    graph and of the stop table, in dtype, shape and bytes."""
    pairs = [(f"graph.{f.name}", getattr(res.graph, f.name), getattr(ref.graph, f.name))
             for f in fields(res.graph)]
    pairs += [(f.name, getattr(res, f.name), getattr(ref, f.name))
              for f in fields(res) if f.name != "graph"]
    for name, got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def _check(intervals):
    out = []
    for iv in intervals:
        lo, hi = float(iv[0]), float(iv[1])
        if not lo <= hi:
            raise ValueError(f"malformed interval [{lo}, {hi}]")
        out.append((lo, hi))
    return out


def reference_pierce_intervals(intervals) -> list[float]:
    """Minimum piercing set, ascending. Greedy sweep picking right endpoints."""
    ivs = _check(intervals)
    pts: list[float] = []
    last = None
    for lo, hi in sorted(ivs, key=lambda t: (t[1], t[0])):
        if last is None or lo > last:
            pts.append(hi)
            last = hi
    return pts


def reference_hit_intervals_discrete(intervals, candidates) -> list[int]:
    """Minimum hitting set drawn from candidates; returns candidate indices.

    Greedy by ascending right endpoint: an unhit interval is assigned the
    largest candidate value <= hi (ties on equal values break to the lowest
    candidate index). Errors if some interval contains no candidate.
    """
    ivs = _check(intervals)
    cand = [(float(c), i) for i, c in enumerate(candidates)]
    cand.sort()
    chosen: list[int] = []
    chosen_vals: list[float] = []
    vals = [v for v, _ in cand]
    for lo, hi in sorted(ivs, key=lambda t: (t[1], t[0])):
        if chosen_vals and lo <= chosen_vals[-1] <= hi:
            continue
        j = bisect.bisect_right(vals, hi) - 1
        if j < 0 or vals[j] < lo:
            raise ValueError(f"interval [{lo}, {hi}] contains no candidate")
        # step to the lowest candidate index among equal values
        while j > 0 and vals[j - 1] == vals[j]:
            j -= 1
        chosen.append(cand[j][1])
        chosen_vals.append(vals[j])
    return chosen


def reference_line_groups(line_index) -> list[tuple[int, int, list[int]]]:
    """Table cells by line, ascending: (level, line index, member rows ascending)."""
    groups: dict[tuple[int, int], list[int]] = {}
    m, levels = np.shape(line_index)
    for lvl in range(levels):
        for r in range(m):
            groups.setdefault((lvl, int(line_index[r, lvl])), []).append(r)
    return [(lvl, j, rows) for (lvl, j), rows in sorted(groups.items())]


def prune_path(path: LeveledPath) -> LeveledPath:
    """Drop each interior stop whose level is one above the last kept stop's level.

    One pass; consecutive interior levels differ by at least 2 afterwards.
    """
    verts, levels = [path.vertices[0]], []
    for v, level in zip(path.interior, path.levels):
        if not levels or level != levels[-1] + 1:
            verts.append(v)
            levels.append(level)
    verts.append(path.vertices[-1])
    return LeveledPath(verts, levels)


def reference_steiner_tile_paths(net, eps: float):
    """steiner_tile_paths, one pierce_intervals call per line."""
    pts = np.asarray(net, dtype=np.float64).reshape(-1, 2)
    m = pts.shape[0]
    k = ladder_depth(eps)  # rejects eps outside (0, 1/16]
    if np.any(pts[:, 0] >= 2.0):
        raise ValueError("steiner_tile_paths: net point at or beyond the source line x=2")
    line_index, x, y_lo, y_hi = ladder_table(pts, eps, k)

    # a member stops at its line's first pierce >= its y_lo (a NaN section raises)
    lines: dict[tuple[int, int], tuple[float, list[int], list[float]]] = {}
    xs, los, his = x.T.tolist(), y_lo.T.tolist(), y_hi.T.tolist()  # [level][row]
    stop_y = np.empty((k, m))
    for lvl, j, rows in reference_line_groups(line_index):
        lo, hi = los[lvl], his[lvl]
        pierce = reference_pierce_intervals([(lo[r], hi[r]) for r in rows])
        for r in rows:
            y = pierce[min(bisect.bisect_left(pierce, lo[r]), len(pierce) - 1)]
            if not lo[r] <= y <= hi[r]:
                raise ValueError("piercing set misses a member interval")
            stop_y[lvl, r] = y
        lines[(lvl, j)] = (xs[lvl][rows[0]], rows, pierce)

    # vertices by first use over [net, source, stops]; coordinates compare as
    # numbers (adding 0.0 maps -0.0 to 0.0), so a stop on a net point reuses it
    cand = np.vstack([pts, [SOURCE_CANON], np.column_stack([x.ravel(), stop_y.T.ravel()])])
    _, first, inverse = np.unique(cand + 0.0, axis=0, return_index=True, return_inverse=True)
    if np.count_nonzero(first < m) < m:
        raise ValueError("steiner_tile_paths: duplicate net points")
    by_use = np.argsort(first)
    vid = np.argsort(by_use)[inverse.ravel()]
    xy = cand[first[by_use]]
    source_id = m  # net points lie left of x=2, so none is the source
    kind = np.repeat(np.int8([KIND_INPUT, KIND_SOURCE, KIND_STEINER]), [m, 1, len(xy) - m - 1])

    # path rows [p, stops..., source]; a vertex equal to the previous collapses
    walk = np.column_stack([np.arange(m), vid[m + 1:].reshape(m, k), np.full(m, source_id)])
    edges = [e for path in walk_paths(walk) for e in zip(path, path[1:])]
    g = GeoGraph.build(xy, kind, edges)
    return SimpleNamespace(graph=g, walk=walk, lines=lines)


def reference_restricted_tile_paths(net_idx, pts, eps: float):
    """restricted_tile_paths, one hit_intervals_discrete call per strip."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    net = np.asarray(net_idx, dtype=np.int64).reshape(-1)
    k = ladder_depth(eps)  # rejects eps outside (0, 1/16]
    if np.any((net < 0) | (net >= n)):
        raise ValueError("restricted_tile_paths: net index out of range")
    if np.any(pts[:, 0] >= 2.0):
        raise ValueError("restricted_tile_paths: point at or beyond the source line x=2")
    source_id = n
    line_index, x, y_lo, y_hi = ladder_table(pts[net], eps, k + 1)

    by_x = np.argsort(pts[:, 0], kind="stable")
    xs_sorted = pts[by_x, 0]
    los, his = y_lo.T.tolist(), y_hi.T.tolist()  # [level][net position]
    strips: dict[tuple[int, int], StripInfo] = {}
    stops = [{} for _ in range(net.size)]  # level -> stop id, filled in ascending level
    for level, j, rows in reference_line_groups(line_index[:, :k]):
        x_lo, x_hi = float(x[rows[0], level]), float(x[rows[0], level + 1])
        lo_pos, hi_pos = np.searchsorted(xs_sorted, [x_lo, x_hi], side="right")
        ids = by_x[lo_pos:hi_pos]
        ids = ids[np.lexsort((ids, pts[ids, 1]))]
        cand_ids, cand_ys = ids.tolist(), pts[ids, 1].tolist()
        lo, hi = los[level + 1], his[level + 1]  # owners' boxes; a NaN box holds no point
        first = [bisect.bisect_left(cand_ys, lo[r]) for r in rows]
        boxes = [r for r, t in zip(rows, first) if t < len(cand_ys) and cand_ys[t] <= hi[r]]
        hit = reference_hit_intervals_discrete([(lo[r], hi[r]) for r in boxes], cand_ys)
        for r in boxes:
            stops[r][level] = min(cand_ids[t] for t in hit if lo[r] <= cand_ys[t] <= hi[r])
        strips[(level, j)] = StripInfo(
            level, x_lo, x_hi, net[rows].tolist(), cand_ids, [cand_ids[t] for t in hit])

    stop = np.full((net.size, k), -1, dtype=np.int64)
    keep = np.zeros((net.size, k), dtype=bool)
    edges = []
    for r, (p, own) in enumerate(zip(net.tolist(), stops)):
        stop[r, list(own)] = list(own.values())
        path = prune_path(LeveledPath([p, *own.values(), source_id], list(own)))
        keep[r, path.levels] = True
        edges += zip(path.vertices, path.vertices[1:])
    kind = np.repeat(np.int8([KIND_INPUT, KIND_SOURCE]), [n, 1])
    g = GeoGraph.build(np.vstack([pts, [SOURCE_CANON]]), kind, edges)
    return SimpleNamespace(graph=g, stop=stop, keep=keep, strips=strips)
