"""Steiner-free tree builder for one canonical tile.

Where the Steiner builder may bend a path at arbitrary points on the ladder
lines, this variant must route through input points only. Per net point p and
ladder level i, the search region B_i(p) is the bounding box of p's sandwich
ellipse clipped to the vertical strip between consecutive ladder stops L_i(p)
and L_{i+1}(p): x-range (L_i, L_{i+1}] (a point exactly on a line belongs to
the strip on its left), y-range the ellipse cross-section at L_{i+1}, closed.

All net points sharing the line index at level i share the whole strip, so one
minimum hitting set of their boxes (drawn from the tile points inside the
strip) serves them all. A net point hops to the lowest-index hitting-set
member inside each nonempty box, then to the source; pruning removes every
second vertex of adjacent-level pairs so consecutive interior stops stay at
least two levels apart and geometric weights telescope.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .geom import sandwich_ellipse, vertical_cross_section
from .graphcore import KIND_INPUT, KIND_SOURCE, GeoGraph
from .hitting import StripRect, hit_intervals_discrete
from .steiner import SOURCE_CANON, Ladder, ladder_depth, ladder_lines


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


def level_rectangles(p, eps: float, owner: int = -1,
                     ladder: Ladder | None = None) -> list[StripRect | None]:
    """Search boxes B_0..B_{k-1} of p: strip x-ranges, ellipse-section y-ranges.

    A level whose right edge misses p's ellipse yields None (empty box). That
    cannot happen for the ladder the builder passes in, only for custom ones.
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


def prune_path(path: LeveledPath) -> LeveledPath:
    """Drop the second vertex of the first adjacent-level interior pair; repeat.

    Fixpoint: consecutive interior levels differ by at least 2 afterwards.
    """
    verts = list(path.vertices)
    levels = list(path.levels)
    changed = True
    while changed:
        changed = False
        for t in range(len(levels) - 1):
            if levels[t + 1] - levels[t] == 1:
                del verts[t + 2], levels[t + 1]  # vertex t+2 is interior stop t+1
                changed = True
                break
    return LeveledPath(verts, levels)


@dataclass
class StripInfo:
    """One strip shared by the net points whose ladders agree at this level."""

    level: int
    x_lo: float
    x_hi: float
    owners: list[int]  # net point ids routed through this strip
    candidates: list[int]  # tile point ids inside, ascending (y, id)
    hit: list[int]  # chosen hitting-set point ids


@dataclass
class RestrictedTileResult:
    graph: GeoGraph
    source_id: int
    k_levels: int
    paths: list[LeveledPath]  # pruned, one per net point
    raw_paths: list[LeveledPath]
    strips: dict[tuple[int, int], StripInfo]  # keyed by (level, line index)


def restricted_tile_paths(net_idx, pts, eps: float) -> RestrictedTileResult:
    """Build the hitting-set path union over a tile's points (canonical coords).

    net_idx are indices into pts of the tile's centered-net points; every
    point of pts may serve as an interior stop.
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    net = [int(i) for i in net_idx]
    if not 0.0 < eps <= 1.0 / 16.0:
        raise ValueError(f"restricted_tile_paths: eps={eps} outside (0, 1/16]")
    if any(not 0 <= i < n for i in net):
        raise ValueError("restricted_tile_paths: net index out of range")
    if np.any(pts[:, 0] >= 2.0):
        raise ValueError("restricted_tile_paths: point at or beyond the source line x=2")
    k = ladder_depth(eps)
    source_id = n

    ladders = {p: ladder_lines(pts[p], eps, levels=k + 1) for p in net}
    rects = {p: level_rectangles(pts[p], eps, owner=p, ladder=ladders[p]) for p in net}

    by_x = np.argsort(pts[:, 0], kind="stable")
    xs_sorted = pts[by_x, 0]

    members: dict[tuple[int, int], list[int]] = {}
    for p in net:
        for i in range(k):
            members.setdefault((i, ladders[p].line_index[i]), []).append(p)

    strips: dict[tuple[int, int], StripInfo] = {}
    nonempty: dict[tuple[int, int], bool] = {}
    picks: dict[tuple[int, int], int] = {}  # (net point, level) -> stop id
    for key in sorted(members):
        level, _ = key
        owners = members[key]
        lad = ladders[owners[0]]
        x_lo, x_hi = lad.x(level), lad.x(level + 1)
        lo_pos = int(np.searchsorted(xs_sorted, x_lo, side="right"))
        hi_pos = int(np.searchsorted(xs_sorted, x_hi, side="right"))
        ids = by_x[lo_pos:hi_pos]
        ids = ids[np.lexsort((ids, pts[ids, 1]))]
        cand_ids = [int(v) for v in ids]
        cand_ys = [float(pts[v, 1]) for v in cand_ids]
        intervals = []
        interval_owner = []
        for p in owners:
            r = rects[p][level]
            if r is None:  # unreachable with builder ladders, kept for safety
                nonempty[(p, level)] = False
                continue
            j = bisect.bisect_left(cand_ys, r.y_lo)
            ok = j < len(cand_ys) and cand_ys[j] <= r.y_hi
            nonempty[(p, level)] = ok
            if ok:
                intervals.append((r.y_lo, r.y_hi))
                interval_owner.append(p)
        hit_pos = hit_intervals_discrete(intervals, cand_ys) if intervals else []
        hit_ids = [cand_ids[t] for t in hit_pos]
        for p in interval_owner:
            r = rects[p][level]
            picks[(p, level)] = min(
                v for v in hit_ids if r.y_lo <= pts[v, 1] <= r.y_hi
            )
        strips[key] = StripInfo(level, x_lo, x_hi, owners, cand_ids, hit_ids)

    raw_paths: list[LeveledPath] = []
    paths: list[LeveledPath] = []
    edges: list[tuple[int, int]] = []
    for p in net:
        verts = [p]
        levels = []
        for i in range(k):
            if nonempty[(p, i)]:
                verts.append(picks[(p, i)])
                levels.append(i)
        verts.append(source_id)
        raw = LeveledPath(verts, levels)
        pruned = prune_path(raw)
        raw_paths.append(raw)
        paths.append(pruned)
        vs = pruned.vertices
        edges.extend((vs[t], vs[t + 1]) for t in range(len(vs) - 1) if vs[t] != vs[t + 1])

    xy = np.vstack([pts, [SOURCE_CANON]])
    kind = np.full(n + 1, KIND_INPUT, dtype=np.int8)
    kind[source_id] = KIND_SOURCE
    g = GeoGraph.build(xy, kind, edges or np.empty((0, 2)))
    return RestrictedTileResult(g, source_id, k, paths, raw_paths, strips)
