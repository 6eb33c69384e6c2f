"""Steiner-free tree builder for one canonical tile.

Where the Steiner builder may bend a path at arbitrary points on the ladder
lines, this variant must route through input points only. Per net point p and
ladder level i, the search region B_i(p) is the bounding box of p's sandwich
ellipse clipped to the vertical strip between consecutive ladder stops L_i(p)
and L_{i+1}(p): x-range (L_i, L_{i+1}] (a point exactly on a line belongs to
the strip on its left), y-range the ellipse cross-section at L_{i+1}, closed.
Both are read from `steiner.ladder_table` with k+1 levels: column i gives the
left edge, column i+1 the right edge and y-range (NaN, so empty, on a miss).

All net points sharing the line index at level i share the whole strip, so one
minimum hitting set of their boxes (drawn from the tile points inside the
strip) serves them all. A net point hops to the lowest-index hitting-set
member inside each nonempty box, then to the source. One pruning pass drops
each stop one level above the last kept stop, so consecutive interior stops
stay at least two levels apart and geometric weights telescope.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .graphcore import KIND_INPUT, KIND_SOURCE, GeoGraph
from .hitting import hit_intervals_discrete
from .steiner import SOURCE_CANON, ladder_depth, ladder_table, line_groups


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
    for level, j, rows in line_groups(line_index[:, :k]):
        x_lo, x_hi = float(x[rows[0], level]), float(x[rows[0], level + 1])
        lo_pos, hi_pos = np.searchsorted(xs_sorted, [x_lo, x_hi], side="right")
        ids = by_x[lo_pos:hi_pos]
        ids = ids[np.lexsort((ids, pts[ids, 1]))]
        cand_ids, cand_ys = ids.tolist(), pts[ids, 1].tolist()
        lo, hi = los[level + 1], his[level + 1]  # owners' boxes; a NaN box holds no point
        first = [bisect.bisect_left(cand_ys, lo[r]) for r in rows]
        boxes = [r for r, t in zip(rows, first) if t < len(cand_ys) and cand_ys[t] <= hi[r]]
        hit = hit_intervals_discrete([(lo[r], hi[r]) for r in boxes], cand_ys)
        for r in boxes:
            stops[r][level] = min(cand_ids[t] for t in hit if lo[r] <= cand_ys[t] <= hi[r])
        strips[(level, j)] = StripInfo(
            level, x_lo, x_hi, net[rows].tolist(), cand_ids, [cand_ids[t] for t in hit])

    raw_paths = [LeveledPath([p, *stop.values(), source_id], list(stop))
                 for p, stop in zip(net.tolist(), stops)]
    paths = [prune_path(raw) for raw in raw_paths]
    edges = [e for path in paths for e in zip(path.vertices, path.vertices[1:])]
    kind = np.repeat(np.int8([KIND_INPUT, KIND_SOURCE]), [n, 1])
    g = GeoGraph.build(np.vstack([pts, [SOURCE_CANON]]), kind, edges)
    return RestrictedTileResult(g, source_id, k, paths, raw_paths, strips)
