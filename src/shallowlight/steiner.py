"""Steiner tree builder for one canonical tile.

Works in the tile's canonical frame: the source sits at (2, 0) and the tile's
net points occupy a thin box around [0, 1] x {0}. Vertical line families
L_i = {x = j * 4^i * eps} are shared by all points (synchronized ladders), so
points whose ladders meet pierce the same lines and share Steiner points.

Per net point p the ladder is: L_0(p) = second line of family 0 strictly
right of p, then L_i(p) = second line of family i strictly right of
L_{i-1}(p). Line positions are tracked as integer indices, which makes the
spacing exactly (8 - (j mod 4)) * 4^{i-1} * eps, inside [4^i eps, 2 * 4^i eps].

`ladder_table` holds all ladders and sandwich-ellipse sections as arrays, and
`line_groups` groups them by line. Each line carries the minimum piercing set
of its members' cross-sections; p's path hops to the first piercing point
inside its own cross-section on each ladder line, then to the source.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .graphcore import KIND_INPUT, KIND_SOURCE, KIND_STEINER, GeoGraph
from .hitting import pierce_intervals

SOURCE_CANON = (2.0, 0.0)


def ladder_depth(eps: float) -> int:
    """Number of ladder levels: max(1, floor(log4(1/(16 eps))) + 1)."""
    if not 0.0 < eps <= 1.0 / 16.0:
        raise ValueError(f"ladder_depth: eps={eps} outside (0, 1/16]")
    return max(1, math.floor(math.log(1.0 / (16.0 * eps), 4.0)) + 1)


def ladder_table(pts, eps: float, levels: int):
    """Ladder lines and ellipse sections of every point, shape (m, levels) each.

    Returns (line_index, x, y_lo, y_hi): row p, column i holds p's level-i line
    and the y-range where it crosses `sandwich_ellipse(p, SOURCE_CANON, eps)`,
    NaN where it misses. The outer focus lies on p's horizontal line, so the
    focal distance is |dx| and each cell equals `vertical_cross_section` bit
    for bit. Like `sandwich_ellipse`, it rejects |slope(p, source)| > sqrt(eps).
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise ValueError("ladder_table: non-finite point")
    px, py = pts[:, :1], pts[:, 1:]
    line_index = np.empty((pts.shape[0], levels), dtype=np.int64)
    j = np.floor(px[:, 0] / eps).astype(np.int64) + 2
    for i in range(levels):
        line_index[:, i] = j
        j = j // 4 + 2
    x = line_index * (4.0 ** np.arange(levels) * eps)
    bx = 2.0 * SOURCE_CANON[0] - px  # outer focus (bx, py)
    xc = 0.5 * (px + bx)
    a_semi = 0.5 * ((1.0 + 2.0 * eps) * np.abs(px - bx))
    c = 0.5 * np.abs(bx - px)
    b_semi = np.sqrt(np.maximum(a_semi * a_semi - c * c, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.abs((SOURCE_CANON[1] - py) / (SOURCE_CANON[0] - px))
        u = (x - xc) / a_semi
        h = np.where(np.abs(u) > 1.0, np.nan, b_semi * np.sqrt(1.0 - u * u))
    if not (slope <= math.sqrt(eps)).all():
        raise ValueError(f"ladder_table: |slope| to the source > sqrt(eps)={math.sqrt(eps):.6g}")
    return line_index, x, py - h, py + h


def line_groups(line_index) -> list[tuple[int, int, list[int]]]:
    """Table cells by line, ascending: (level, line index, member rows ascending)."""
    m, levels = line_index.shape
    level = np.repeat(np.arange(levels), m)
    j = line_index.T.ravel()
    order = np.lexsort((j, level))
    if order.size == 0:
        return []
    cut = np.flatnonzero((np.diff(level[order]) != 0) | (np.diff(j[order]) != 0)) + 1
    bounds = [0, *cut.tolist(), order.size]
    starts, rows = order[bounds[:-1]], (order % m).tolist()
    return list(zip(level[starts].tolist(), j[starts].tolist(),
                    (rows[a:b] for a, b in zip(bounds, bounds[1:]))))


@dataclass
class SteinerTileResult:
    """Union of per-point ladder paths inside one tile (canonical coords)."""

    graph: GeoGraph
    paths: list[list[int]]  # vertex ids, p first, source last
    source_id: int
    k_levels: int
    # (level, line index) -> (x, member point ids, piercing y values ascending)
    lines: dict[tuple[int, int], tuple[float, list[int], list[float]]]


def steiner_tile_paths(net, eps: float) -> SteinerTileResult:
    """Build the ladder-path union for net points in canonical coordinates."""
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
    for lvl, j, rows in line_groups(line_index):
        lo, hi = los[lvl], his[lvl]
        pierce = pierce_intervals([(lo[r], hi[r]) for r in rows])
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
    keep = np.diff(walk, axis=1, prepend=-1) != 0
    paths = [row[kept].tolist() for row, kept in zip(walk, keep)]
    edges = [e for path in paths for e in zip(path, path[1:])]
    g = GeoGraph.build(xy, kind, edges)
    return SteinerTileResult(g, paths, source_id, k, lines)
