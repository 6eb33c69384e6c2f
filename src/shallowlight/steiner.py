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
`line_groups` sorts its cells by line. Each line carries the minimum piercing
set of its members' cross-sections, found for all lines of the tile in one
`pierce_groups` sweep; p's path hops to the first piercing point inside its
own cross-section on each ladder line (one grouped search for all cells),
then to the source. Vertices are numbered by first use. `steiner_tile_paths`
returns the tile's path graph and its walk table: one row of vertex ids per
net point, from the point through its stop on each level to the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphcore import KIND_INPUT, KIND_SOURCE, KIND_STEINER, GeoGraph
from .hitting import GroupedSorted, pierce_groups

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


def line_groups(line_index):
    """Table cells sorted by (level, line index, row), as (level, row, line)
    arrays; line numbers the distinct (level, line index) pairs from 0 up."""
    m, levels = line_index.shape
    level = np.repeat(np.arange(levels), m)
    j = line_index.T.ravel()
    order = np.lexsort((j, level))
    level, j = level[order], j[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (level[1:] != level[:-1]) | (j[1:] != j[:-1])
    return level, order % max(m, 1), np.cumsum(new) - 1


@dataclass
class SteinerTileResult:
    """Union of per-point ladder paths inside one tile (canonical coords)."""

    graph: GeoGraph
    walk: np.ndarray  # (m, k+2) vertex ids: p, its stop on each level, the source


def steiner_tile_paths(net, eps: float) -> SteinerTileResult:
    """Build the ladder-path union for net points in canonical coordinates."""
    pts = np.asarray(net, dtype=np.float64).reshape(-1, 2)
    m = pts.shape[0]
    k = ladder_depth(eps)  # rejects eps outside (0, 1/16]
    if np.any(pts[:, 0] >= 2.0):
        raise ValueError("steiner_tile_paths: net point at or beyond the source line x=2")
    line_index, x, y_lo, y_hi = ladder_table(pts, eps, k)

    # every line's piercing set in one sweep (a NaN section raises); a member
    # stops at its line's first pierce >= its lo, else at the line's last
    level, row, line = line_groups(line_index)
    lo, hi = y_lo[row, level], y_hi[row, level]
    picks = pierce_groups(line, lo, hi)
    pierce = GroupedSorted(line[picks], hi[picks])
    at = np.minimum(pierce.search(line, lo), np.searchsorted(pierce.group, line, side="right") - 1)
    y = pierce.value[at]
    if not np.all((lo <= y) & (y <= hi)):
        raise ValueError("piercing set misses a member interval")
    stop_y = np.empty((m, k))
    stop_y[row, level] = y

    # vertices by first use over [net, source, stops]; coordinates compare as
    # numbers (adding 0.0 maps -0.0 to 0.0), so a stop on a net point reuses it
    cand = np.vstack([pts, [SOURCE_CANON], np.column_stack([x.ravel(), stop_y.ravel()])])
    key = cand + 0.0
    order = np.lexsort((key[:, 1], key[:, 0]))  # stable: equal points by first use
    key = key[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (key[1:] != key[:-1]).any(axis=1)
    first = order[new]
    if np.count_nonzero(first < m) < m:
        raise ValueError("steiner_tile_paths: duplicate net points")
    by_use = np.argsort(first)
    rank = np.empty_like(by_use)
    rank[by_use] = np.arange(by_use.size)
    vid = np.empty_like(order)
    vid[order] = rank[np.cumsum(new) - 1]
    xy = cand[first[by_use]]
    source_id = m  # net points lie left of x=2, so none is the source
    kind = np.repeat(np.int8([KIND_INPUT, KIND_SOURCE, KIND_STEINER]), [m, 1, len(xy) - m - 1])

    # path rows [p, stops..., source]; a vertex equal to the previous collapses
    walk = np.column_stack([np.arange(m), vid[m + 1:].reshape(m, k), np.full(m, source_id)])
    step = walk[:, 1:] != walk[:, :-1]
    g = GeoGraph.build(xy, kind, np.column_stack([walk[:, :-1][step], walk[:, 1:][step]]))
    return SteinerTileResult(g, walk)
