"""Steiner tree builder for one canonical tile.

Works in the tile's canonical frame: the source sits at (2, 0) and the tile's
net points occupy a thin box around [0, 1] x {0}. Vertical line families
L_i = {x = j * 4^i * eps} are shared by all points (synchronized ladders), so
points whose ladders meet pierce the same lines and share Steiner points.

Per net point p the ladder is: L_0(p) = second line of family 0 strictly
right of p, then L_i(p) = second line of family i strictly right of
L_{i-1}(p). Line positions are tracked as integer indices, which makes the
spacing exactly (8 - (j mod 4)) * 4^{i-1} * eps, inside [4^i eps, 2 * 4^i eps].

Each line carries the minimum piercing set of the cross-sections of its
members' sandwich ellipses; p's path hops to the first piercing point inside
its own cross-section on each ladder line, then to the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import FocalEllipse, sandwich_ellipse, vertical_cross_section
from .graphcore import KIND_INPUT, KIND_SOURCE, KIND_STEINER, GeoGraph
from .hitting import pierce_intervals

SOURCE_CANON = (2.0, 0.0)


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


def ladder_depth(eps: float) -> int:
    """Number of ladder levels: max(1, floor(log4(1/(16 eps))) + 1)."""
    if not 0.0 < eps <= 1.0 / 16.0:
        raise ValueError(f"ladder_depth: eps={eps} outside (0, 1/16]")
    return max(1, math.floor(math.log(1.0 / (16.0 * eps), 4.0)) + 1)


def ladder_lines(p, eps: float, levels: int | None = None) -> Ladder:
    """Ladder of p: second line of each family strictly right of the previous stop."""
    k = ladder_depth(eps) if levels is None else int(levels)
    if k < 1:
        raise ValueError("ladder_lines: levels must be >= 1")
    j = math.floor(float(p[0]) / eps) + 2
    idx = [j]
    for _ in range(1, k):
        j = j // 4 + 2
        idx.append(j)
    return Ladder(eps, tuple(idx))


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
    if not 0.0 < eps <= 1.0 / 16.0:
        raise ValueError(f"steiner_tile_paths: eps={eps} outside (0, 1/16]")
    if np.any(pts[:, 0] >= 2.0):
        raise ValueError("steiner_tile_paths: net point at or beyond the source line x=2")
    k = ladder_depth(eps)
    ladders = [ladder_lines(pts[i], eps) for i in range(m)]
    ellipses = [sandwich_ellipse(pts[i], SOURCE_CANON, eps) for i in range(m)]

    members: dict[tuple[int, int], list[int]] = {}
    for i in range(m):
        for lvl, j in enumerate(ladders[i].line_index):
            members.setdefault((lvl, j), []).append(i)

    lines: dict[tuple[int, int], tuple[float, list[int], list[float]]] = {}
    sections: dict[tuple[int, int], list] = {}
    for key in sorted(members):
        lvl, j = key
        x = j * (4.0**lvl * eps)
        ivs = []
        for i in members[key]:
            iv = vertical_cross_section(ellipses[i], x)
            if iv is None:
                raise ValueError(
                    f"empty cross-section for net point {i} at its own ladder line x={x}"
                )
            ivs.append(iv)
        lines[key] = (x, members[key], pierce_intervals(ivs))
        sections[key] = ivs

    # vertex registry: net points first, then the source, then Steiner points
    # deduplicated by exact coordinates (within this tile only)
    xy: list[tuple[float, float]] = [tuple(q) for q in pts]
    kind: list[int] = [KIND_INPUT] * m
    vid: dict[tuple[float, float], int] = {q: i for i, q in enumerate(xy)}
    if len(vid) < m:
        raise ValueError("steiner_tile_paths: duplicate net points")
    source_id = m  # net points lie left of x=2, so none is the source
    vid[SOURCE_CANON] = source_id
    xy.append(SOURCE_CANON)
    kind.append(KIND_SOURCE)

    def vertex(q: tuple[float, float]) -> int:
        i = vid.get(q)
        if i is None:
            i = len(xy)
            vid[q] = i
            xy.append(q)
            kind.append(KIND_STEINER)
        return i

    paths: list[list[int]] = []
    edges: list[tuple[int, int]] = []
    for i in range(m):
        path = [i]
        for lvl, j in enumerate(ladders[i].line_index):
            x, mem, pierce = lines[(lvl, j)]
            lo, hi = sections[(lvl, j)][mem.index(i)]
            y = next((h for h in pierce if lo <= h <= hi), None)
            if y is None:
                raise ValueError("piercing set misses a member interval")
            v = vertex((x, y))
            if v != path[-1]:  # collapse coincident consecutive stops
                path.append(v)
        if source_id != path[-1]:
            path.append(source_id)
        paths.append(path)
        edges.extend((path[t], path[t + 1]) for t in range(len(path) - 1))

    g = GeoGraph.build(np.asarray(xy), np.asarray(kind, dtype=np.int8), edges or np.empty((0, 2)))
    return SteinerTileResult(g, paths, source_id, k, lines)
