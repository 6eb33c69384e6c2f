"""Concentric polygon tiling of the plane around a source point.

The unit disk around the source is surrounded by scaled copies O_i of a
regular k-gon whose inscribed circle has radius 2^i; k is the smallest
polygon order whose side length 2 tan(pi/k) stays below sqrt(eps).
Polygon vertices sit on the rays at angles 2 pi j / k from the source, so
the face normal of sector j points at angle (2j+1) pi / k.

A tile is the trapezoid cut from ring i (between O_i and O_{i+1}) by sector
j's bounding rays. Each tile carries a canonical frame: a similarity that
maps the source to (2, 0) and the tile into a thin box around [0,1] x {0},
which is the coordinate system the per-tile tree builders work in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TilingParams:
    """Source point and polygon order for one tiling."""

    source: tuple[float, float]
    eps: float
    sides: int

    @classmethod
    def for_eps(cls, source, eps: float) -> "TilingParams":
        return cls((float(source[0]), float(source[1])), float(eps), polygon_sides(eps))


class TileId(tuple):
    """(ring, sector): ring i covers radial span [2^i, 2^{i+1}), sector j in [0, sides)."""

    __slots__ = ()

    def __new__(cls, ring: int, sector: int):
        return super().__new__(cls, (int(ring), int(sector)))

    @property
    def ring(self) -> int:
        return self[0]

    @property
    def sector(self) -> int:
        return self[1]


@dataclass(frozen=True)
class CanonicalFrame:
    """Similarity q -> (2 - sigma*<q-s, e>, -sigma*<q-s, e_perp>).

    e is the unit face normal of the tile's sector, sigma = 2^{-ring}.
    The source maps to (2, 0); tile points land in (0, 1] x (-sqrt(eps), sqrt(eps)).
    Distances scale by sigma.
    """

    source: tuple[float, float]
    rotation: float  # angle of the face normal e, radians
    scale: float  # sigma

    def to_canonical_many(self, qs: np.ndarray) -> np.ndarray:
        ex, ey = math.cos(self.rotation), math.sin(self.rotation)
        v = np.asarray(qs, dtype=np.float64) - np.array(self.source)
        out = np.empty_like(v)
        out[:, 0] = 2.0 - self.scale * (v[:, 0] * ex + v[:, 1] * ey)
        out[:, 1] = -self.scale * (-v[:, 0] * ey + v[:, 1] * ex)
        return out

    def from_canonical_many(self, qs: np.ndarray) -> np.ndarray:
        ex, ey = math.cos(self.rotation), math.sin(self.rotation)
        q = np.asarray(qs, dtype=np.float64)
        a = (2.0 - q[:, 0]) / self.scale
        b = -q[:, 1] / self.scale
        out = np.empty_like(q)
        out[:, 0] = self.source[0] + a * ex - b * ey
        out[:, 1] = self.source[1] + a * ey + b * ex
        return out


def polygon_sides(eps: float) -> int:
    """Smallest k >= 3 with side length 2 tan(pi/k) < sqrt(eps)."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"polygon_sides: eps={eps} outside (0, 1)")
    target = math.sqrt(eps)
    # 2 tan(pi/k) < target  <=>  k > pi / atan(target/2)
    k = max(3, math.floor(math.pi / math.atan(target / 2.0)) + 1)
    while 2.0 * math.tan(math.pi / k) >= target:  # guard against float rounding
        k += 1
    return k


def tiles_of(points: np.ndarray, params: TilingParams):
    """Tiles of an (n, 2) array: (rings, sectors) int arrays.

    Boundaries are lower-closed in both angle and radius.
    sector = floor(phi * (k / 2pi)), rounded in that order, with phi the atan2
    angle of p-s in [0, 2pi), so a point built on a sector ray may land on
    either side of it; ring = floor(log2(r cos delta)) where delta is the
    angular offset from the sector's face normal, computed by exponent
    extraction (frexp), so r cos delta = 2^i lands exactly in ring i.
    """
    k = params.sides
    v = np.asarray(points, dtype=np.float64) - np.array(params.source)
    r = np.hypot(v[:, 0], v[:, 1])
    if np.any(r == 0.0):
        raise ValueError("tiles_of: a point coincides with the source")
    phi = np.arctan2(v[:, 1], v[:, 0]) % (2.0 * np.pi)
    sector = np.minimum((phi * (k / (2.0 * np.pi))).astype(np.int64), k - 1)
    delta = phi - (2 * sector + 1) * (np.pi / k)
    depth = r * np.cos(delta)
    _, ex = np.frexp(depth)
    return ex.astype(np.int64) - 1, sector


def canonical_frame(tile: TileId, params: TilingParams) -> CanonicalFrame:
    theta = (2 * tile.sector + 1) * math.pi / params.sides
    return CanonicalFrame(params.source, theta, math.ldexp(1.0, -tile.ring))
