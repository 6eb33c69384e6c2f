"""Tiling: sector/ring assignment and canonical frames."""

import math

import numpy as np
import pytest

from shallowlight.geom import sandwich_ellipse, slope_proj_slack
from shallowlight.tiling import (
    TileId,
    TilingParams,
    canonical_frame,
    polygon_sides,
    tiles_of,
)

from helpers import from_canonical, tile_of, to_canonical

S = (0.0, 0.0)


def test_polygon_sides_known_values():
    assert polygon_sides(0.01) == 63
    assert polygon_sides(0.25) == 13
    assert polygon_sides(0.9) == 8


def test_polygon_sides_minimality():
    for eps in (0.003, 0.01, 0.0625, 0.25, 0.5, 0.99):
        k = polygon_sides(eps)
        root = math.sqrt(eps)
        assert 2.0 * math.tan(math.pi / k) < root
        assert k == 3 or 2.0 * math.tan(math.pi / (k - 1)) >= root


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
def test_polygon_sides_domain(eps):
    with pytest.raises(ValueError):
        polygon_sides(eps)


def test_tile_of_total_and_matches_vectorized():
    params = TilingParams.for_eps(S, 0.0625)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-8.0, 8.0, (500, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-6]
    scalar = [tile_of(p, params) for p in pts]
    rings, sectors = tiles_of(pts, params)
    assert len(rings) == len(sectors) == len(pts)
    for i, tid in enumerate(scalar):
        assert isinstance(tid, TileId)
        assert (int(rings[i]), int(sectors[i])) == tid

    # points built exactly on the sector rays, where rounding picks the side
    params = TilingParams.for_eps(S, 1.0 / 64.0)
    k = params.sides
    radii = [2.0**i for i in range(-3, 3)] + [0.75, 1.5, 3.0]
    on_rays = np.array([(r * math.cos(2.0 * math.pi * j / k), r * math.sin(2.0 * math.pi * j / k))
                        for r in radii for j in range(k)])
    rings, sectors = tiles_of(on_rays, params)
    for p, ring, sector in zip(on_rays, rings, sectors):
        assert tile_of(p, params) == (int(ring), int(sector))


def test_tile_of_rejects_source_point():
    params = TilingParams.for_eps(S, 0.25)
    with pytest.raises(ValueError):
        tile_of((0.0, 0.0), params)


def test_ring_boundaries_exact_powers_of_two():
    # a point at face-normal depth exactly 2^i lands in ring i (lower-closed)
    params = TilingParams.for_eps(S, 0.0625)
    k = params.sides
    for ring in (-2, -1, 0, 1, 3):
        for sector in (0, 1, k // 2, k - 1):
            theta = (2 * sector + 1) * math.pi / k  # face normal direction
            r = 2.0**ring
            p = (r * math.cos(theta), r * math.sin(theta))
            assert tile_of(p, params) == TileId(ring, sector)
            q = (0.999999 * r * math.cos(theta), 0.999999 * r * math.sin(theta))
            assert tile_of(q, params) == TileId(ring - 1, sector)


def test_sector_assignment_lower_closed():
    params = TilingParams.for_eps(S, 0.0625)
    k = params.sides
    assert tile_of((1.5, 0.0), params).sector == 0
    phi = 2.0 * math.pi / k
    just_in = (1.5 * math.cos(phi * 1.0000001), 1.5 * math.sin(phi * 1.0000001))
    assert tile_of(just_in, params).sector == 1


def test_canonical_frame_round_trip_and_bounds():
    rng = np.random.default_rng(5)
    for eps in (0.0625, 0.015625):
        params = TilingParams.for_eps(S, eps)
        root = math.sqrt(eps)
        k = params.sides
        for sector in (0, k // 3, k - 1):
            for ring in (-1, 0, 2):
                frame = canonical_frame(TileId(ring, sector), params)
                # the source must map to the canonical anchor (2, 0)
                assert np.allclose(to_canonical(frame, S), (2.0, 0.0), atol=1e-12)
                # sample the tile by inverting canonical-box points
                qs_c = np.stack(
                    [rng.uniform(0.0, 1.0, 400), rng.uniform(-root, root, 400) * 0.5],
                    axis=1,
                )
                world = np.array([from_canonical(frame, q) for q in qs_c])
                # the scalar forms are one-row calls of the array forms, so the
                # two agree bit for bit, also on the tile's bounding rays
                on_rays = np.array([
                    (r * math.cos(2.0 * math.pi * j / k), r * math.sin(2.0 * math.pi * j / k))
                    for j in (sector, sector + 1)
                    for r in (2.0**ring, 1.5 * 2.0**ring)
                ])
                for qs, one, many in (
                    (np.vstack([world, on_rays]), to_canonical, frame.to_canonical_many),
                    (np.vstack([qs_c, frame.to_canonical_many(on_rays)]),
                     from_canonical, frame.from_canonical_many),
                ):
                    assert np.array([one(frame, q) for q in qs]).tobytes() == many(qs).tobytes()
                # keep only points that really belong to this tile
                keep = [
                    i
                    for i, w in enumerate(world)
                    if tile_of(w, params) == TileId(ring, sector)
                ]
                assert len(keep) > 50
                img = frame.to_canonical_many(world[keep])
                assert np.allclose(img, qs_c[keep], rtol=1e-9, atol=1e-9)
                assert np.all(img[:, 0] >= -0.05) and np.all(img[:, 0] <= 1.05)
                assert np.all(np.abs(img[:, 1]) <= 1.1 * root)
                for q in img[:25]:
                    slope, _, _ = slope_proj_slack(q, (2.0, 0.0))
                    assert abs(slope) <= 1.1 * root


def test_canonical_points_admit_sandwich_ellipse():
    # the frame precondition: canonical (p, source) segments are shallow enough
    eps = 0.0625
    params = TilingParams.for_eps(S, eps)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-3.0, 3.0, (300, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.05]
    rings, sectors = tiles_of(pts, params)
    for tid in {TileId(int(r), int(s)) for r, s in zip(rings, sectors)}:
        frame = canonical_frame(tid, params)
        sel = (rings == tid.ring) & (sectors == tid.sector)
        for q in frame.to_canonical_many(pts[sel]):
            sandwich_ellipse(q, (2.0, 0.0), eps)  # must not raise


def test_tile_id_is_a_tuple():
    t = TileId(2, 5)
    assert t == (2, 5)
    assert t.ring == 2 and t.sector == 5
    assert sorted([TileId(1, 0), TileId(0, 3)]) == [TileId(0, 3), TileId(1, 0)]
