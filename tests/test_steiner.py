"""Synchronized ladders and per-tile Steiner path unions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shallowlight.geom import sandwich_ellipse, vertical_cross_section
from shallowlight.graphcore import KIND_INPUT, KIND_SOURCE, KIND_STEINER
from shallowlight.steiner import (
    SOURCE_CANON,
    ladder_depth,
    ladder_table,
    line_groups,
    steiner_tile_paths,
)

from helpers import (
    assert_same_tile,
    ellipse_contains,
    ladder_lines,
    pierce_intervals,
    reference_line_groups,
    reference_steiner_tile_paths,
    walk_paths,
)


def test_ladder_depth_values_and_domain():
    assert ladder_depth(4.0**-2) == 1
    assert ladder_depth(4.0**-3) == 2
    assert ladder_depth(4.0**-4) == 3
    assert ladder_depth(4.0**-5) == 4
    assert ladder_depth(0.01) == 2
    for eps in (0.0, -0.1, 0.0626, 1.0):
        with pytest.raises(ValueError):
            ladder_depth(eps)


def test_ladder_lines_known_indices():
    eps = 1.0 / 64.0
    lad = ladder_lines((0.5, 0.01), eps)
    assert lad.line_index == (34, 10)
    assert [lad.x(i) for i in range(lad.levels)] == [34.0 / 64.0, 40.0 / 64.0]
    assert lad.x(1) == 0.625
    deep = ladder_lines((0.5, 0.01), eps, levels=4)
    assert deep.line_index == (34, 10, 4, 3)
    with pytest.raises(ValueError):
        ladder_lines((0.5, 0.0), eps, levels=0)


def test_ladder_spacing_bounds():
    rng = np.random.default_rng(3)
    for eps in (4.0**-3, 4.0**-4, 4.0**-5, 0.01):
        for x in rng.uniform(0.0, 1.05, size=60):
            lad = ladder_lines((float(x), 0.0), eps, levels=5)
            xs = [lad.x(i) for i in range(lad.levels)]
            assert xs[0] > x  # strictly right of the point
            for i in range(1, 5):
                gap = xs[i] - xs[i - 1]
                j = lad.line_index[i - 1]
                # integer identity behind the spacing: 4*j_i - j_{i-1} = 8 - (j_{i-1} % 4)
                assert 4 * lad.line_index[i] - j == 8 - j % 4
                assert gap == pytest.approx((8 - j % 4) * 4.0 ** (i - 1) * eps, rel=1e-12)
                lo, hi = 4.0**i * eps, 2.0 * 4.0**i * eps
                assert lo * (1 - 1e-12) <= gap <= hi * (1 + 1e-12)


EPS_GRID = [4.0**-2, 4.0**-3, 4.0**-4, 4.0**-5, 4.0**-6, 0.01, 1.0 / 100.5]


@st.composite
def _table_points(draw):
    """Points on exact line positions j * 4^i * eps, y at and around the slope bound."""
    eps = draw(st.sampled_from(EPS_GRID))
    pts = []
    for _ in range(draw(st.integers(1, 12))):
        step = 4.0 ** draw(st.integers(0, 3)) * eps
        x = draw(st.integers(0, int(1.99 / step))) * step
        bound = math.sqrt(eps) * (2.0 - x)
        near = [bound * (1.0 - 2.0**-40), bound, bound * (1.0 + 2.0**-40)]
        y = draw(st.sampled_from(near + [-b for b in near] + [0.0, -0.0])
                 | st.floats(-bound, bound))
        pts.append((x, y))
    return eps, pts, draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(_table_points())
@example((1.0 / 64.0, [(1.9, 0.0), (0.5, 0.0)], 3))  # (1.9, 0): level 2 misses
def test_ladder_table_equals_scalar_reference(case):
    # the table against geom's scalar path, cell by cell and bit for bit; the
    # line indices follow the integer recurrence of the module docstring
    eps, pts, levels = case
    kept, ellipses = [], []
    for p in pts:
        try:
            ellipses.append(sandwich_ellipse(p, SOURCE_CANON, eps))
            kept.append(p)
        except ValueError:  # slope above sqrt(eps): the table refuses it too
            with pytest.raises(ValueError, match="slope"):
                ladder_table([p], eps, levels)
    line_index, x, y_lo, y_hi = ladder_table(kept, eps, levels)
    assert line_index.shape == x.shape == y_lo.shape == y_hi.shape == (len(kept), levels)
    for r, (p, e) in enumerate(zip(kept, ellipses)):
        j = math.floor(p[0] / eps) + 2
        for i in range(levels):
            xi = j * (4.0**i * eps)
            assert line_index[r, i] == j
            assert float(x[r, i]).hex() == xi.hex()
            iv = vertical_cross_section(e, xi)
            if iv is None:
                assert np.isnan(y_lo[r, i]) and np.isnan(y_hi[r, i])
            else:
                assert float(y_lo[r, i]).hex() == iv.lo.hex()
                assert float(y_hi[r, i]).hex() == iv.hi.hex()
            j = j // 4 + 2


def test_line_groups_match_a_dict_grouping():
    rng = np.random.default_rng(2)
    for m, levels in ((0, 3), (1, 1), (7, 2), (60, 4)):
        line_index = rng.integers(0, 5, size=(m, levels))
        level, row, line = line_groups(line_index)
        got = [(int(level[line == t][0]), int(line_index[row[line == t][0], level[line == t][0]]),
                row[line == t].tolist()) for t in range(line.max() + 1 if line.size else 0)]
        assert got == reference_line_groups(line_index)
        assert np.all(np.diff(line) >= 0)


def _canonical_net(rng, m, eps):
    # thin canonical box: x in (0, 1], |y| <= 0.8 * sqrt(eps) * x-ish
    xs = rng.uniform(0.05, 1.0, size=m)
    ys = rng.uniform(-0.8, 0.8, size=m) * math.sqrt(eps) * np.minimum(xs, 2.0 - xs)
    return np.column_stack([xs, ys])


def test_tile_paths_structure_and_memberships():
    eps = 4.0**-4
    rng = np.random.default_rng(5)
    net = _canonical_net(rng, 40, eps)
    res = steiner_tile_paths(net, eps)
    m = len(net)
    g = res.graph
    assert g.kind[:m].tolist() == [KIND_INPUT] * m
    assert g.kind[m] == KIND_SOURCE
    assert set(g.kind[m + 1 :].tolist()) <= {KIND_STEINER}
    assert np.array_equal(g.xy[:m], net)
    assert tuple(g.xy[m]) == SOURCE_CANON
    assert res.walk.shape == (m, ladder_depth(eps) + 2)
    for i, path in enumerate(walk_paths(res.walk)):
        assert path[0] == i
        assert path[-1] == m  # registry: net points, then source
        xs = g.xy[path, 0]
        assert np.all(np.diff(xs) > 0)  # x-monotone toward the source
        assert len(set(path)) == len(path)
        ell = sandwich_ellipse(net[i], SOURCE_CANON, eps)
        for v in path[1:-1]:
            assert ellipse_contains(ell, g.xy[v])


def test_tile_paths_stop_is_first_pierce_in_own_section():
    eps = 4.0**-4
    rng = np.random.default_rng(7)
    net = _canonical_net(rng, 25, eps)
    res = steiner_tile_paths(net, eps)
    ref = reference_steiner_tile_paths(net, eps)
    assert_same_tile(res, ref)
    g, paths = res.graph, walk_paths(res.walk)
    for (lvl, j), (x, members, pierce) in ref.lines.items():
        assert x == pytest.approx(j * 4.0**lvl * eps, rel=1e-15)
        assert pierce == sorted(pierce)
        ivs = []
        for i in members:
            lad = ladder_lines(net[i], eps)
            assert lad.line_index[lvl] == j
            iv = vertical_cross_section(sandwich_ellipse(net[i], SOURCE_CANON, eps), x)
            ivs.append(iv)
            want = next(h for h in pierce if iv.lo <= h <= iv.hi)
            stop = next(v for v in paths[i] if g.xy[v, 0] == x)
            assert g.xy[stop, 1] == want
        assert pierce == pierce_intervals(ivs)


def test_tile_paths_share_steiner_points():
    eps = 4.0**-3
    net = [(0.5, 0.004), (0.5002, -0.004)]
    res = steiner_tile_paths(net, eps)
    paths = walk_paths(res.walk)
    # same ladder, overlapping sections: both paths hop through one pierce point
    assert paths[0][1] == paths[1][1]
    union = res.graph.total_weight()
    walks = sum(
        float(np.hypot(*(res.graph.xy[p[t + 1]] - res.graph.xy[p[t]])))
        for p in paths
        for t in range(len(p) - 1)
    )
    assert union < walks  # shared hops are paid once


def test_tile_paths_modest_route_stretch():
    # smoke bound only; the tight budget is exercised on full builds
    eps = 4.0**-4
    rng = np.random.default_rng(9)
    net = _canonical_net(rng, 30, eps)
    res = steiner_tile_paths(net, eps)
    g = res.graph
    cap = 1.0 + 50.0 * eps * math.log2(1.0 / eps)
    for i, path in enumerate(walk_paths(res.walk)):
        walk = sum(
            float(np.hypot(*(g.xy[path[t + 1]] - g.xy[path[t]])))
            for t in range(len(path) - 1)
        )
        direct = float(np.hypot(*(net[i] - np.array(SOURCE_CANON))))
        assert walk <= cap * direct


def test_tile_paths_error_cases():
    with pytest.raises(ValueError, match="eps"):
        steiner_tile_paths([(0.5, 0.0)], 0.2)
    with pytest.raises(ValueError, match="source line"):
        steiner_tile_paths([(2.0, 0.0)], 4.0**-3)
    with pytest.raises(ValueError, match="duplicate"):
        steiner_tile_paths([(0.5, 0.01), (0.5, 0.01)], 4.0**-3)


def test_tile_paths_empty_net():
    res = steiner_tile_paths(np.empty((0, 2)), 4.0**-3)
    assert res.walk.shape == (0, 4)
    assert res.graph.kind.tolist() == [KIND_SOURCE]
    assert res.graph.edges.shape[0] == 0
