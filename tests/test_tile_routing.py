"""Array tile routers against their per-line and per-strip scalar references.

steiner_tile_paths and restricted_tile_paths must give the same graph bytes,
stops, lines and strips as the references in helpers.py, and raise the same
errors, on tie-heavy hypothesis tiles and on every tile of real builds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowlight import instances, pipeline, steiner
from shallowlight.restricted import restricted_tile_paths
from shallowlight.steiner import ladder_table, steiner_tile_paths

from helpers import reference_restricted_tile_paths, reference_steiner_tile_paths


def _same_graph(a, b):
    for name in ("xy", "kind", "edges", "weights"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as e:
        return None, str(e)


def _check_steiner(net, eps):
    ref, ref_err = _outcome(reference_steiner_tile_paths, net, eps)
    res, err = _outcome(steiner_tile_paths, net, eps)
    assert err == ref_err
    if ref is None:
        return False
    _same_graph(res.graph, ref.graph)
    assert (res.source_id, res.k_levels) == (ref.source_id, ref.k_levels)
    assert res.paths == ref.paths
    assert res.lines == ref.lines
    return True


def _check_restricted(net_idx, pts, eps):
    ref, ref_err = _outcome(reference_restricted_tile_paths, net_idx, pts, eps)
    res, err = _outcome(restricted_tile_paths, net_idx, pts, eps)
    assert err == ref_err
    if ref is None:
        return False
    _same_graph(res.graph, ref.graph)
    assert (res.source_id, res.k_levels) == (ref.source_id, ref.k_levels)
    assert res.raw_paths == ref.raw_paths  # the stops, level by level
    assert res.paths == ref.paths
    assert res.strips == ref.strips
    return True


@st.composite
def _tied_tiles(draw):
    """Lattice points with few distinct ys: equal candidate ys, shared lines
    and identical boxes; x up to 1.97 gives NaN sections at deep levels; some
    points sit exactly on a ladder line at another point's box endpoint."""
    eps = draw(st.sampled_from([4.0**-2, 4.0**-3, 4.0**-4, 4.0**-5, 0.01]))
    step = draw(st.sampled_from([0.5, 1.0, 4.0])) * eps
    a = 0.002 * math.sqrt(eps)
    pts = []
    for _ in range(draw(st.integers(1, 30))):
        x = draw(st.integers(1, int(1.97 / step))) * step
        frac = draw(st.sampled_from([-0.9, -0.5, 0.5, 0.9]))
        y = draw(st.sampled_from([0.0, -0.0, a, -a, 2 * a, -2 * a, 3 * a])
                 | st.just(frac * math.sqrt(eps) * (2.0 - x)))
        pts.append((x, y))
    pts = np.array(pts)
    for r in draw(st.lists(st.integers(0, len(pts) - 1), max_size=4)):
        levels = steiner.ladder_depth(eps) + 1
        line_index, x, y_lo, y_hi = ladder_table(pts[r:r + 1], eps, levels)
        i = draw(st.integers(0, levels - 1))
        y = draw(st.sampled_from([y_lo[0, i], y_hi[0, i]]))
        if np.isfinite(y) and x[0, i] < 2.0:
            pts = np.vstack([pts, [(x[0, i], y)]])
    net = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=len(pts)))
    return eps, pts, net


@settings(max_examples=200, deadline=None)
@given(_tied_tiles())
def test_restricted_equals_reference_on_tied_tiles(case):
    eps, pts, net = case
    _check_restricted(net, pts, eps)


@settings(max_examples=200, deadline=None)
@given(_tied_tiles())
def test_steiner_equals_reference_on_tied_tiles(case):
    # repeated net indices make duplicate net points; both must refuse them
    eps, pts, net = case
    _check_steiner(pts[net], eps)
    _check_steiner(pts[sorted(set(net))], eps)


def test_routers_equal_reference_on_every_build_tile(monkeypatch):
    counted = {"steiner": 0, "restricted": 0}

    def steiner_pair(net, eps):
        counted["steiner"] += _check_steiner(net, eps)
        return steiner_tile_paths(net, eps)

    def restricted_pair(net_idx, pts, eps):
        counted["restricted"] += _check_restricted(net_idx, pts, eps)
        return restricted_tile_paths(net_idx, pts, eps)

    monkeypatch.setattr(pipeline, "steiner_tile_paths", steiner_pair)
    monkeypatch.setattr(pipeline, "restricted_tile_paths", restricted_pair)
    cases = [(kind, {}, 4.0**-e) for kind in ("comb", "cnet-comb", "sector-lb", "circle")
             for e in range(2, 6)]
    cases += [("uniform", dict(n=2000, seed=0), 4.0**-e) for e in range(2, 5)]
    for kind, kw, eps in cases:
        inst = instances.generate(kind, eps, **kw)
        for mode in pipeline.MODES:
            pipeline.build_slt(inst, mode=mode)
    assert counted["steiner"] == counted["restricted"] > 300


@pytest.mark.parametrize("args", [
    ([(0.5, 0.0)], 0.2),
    ([(2.0, 0.0)], 4.0**-3),
    ([(0.5, 0.01), (0.5, 0.01)], 4.0**-3),
    ([(1.94, 0.0), (0.5, 0.0)], 4.0**-3),  # (1.94, 0): NaN section at level 1
])
def test_steiner_argument_errors_equal_reference(args):
    assert not _check_steiner(*args)


@pytest.mark.parametrize("args", [
    ([0], [(0.5, 0.0)], 0.2),
    ([1], [(0.5, 0.0)], 4.0**-3),
    ([-1], [(0.5, 0.0)], 4.0**-3),
    ([0], [(2.5, 0.0)], 4.0**-3),
    ([0], [(0.5, 1.0)], 4.0**-3),  # slope to the source above sqrt(eps)
])
def test_restricted_argument_errors_equal_reference(args):
    assert not _check_restricted(*args)


def test_steiner_rejects_a_piercing_set_that_misses(monkeypatch):
    # the check behind the sweep: a member whose line lacks a pierce in its
    # section raises instead of routing through a point outside its ellipse
    net = [(0.5, 0.18), (0.5, -0.18)]  # disjoint sections: two pierces per line
    assert len(steiner_tile_paths(net, 4.0**-3).lines[(1, 10)][2]) == 2
    real = steiner.pierce_groups
    monkeypatch.setattr(steiner, "pierce_groups", lambda *a: real(*a)[:-1])
    with pytest.raises(ValueError, match="piercing set misses a member interval"):
        steiner_tile_paths(net, 4.0**-3)
