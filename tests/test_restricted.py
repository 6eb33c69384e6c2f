"""Steiner-free tile routing: search boxes, strip hitting sets, pruning."""

import math

import numpy as np
import pytest

from shallowlight.geom import sandwich_ellipse, vertical_cross_section
from shallowlight.restricted import prune_levels, restricted_tile_paths
from shallowlight.steiner import SOURCE_CANON, ladder_depth

from helpers import (
    Ladder,
    LeveledPath,
    assert_same_tile,
    brute_force_min_hitting,
    ladder_lines,
    leveled_paths,
    level_rectangles,
    prune_path,
    reference_restricted_tile_paths,
)


def test_leveled_path_validation():
    LeveledPath([0, 5, 9, 7], [0, 2])
    with pytest.raises(ValueError, match="interior"):
        LeveledPath([0, 5, 7], [0, 2])
    with pytest.raises(ValueError, match="strictly increasing"):
        LeveledPath([0, 5, 9, 7], [2, 2])


def test_prune_path_worked_examples():
    # four interior stops at levels 0,1,2,3 collapse to levels 0,2
    p = prune_path(LeveledPath([9, 10, 11, 12, 13, 99], [0, 1, 2, 3]))
    assert p.vertices == [9, 10, 12, 99]
    assert p.levels == [0, 2]
    # a single adjacent pair drops its second stop
    p = prune_path(LeveledPath([9, 10, 11, 99], [0, 1]))
    assert p.vertices == [9, 10, 99]
    assert p.levels == [0]
    # already sparse paths come back unchanged
    q = LeveledPath([1, 2, 3, 4], [0, 2])
    assert prune_path(q).vertices == q.vertices


def test_prune_path_fixpoint_gap():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(0, 9))
        levels = sorted(rng.choice(12, size=m, replace=False).tolist())
        verts = list(range(m + 2))
        out = prune_path(LeveledPath(verts, levels))
        assert all(b - a >= 2 for a, b in zip(out.levels, out.levels[1:]))
        # surviving interior stops are a subsequence of the input
        it = iter(verts)
        assert all(v in list(it) or True for v in out.vertices)
        assert set(out.vertices) <= set(verts)
        assert out.vertices[0] == verts[0] and out.vertices[-1] == verts[-1]


def _prune_to_fixpoint(levels):
    # the rule prune_path implements in one pass: drop the second stop of the
    # first adjacent-level pair, then start over until no pair is left
    levels = list(levels)
    while True:
        t = next((t for t in range(len(levels) - 1) if levels[t + 1] - levels[t] == 1), None)
        if t is None:
            return levels
        del levels[t + 1]


def test_prune_path_one_pass_equals_fixpoint_on_every_level_set():
    for mask in range(1 << 10):
        levels = [i for i in range(10) if mask >> i & 1]
        verts = [-1] + [100 + lvl for lvl in levels] + [-2]  # vertex id encodes its level
        out = prune_path(LeveledPath(verts, levels))
        want = _prune_to_fixpoint(levels)
        assert out.levels == want
        assert out.vertices == [-1] + [100 + lvl for lvl in want] + [-2]


def test_prune_levels_equals_prune_path_on_every_level_set():
    # all 1,024 level sets at once, one table row each
    masks = np.arange(1 << 10)
    has_stop = (masks[:, None] >> np.arange(10) & 1).astype(bool)
    keep = prune_levels(has_stop)
    for row, kept in zip(has_stop, keep):
        levels = np.flatnonzero(row).tolist()
        out = prune_path(LeveledPath([-1, *levels, -2], levels))
        assert np.flatnonzero(kept).tolist() == out.levels


def test_level_rectangles_geometry():
    eps = 1.0 / 64.0
    p = (0.5, 0.0)
    rects = level_rectangles(p, eps, owner=7)
    assert len(rects) == ladder_depth(eps)  # default ladder has k+1 stops
    lad = ladder_lines(p, eps, levels=ladder_depth(eps) + 1)
    e = sandwich_ellipse(p, SOURCE_CANON, eps)
    for i, r in enumerate(rects):
        assert r is not None
        assert (r.x_lo, r.x_hi) == (lad.x(i), lad.x(i + 1))
        iv = vertical_cross_section(e, r.x_hi)
        assert (r.y_lo, r.y_hi) == (iv.lo, iv.hi)
        assert r.owner == 7


def test_level_rectangles_none_beyond_ellipse():
    eps = 1.0 / 64.0
    custom = Ladder(eps, (34, 10, 4, 4))  # last stop at x=4, past the ellipse
    rects = level_rectangles((0.5, 0.0), eps, ladder=custom)
    assert rects[0] is not None and rects[1] is not None
    assert rects[2] is None


def test_tile_paths_pinned_two_hop_example():
    eps = 1.0 / 64.0
    pts = np.array([(0.5, 0.0), (0.55, 0.001), (0.9, -0.002)])
    res = restricted_tile_paths([0], pts, eps)
    ref = reference_restricted_tile_paths([0], pts, eps)
    assert_same_tile(res, ref)
    assert res.stop.shape == (1, 2)
    [raw] = leveled_paths([0], res.stop, res.stop >= 0, 3)
    assert raw.vertices == [0, 1, 2, 3] and raw.levels == [0, 1]
    [pruned] = leveled_paths([0], res.stop, res.keep, 3)
    assert pruned.vertices == [0, 1, 3] and pruned.levels == [0]
    assert res.graph.edges.tolist() == [[0, 1], [1, 3]]
    assert set(ref.strips) == {(0, 34), (1, 10)}
    assert ref.strips[(0, 34)].candidates == [1]
    assert ref.strips[(1, 10)].candidates == [2]


def test_tile_paths_share_strip_hit_points():
    eps = 1.0 / 64.0
    pts = np.array([
        (0.5, 0.002), (0.5001, -0.002),  # net points with the same ladder
        (0.6, 0.0),                       # single candidate covering both boxes
        (0.9, 0.001),
    ])
    res = restricted_tile_paths([0, 1], pts, eps)
    ref = reference_restricted_tile_paths([0, 1], pts, eps)
    assert_same_tile(res, ref)
    assert res.stop[:, 0].tolist() == [2, 2]
    strip = ref.strips[(0, 34)]
    assert strip.owners == [0, 1]
    assert strip.hit == [2]


def _random_tile(rng, n_pts, eps, n_net):
    xs = rng.uniform(0.05, 1.0, size=n_pts)
    ys = rng.uniform(-0.7, 0.7, size=n_pts) * math.sqrt(eps) * np.minimum(xs, 1.0)
    pts = np.column_stack([xs, ys])
    net = rng.choice(n_pts, size=n_net, replace=False).tolist()
    return pts, net


def test_tile_paths_structural_invariants():
    eps = 4.0**-4
    rng = np.random.default_rng(11)
    pts, net = _random_tile(rng, 220, eps, 45)
    res = restricted_tile_paths(net, pts, eps)
    ref = reference_restricted_tile_paths(net, pts, eps)
    assert_same_tile(res, ref)
    n = len(pts)
    g = res.graph
    assert np.array_equal(g.xy[:n], pts)
    assert tuple(g.xy[n]) == SOURCE_CANON

    used_edges = set()
    for p, raw, pruned in zip(net, leveled_paths(net, res.stop, res.stop >= 0, n),
                              leveled_paths(net, res.stop, res.keep, n)):
        assert raw.vertices[0] == pruned.vertices[0] == p
        assert raw.vertices[-1] == pruned.vertices[-1] == n
        assert all(b - a >= 2 for a, b in zip(pruned.levels, pruned.levels[1:]))
        assert set(pruned.interior) <= set(raw.interior)
        # interior stops ascend in x and are genuine tile points
        xs = [pts[p, 0]] + [pts[v, 0] for v in pruned.interior] + [2.0]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert all(0 <= v < n for v in pruned.interior)
        vs = pruned.vertices
        used_edges.update(
            tuple(sorted((vs[t], vs[t + 1]))) for t in range(len(vs) - 1)
        )
    assert used_edges == {tuple(e) for e in g.edges.tolist()}

    lads = {p: ladder_lines(pts[p], eps, levels=ladder_depth(eps) + 1) for p in net}
    for (level, j), strip in ref.strips.items():
        # candidates ascend by (y, id) and sit strictly inside the strip
        keys = [(pts[v, 1], v) for v in strip.candidates]
        assert keys == sorted(keys)
        for v in strip.candidates:
            assert strip.x_lo < pts[v, 0] <= strip.x_hi
        for p in strip.owners:
            assert lads[p].line_index[level] == j


def test_tile_paths_stops_hit_own_boxes_with_lowest_hit_id():
    eps = 4.0**-4
    rng = np.random.default_rng(13)
    pts, net = _random_tile(rng, 260, eps, 50)
    res = restricted_tile_paths(net, pts, eps)
    ref = reference_restricted_tile_paths(net, pts, eps)
    assert_same_tile(res, ref)
    k = ladder_depth(eps)
    for p, raw in zip(net, leveled_paths(net, res.stop, res.stop >= 0, len(pts))):
        lad = ladder_lines(pts[p], eps, levels=k + 1)
        rects = level_rectangles(pts[p], eps, owner=p, ladder=lad)
        by_level = dict(zip(raw.levels, raw.interior))
        for i, r in enumerate(rects[:k]):
            strip = ref.strips[(i, lad.line_index[i])]
            inside = [
                v for v in strip.hit if r.y_lo <= pts[v, 1] <= r.y_hi
            ]
            box_has_candidates = any(
                r.y_lo <= pts[v, 1] <= r.y_hi for v in strip.candidates
            )
            if not box_has_candidates:
                assert i not in by_level
            else:
                assert inside, "hitting set must cover every nonempty owner box"
                assert by_level[i] == min(inside)


def test_strip_hitting_sets_are_minimum():
    eps = 4.0**-4
    rng = np.random.default_rng(17)
    pts, net = _random_tile(rng, 120, eps, 30)
    res = restricted_tile_paths(net, pts, eps)
    ref = reference_restricted_tile_paths(net, pts, eps)
    assert_same_tile(res, ref)
    rects = {
        p: level_rectangles(pts[p], eps, owner=p,
                            ladder=ladder_lines(pts[p], eps, levels=ladder_depth(eps) + 1))
        for p in net
    }
    compared = 0
    for (level, _), strip in ref.strips.items():
        ivs = []
        for p in strip.owners:
            r = rects[p][level]
            if any(r.y_lo <= pts[v, 1] <= r.y_hi for v in strip.candidates):
                ivs.append((r.y_lo, r.y_hi))
        if not ivs or len(ivs) > 12 or len(strip.candidates) > 15:
            continue
        best = brute_force_min_hitting(ivs, [pts[v, 1] for v in strip.candidates])
        assert len(strip.hit) == len(best)
        compared += 1
    assert compared >= 5


def test_tile_paths_modest_route_stretch():
    eps = 4.0**-4
    rng = np.random.default_rng(19)
    pts, net = _random_tile(rng, 300, eps, 60)
    res = restricted_tile_paths(net, pts, eps)
    g = res.graph
    cap = 1.0 + 50.0 * eps * math.log2(1.0 / eps)
    for p, path in zip(net, leveled_paths(net, res.stop, res.keep, len(pts))):
        vs = path.vertices
        walk = sum(
            float(np.hypot(*(g.xy[vs[t + 1]] - g.xy[vs[t]])))
            for t in range(len(vs) - 1)
        )
        direct = float(np.hypot(*(pts[p] - np.array(SOURCE_CANON))))
        assert walk <= cap * direct


def test_tile_paths_error_cases():
    pts = [(0.5, 0.0)]
    with pytest.raises(ValueError, match="eps"):
        restricted_tile_paths([0], pts, 0.2)
    with pytest.raises(ValueError, match="out of range"):
        restricted_tile_paths([1], pts, 1.0 / 64.0)
    with pytest.raises(ValueError, match="source line"):
        restricted_tile_paths([0], [(2.5, 0.0)], 1.0 / 64.0)
