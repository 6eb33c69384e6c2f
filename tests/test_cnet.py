"""Centered net greedy vs a plain quadratic oracle; spanner stretch checks
and edge-list equality with the plain path greedy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowlight import pipeline
from shallowlight.cnet import build_cnet, cluster_spanner
from shallowlight.instances import generate
from helpers import floyd_warshall, reference_cluster_spanner


def _brute_cnet(xy, source, eps):
    """Unbucketed reference greedy: ascending d(p, s), first covering net point."""
    d = np.hypot(xy[:, 0] - source[0], xy[:, 1] - source[1])
    net: list[int] = []
    assign = np.full(len(xy), -1, dtype=np.int64)
    for p in np.argsort(d, kind="stable").tolist():
        cover = [
            k
            for k, a in enumerate(net)
            if math.hypot(xy[p, 0] - xy[a, 0], xy[p, 1] - xy[a, 1]) <= eps * d[a]
        ]
        if cover:
            assign[p] = cover[0]
        else:
            assign[p] = len(net)
            net.append(p)
    return net, assign


def _random_cloud(rng, n, spread):
    # mix of near and far points so several distance rings are populated
    r = spread ** rng.uniform(-1.0, 1.0, size=n)
    t = rng.uniform(0.0, 2 * np.pi, size=n)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


def test_cnet_matches_reference_greedy():
    rng = np.random.default_rng(5)
    for eps in (0.02, 0.05, 0.1):
        for n in (1, 2, 40, 300):
            xy = _random_cloud(rng, n, spread=20.0)
            got = build_cnet(xy, (0.0, 0.0), eps)
            net, assign = _brute_cnet(xy, (0.0, 0.0), eps)
            assert got.net == net
            assert np.array_equal(got.assignment, assign)


def test_cnet_separation_and_covering():
    rng = np.random.default_rng(9)
    eps = 0.08
    xy = _random_cloud(rng, 500, spread=50.0)
    out = build_cnet(xy, (0.0, 0.0), eps)
    d = np.hypot(xy[:, 0], xy[:, 1])
    net = out.net
    for i, a in enumerate(net):
        for b in net[i + 1 :]:
            ab = math.hypot(xy[a, 0] - xy[b, 0], xy[a, 1] - xy[b, 1])
            assert ab > eps * min(d[a], d[b])
    for p in range(len(xy)):
        a = net[out.assignment[p]]
        pa = math.hypot(xy[p, 0] - xy[a, 0], xy[p, 1] - xy[a, 1])
        assert pa <= eps * d[a]
        # assigned net point is never farther from the source than p itself
        assert d[a] <= d[p]
        assert pa <= eps * d[p]


def test_cnet_net_points_map_to_themselves_and_ascend():
    rng = np.random.default_rng(13)
    xy = _random_cloud(rng, 200, spread=30.0)
    out = build_cnet(xy, (0.0, 0.0), 0.05)
    d = np.hypot(xy[:, 0], xy[:, 1])
    for pos, p in enumerate(out.net):
        assert out.assignment[p] == pos
    nd = d[out.net]
    assert np.all(np.diff(nd) >= 0.0)


def test_cnet_assignment_is_first_covering_net_point():
    rng = np.random.default_rng(17)
    eps = 0.1
    xy = _random_cloud(rng, 250, spread=10.0)
    out = build_cnet(xy, (0.0, 0.0), eps)
    d = np.hypot(xy[:, 0], xy[:, 1])
    for p in range(len(xy)):
        covering = [
            k
            for k, a in enumerate(out.net)
            if math.hypot(xy[p, 0] - xy[a, 0], xy[p, 1] - xy[a, 1]) <= eps * d[a]
        ]
        assert out.assignment[p] == covering[0]


def test_cnet_domain_errors():
    pts = [(1.0, 0.0), (2.0, 0.0)]
    for eps in (0.0, -0.1, 1.0 / 9.0, 0.5):
        with pytest.raises(ValueError):
            build_cnet(pts, (0.0, 0.0), eps)
    with pytest.raises(ValueError, match="coincides with the source"):
        build_cnet([(0.0, 0.0), (1.0, 1.0)], (0.0, 0.0), 0.05)


def test_cnet_single_point():
    out = build_cnet([(3.0, 4.0)], (0.0, 0.0), 0.05)
    assert out.net == [0]
    assert out.assignment.tolist() == [0]


def test_spanner_tiny_clusters():
    assert cluster_spanner(np.empty((0, 2))) == []
    assert cluster_spanner([(1.0, 2.0)]) == []
    assert cluster_spanner([(0.0, 0.0), (1.0, 0.0)]) == [(0, 1)]


def test_spanner_collinear_points_form_a_path():
    pts = [(float(i), 0.0) for i in range(6)]
    edges = cluster_spanner(pts)
    assert sorted(edges) == [(i, i + 1) for i in range(5)]


def test_spanner_stretch_at_most_two():
    rng = np.random.default_rng(21)
    for n in (3, 8, 25, 60):
        xy = rng.uniform(-1.0, 1.0, size=(n, 2))
        edges = cluster_spanner(xy)
        wedges = [
            (i, j, math.hypot(*(xy[i] - xy[j]))) for i, j in edges
        ]
        dist = floyd_warshall(n, wedges)
        for i in range(n):
            for j in range(i + 1, n):
                assert dist[i][j] <= 2.0 * math.hypot(*(xy[i] - xy[j])) + 1e-12


def test_spanner_is_deterministic():
    rng = np.random.default_rng(27)
    xy = rng.uniform(0.0, 1.0, size=(30, 2))
    first = cluster_spanner(xy)
    assert cluster_spanner(xy.copy()) == first


@st.composite
def _tie_heavy_clusters(draw):
    """0..80 points with many equal pair lengths: integer lattices (duplicates
    included), equally spaced collinear points, and lattices scaled by 1e-7
    and moved by 1e5."""
    m = draw(st.integers(0, 80))
    kind = draw(st.sampled_from(["lattice", "collinear", "shifted"]))
    if kind == "collinear":
        step = draw(st.sampled_from([1.0, 0.1, 3.0]))
        t = np.asarray(draw(st.permutations(range(m))), dtype=np.float64) * step
        pts = np.column_stack([t, np.zeros(m)])
        return pts[:, ::-1] if draw(st.booleans()) else pts
    side = draw(st.integers(1, 9))
    cell = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    pts = np.asarray(draw(st.lists(cell, min_size=m, max_size=m)), dtype=np.float64)
    pts = pts.reshape(-1, 2)
    return pts * 1e-7 + 1e5 if kind == "shifted" else pts


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_clusters())
def test_spanner_equals_the_plain_greedy_on_tie_heavy_clusters(xy):
    assert cluster_spanner(xy) == reference_cluster_spanner(xy)


def test_spanner_equals_the_plain_greedy_on_every_cluster_of_a_build(monkeypatch):
    clusters = []

    def record(cluster):
        clusters.append(np.array(cluster))
        return cluster_spanner(cluster)

    monkeypatch.setattr(pipeline, "cluster_spanner", record)
    pipeline.build_slt(generate("uniform", eps=4.0**-2, n=2000, seed=0))
    assert max(len(c) for c in clusters) > 20
    for xy in clusters:
        assert cluster_spanner(xy) == reference_cluster_spanner(xy)


def test_spanner_rejects_non_finite_lengths():
    with pytest.raises(ValueError, match="twice a pair length overflows"):
        cluster_spanner([[0.0, 0.0], [1e308, 0.0], [0.0, 1e308]])
    for bad in ([[0.0, 0.0], [np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0]], [[0.0, -np.inf], [1.0, 0.0]]):
        with pytest.raises(ValueError, match="coordinate is not finite"):
            cluster_spanner(bad)
