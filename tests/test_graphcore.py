"""Graph containers, exact MST, SPT, and the two quality metrics."""

import math
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree as scipy_mst

from shallowlight.graphcore import (
    KIND_CODES,
    KIND_INPUT,
    KIND_NAMES,
    KIND_SOURCE,
    KIND_STEINER,
    GeoGraph,
    RootedTree,
    _mst_delaunay,
    _prim_dense,
    lightness,
    mst,
    root_distances,
    root_stretch,
    shortest_path_tree,
    verify_tree,
)
from shallowlight import baselines, graphcore
from shallowlight.baselines import kry_slt
from shallowlight.instances import generate
from helpers import (
    chain_root_distances,
    floyd_warshall,
    make_instance,
    reference_mst_knn,
    reference_prim_dense,
)


def _scipy_mst_weight(xy):
    n = len(xy)
    diff = xy[:, None, :] - xy[None, :, :]
    dm = np.hypot(diff[..., 0], diff[..., 1])
    t = scipy_mst(csr_matrix(dm)).tocoo()
    return float(np.sort(t.data).sum())


def _tree_from_edges(xy, edges, root):
    """Parent pointers and root distances from an undirected edge list."""
    n = len(xy)
    adj = {i: [] for i in range(n)}
    for u, v in edges:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    parent = np.full(n, -2, dtype=np.int64)
    dist = np.zeros(n)
    parent[root] = -1
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if parent[v] == -2:
                parent[v] = u
                dist[v] = dist[u] + math.hypot(*(xy[v] - xy[u]))
                stack.append(v)
    assert np.all(parent != -2)
    kind = np.full(n, KIND_INPUT, dtype=np.int8)
    kind[root] = KIND_SOURCE
    return RootedTree(xy, kind, root, parent, dist)


def test_kind_constants():
    assert (KIND_INPUT, KIND_STEINER, KIND_SOURCE) == (0, 1, 2)
    assert KIND_NAMES[KIND_STEINER] == "steiner"
    assert all(KIND_CODES[name] == code for code, name in KIND_NAMES.items())


def test_mst_known_square():
    edges, w = mst([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    assert edges.shape == (3, 2)
    assert w == pytest.approx(3.0, rel=1e-15)


def test_mst_trivial_sizes():
    e, w = mst([(2.0, 3.0)])
    assert e.shape == (0, 2) and w == 0.0
    with pytest.raises(ValueError):
        mst(np.empty((0, 2)))


def test_mst_matches_scipy_on_random_sets():
    rng = np.random.default_rng(3)
    for n in (2, 3, 7, 40, 200):
        xy = rng.uniform(0.0, 1.0, size=(n, 2))
        edges, w = mst(xy)
        assert edges.shape == (n - 1, 2)
        assert w == pytest.approx(_scipy_mst_weight(xy), rel=1e-12)


def _prim_edges(xy):
    """_prim_dense's edge set in mst()'s (u < v, lexsorted) order."""
    e = np.sort(_prim_dense(xy), axis=1)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


def _count_prim_calls(monkeypatch):
    calls = []

    def counted(xy):
        calls.append(len(xy))
        return _prim_dense(xy)

    monkeypatch.setattr(graphcore, "_prim_dense", counted)
    return calls


def _battery_baseline_points():
    # the uniform-2k-battery instances that perfbench also builds baselines on
    return [generate("uniform", eps=4.0**-k, n=2000, seed=s).points
            for k in (2, 3, 4) for s in (0, 1)]


def _degenerate_sets():
    repeated = np.random.default_rng(8).uniform(0.0, 1.0, size=(100, 2))
    repeated[99] = repeated[3]
    return [
        np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),  # unit square
        np.array([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]),  # collinear
        repeated,
    ]


def _tie_rich_sets():
    families = [generate(kind, eps=4.0**-k).points
                for kind in ("comb", "cnet-comb", "sector-lb", "circle") for k in range(2, 7)]
    return [xy for xy in families if len(xy) <= 3000] + _degenerate_sets()


def test_mst_edges_are_lexsorted_pairs_at_every_size():
    rng = np.random.default_rng(4)
    sets = [rng.uniform(0.0, 1.0, size=(n, 2)) for n in (2, 3, 200, 3100)]
    for xy in sets + _degenerate_sets():
        e, _ = mst(xy)
        assert e.dtype == np.int64 and e.shape == (len(xy) - 1, 2)
        assert np.all(e[:, 0] < e[:, 1])
        assert np.array_equal(e, e[np.lexsort((e[:, 1], e[:, 0]))])


def test_delaunay_fast_path_equals_dense_prim_without_calling_it(monkeypatch):
    rng = np.random.default_rng(21)
    sets = [rng.uniform(0.0, 1.0, size=(n, 2))
            for n in (3, 4, 10, 100, 1000, 2001, 3000) for _ in range(3)]
    sets += _battery_baseline_points()
    calls = _count_prim_calls(monkeypatch)
    for xy in sets:
        e, _ = mst(xy)
        assert calls == [], len(xy)
        assert np.array_equal(e, _prim_edges(xy)), len(xy)


def test_tie_rich_sets_take_dense_prim(monkeypatch):
    """Every family instance up to 3,000 points, the unit square, three
    collinear points and a set with a repeated point go to dense Prim."""
    calls = _count_prim_calls(monkeypatch)
    for xy in _tie_rich_sets():
        calls.clear()
        e, _ = mst(xy)
        assert calls == [len(xy)]
        assert np.array_equal(e, _prim_edges(xy))


def test_delaunay_helper_refuses_equal_edge_lengths():
    square = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    assert _mst_delaunay(square) is None
    # a slightly skewed quadrilateral has distinct lengths and is certified
    kite = np.array([(0.0, 0.0), (1.0, 0.1), (0.2, 1.3), (1.4, 1.7)])
    assert np.array_equal(_mst_delaunay(kite), _prim_edges(kite))


def test_mst_knn_path_agrees_with_dense_prim():
    rng = np.random.default_rng(5)
    xy = rng.uniform(0.0, 1.0, size=(3100, 2))  # above the dense cutoff, tie-free
    e, _ = mst(xy)
    assert np.array_equal(e, _prim_edges(xy))


def test_mst_knn_csr_layout_equals_the_coo_construction():
    cases = [generate("uniform", eps=0.01, n=20000, seed=0).points]
    cases += [xy for xy in (generate(kind, eps=4.0**-k).points
                            for kind in ("comb", "cnet-comb", "sector-lb", "circle")
                            for k in range(2, 7)) if len(xy) > 3000]
    assert len(cases) == 5
    for xy in cases:
        assert np.array_equal(mst(xy)[0], reference_mst_knn(xy)), len(xy)


def test_mst_joins_repeats_above_the_dense_cutoff():
    rng = np.random.default_rng(6)
    xy = rng.uniform(0.0, 1.0, size=(3100, 2))
    xy[3099] = xy[17]
    t0 = time.perf_counter()
    e, w = mst(xy)
    assert time.perf_counter() - t0 < 1.0
    assert e.shape == (3099, 2)
    assert [17, 3099] in e.tolist()
    assert w == _prim_weight(xy)
    xy[[40, 41, 42]] = xy[5]  # a point with four copies, and more pairs
    xy[[7, 8]] = xy[1000]
    e, w = mst(xy)
    assert e.shape == (3099, 2) and np.all(e[:, 0] < e[:, 1])
    assert len({tuple(p) for p in e.tolist()}) == 3099
    assert w == _prim_weight(xy)


def _prim_weight(xy):
    e = _prim_dense(xy)
    d = np.hypot(xy[e[:, 0], 0] - xy[e[:, 1], 0], xy[e[:, 0], 1] - xy[e[:, 1], 1])
    return float(np.sort(d).sum())


@pytest.mark.parametrize("n", [200, 3100])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mst_rejects_non_finite_coordinates(n, bad):
    xy = np.random.default_rng(9).uniform(0.0, 1.0, size=(n, 2))
    xy[n // 2, 1] = bad
    with pytest.raises(ValueError, match="mst: a coordinate is not finite"):
        mst(xy)


def test_prim_dense_equals_the_masked_prim():
    """Same edge array, order included, as Prim with an in-tree mask: on the
    grid families, whose many equal distances exercise the lowest-index tie
    rule, and on uniform sets."""
    cases = [generate("uniform", eps=4.0**-3, n=2000, seed=s).points for s in (0, 1)]
    families = [generate(kind, eps=4.0**-k).points
                for kind in ("comb", "cnet-comb", "sector-lb", "circle") for k in range(2, 7)]
    cases += [xy for xy in families if len(xy) <= 3000]  # mst()'s dense-Prim range
    for xy in cases:
        assert np.array_equal(_prim_dense(xy), reference_prim_dense(xy))


def test_geograph_build_canonicalizes_edges():
    xy = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
    kind = [KIND_SOURCE, KIND_INPUT, KIND_INPUT]
    g = GeoGraph.build(xy, kind, [(2, 0), (0, 1), (1, 0), (0, 2)])
    assert g.edges.tolist() == [[0, 1], [0, 2]]  # u < v, sorted, deduped
    assert g.weights.tolist() == [1.0, 2.0]
    assert g.n_vertices == 3


def test_geograph_build_rejects_bad_input():
    xy = [(0.0, 0.0), (1.0, 0.0)]
    with pytest.raises(ValueError, match="length mismatch"):
        GeoGraph.build(xy, [0], [(0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        GeoGraph.build(xy, [0, 0], [(0, 2)])
    with pytest.raises(ValueError, match="self loop"):
        GeoGraph.build(xy, [0, 0], [(1, 1)])


def test_total_weight_is_order_canonical():
    rng = np.random.default_rng(7)
    xy = rng.uniform(0.0, 1.0, size=(40, 2))
    pairs = [(i, j) for i in range(40) for j in range(i + 1, 40) if (i + j) % 3]
    g1 = GeoGraph.build(xy, np.zeros(40), pairs)
    rng.shuffle(pairs)
    g2 = GeoGraph.build(xy, np.zeros(40), [(j, i) for i, j in pairs])
    assert g1.total_weight() == g2.total_weight()  # bitwise equal


def test_rooted_tree_rejects_bad_root_parent():
    xy = np.array([[0.0, 0.0], [1.0, 0.0]])
    kind = np.zeros(2, dtype=np.int8)
    with pytest.raises(ValueError, match="parent -1"):
        RootedTree(xy, kind, 0, np.array([1, 0]), np.zeros(2))


def test_rooted_tree_edge_list_and_weight():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    t = _tree_from_edges(xy, [(0, 1), (1, 2), (2, 3)], root=0)
    assert t.edge_list().tolist() == [[1, 0], [2, 1], [3, 2]]
    assert t.weight() == pytest.approx(3.0, rel=1e-15)
    assert t.root_dist.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_spt_tie_breaks_to_lower_parent_id():
    xy = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    g = GeoGraph.build(xy, np.zeros(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
    t = shortest_path_tree(g, 0)
    assert t.root_dist[3] == pytest.approx(2.0, rel=1e-15)
    assert t.parent[3] == 1  # routes via 1 and 2 tie; lower id wins


def test_spt_distances_match_apsp_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        xy = rng.uniform(0.0, 1.0, size=(n, 2))
        pairs = set()
        # random connected graph: a spanning path plus extra chords
        for i in range(1, n):
            pairs.add((i - 1, i))
        for _ in range(n):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        g = GeoGraph.build(xy, np.zeros(n), sorted(pairs))
        t = shortest_path_tree(g, 0)
        wedges = [
            (int(u), int(v), float(w)) for (u, v), w in zip(g.edges, g.weights)
        ]
        oracle = floyd_warshall(n, wedges)
        assert np.allclose(t.root_dist, oracle[0], rtol=1e-12, atol=0.0)
        # parent edges realize the distances
        for v in range(1, n):
            p = int(t.parent[v])
            gap = t.root_dist[v] - t.root_dist[p]
            assert gap == pytest.approx(math.hypot(*(g.xy[v] - g.xy[p])), rel=1e-9)


def test_spt_error_cases():
    xy = [(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)]
    g = GeoGraph.build(xy, np.zeros(3), [(0, 1)])
    with pytest.raises(ValueError, match="root out of range"):
        shortest_path_tree(g, 3)
    with pytest.raises(ValueError, match="unreachable"):
        shortest_path_tree(g, 0)


def test_root_distances_sums_chain_edges_and_rejects_cycles():
    xy = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 0.0], [6.0, 4.0]])
    assert root_distances(np.array([-1, 2, 0, 1]), xy, 0).tolist() == [0.0, 7.0, 3.0, 10.0]
    with pytest.raises(ValueError, match="cycle"):
        root_distances(np.array([-1, 3, 0, 1]), xy, 0)


def test_root_distances_equal_the_chain_walk_bit_for_bit():
    rng = np.random.default_rng(11)
    cases = []
    for m in (1, 2, 50, 3000):
        xy = rng.normal(size=(m, 2)) * 10.0 ** rng.uniform(-6, 6, size=(m, 1))
        root = int(rng.integers(m))
        rank = rng.permutation(m)  # the root gets rank 0
        rank[[root, int(np.argmin(rank))]] = rank[[int(np.argmin(rank)), root]]
        by_rank = np.argsort(rank)
        deep = np.concatenate([[-1], by_rank[:-1]])[rank]  # one path, m levels
        bushy = by_rank[rng.integers(0, np.maximum(rank, 1))]  # any lower rank
        bushy[root] = -1
        cases += [(deep, xy, root), (bushy, xy, root)]
    for name in ("kry_slt", "abp_slt", "solomon_slt", "mst_rooted"):
        for inst in (generate("uniform", eps=1.0 / 64.0, n=800, seed=2),
                     generate("comb", eps=4.0**-4)):
            t = getattr(baselines, name)(inst)
            cases.append((t.parent, t.xy, t.root))
    for parent, xy, root in cases:
        want = chain_root_distances(parent, xy, root)
        assert root_distances(parent, xy, root).tobytes() == want.tobytes()


def _break_wrong_root(t):
    t.parent[5], t.root = -1, 5


def _break_cycle(t):
    a, b = (int(v) for v in np.flatnonzero(t.parent > 0)[:2])
    t.parent[a], t.parent[b] = b, a


def _scale_root_dist(factor):
    def fault(t):
        t.root_dist[7] *= factor
    return fault


@pytest.mark.parametrize("fault, message", [
    pytest.param(_break_wrong_root, "root 5 != instance source 0", id="wrong-root"),
    pytest.param(lambda t: t.kind.__setitem__(0, KIND_INPUT), "not marked as the source",
                 id="root-not-source"),
    pytest.param(_break_cycle, "cycle", id="parent-cycle"),
    pytest.param(lambda t: t.parent.__setitem__(3, t.n_vertices), "out of range",
                 id="parent-past-end"),
    pytest.param(lambda t: t.parent.__setitem__(3, -1), "out of range", id="second-root"),
    pytest.param(_scale_root_dist(1.0 + 1e-7), "root distances off", id="root-dist-scaled"),
    pytest.param(_scale_root_dist(math.nan), "root distances off", id="root-dist-nan"),
    pytest.param(lambda t: t.xy.__setitem__((2, 0), t.xy[2, 0] + 1e-12), "does not carry",
                 id="points-moved"),
])
def test_verify_tree_reports_each_fault(fault, message):
    inst = generate("uniform", eps=1.0 / 16.0, n=30, seed=4)
    tree = kry_slt(inst)
    assert verify_tree(tree, inst) == []
    fault(tree)
    faults = verify_tree(tree, inst)
    assert any(message in f for f in faults), faults


def test_verify_tree_tolerates_rounding_in_root_dist():
    inst = generate("uniform", eps=1.0 / 16.0, n=30, seed=4)
    tree = kry_slt(inst)
    tree.root_dist *= 1.0 + 1e-12
    assert verify_tree(tree, inst) == []


def test_root_stretch_known_detour():
    pts = [(0.0, 0.0), (1.0, 0.0)]
    inst = make_instance(pts, eps=0.04, source_index=0)
    xy = np.array(pts + [(0.5, 0.5)])
    kind = np.array([KIND_SOURCE, KIND_INPUT, KIND_STEINER], dtype=np.int8)
    g = GeoGraph.build(xy, kind, [(0, 2), (2, 1)])
    t = shortest_path_tree(g, 0)
    assert root_stretch(t, inst) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_root_stretch_requires_instance_points_prefix():
    pts = [(0.0, 0.0), (1.0, 0.0)]
    inst = make_instance(pts, eps=0.04)
    xy = np.array([(0.0, 0.0), (2.0, 0.0)])  # second point differs
    t = _tree_from_edges(xy, [(0, 1)], root=0)
    with pytest.raises(ValueError, match="instance points"):
        root_stretch(t, inst)


def test_mst_tree_has_lightness_exactly_one():
    rng = np.random.default_rng(13)
    for n in (2, 5, 50, 400):
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        inst = make_instance(pts, eps=0.04)
        edges, _ = mst(pts)
        t = _tree_from_edges(pts, edges, root=0)
        assert lightness(t, inst) == 1.0  # bitwise, thanks to canonical sums


def test_lightness_rejects_zero_mst():
    # coincident points never survive instance validation, so feed the metric
    # a bare stand-in to reach its divide-by-zero guard
    class Stub:
        points = np.array([[0.5, 0.5], [0.5, 0.5]])

    t = _tree_from_edges(Stub.points, [(0, 1)], root=0)
    with pytest.raises(ValueError, match="zero MST"):
        lightness(t, Stub())
