"""Exhaustive-optimum and lower-bound oracles, cross-checked independently."""

import math
from itertools import chain, combinations

import numpy as np
import pytest

from shallowlight.baselines import abp_slt, kry_slt
from shallowlight.geom import sandwich_ellipse, vertical_cross_section
from shallowlight.graphcore import verify_tree
from shallowlight.instances import generate
from shallowlight.oracles import (
    _MAX_BRUTE_N,
    all_spanning_trees,
    brute_force_opt_st,
    decode_prufer,
    steiner_lower_bound_certificate,
)
from helpers import exit_lower_bound, make_instance, tooth_regions


def _connected(n, edges):
    root = {i: i for i in range(n)}

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for u, v in edges:
        root[find(u)] = find(v)
    return len({find(i) for i in range(n)}) == 1


def _opt_by_edge_subsets(inst, eps):
    """Independent optimum: scan all (n-1)-edge subsets of the complete graph."""
    pts = inst.points
    n = inst.n
    s = inst.source_index
    dm = np.hypot(
        pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1]
    )
    budget = (1.0 + eps) * (1.0 + 1e-9) * dm[s]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = math.inf
    for sub in combinations(pairs, n - 1):
        if not _connected(n, sub):
            continue
        adj = {i: [] for i in range(n)}
        for u, v in sub:
            adj[u].append(v)
            adj[v].append(u)
        dist = {s: 0.0}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + dm[u, v]
                    stack.append(v)
        if all(dist[v] <= budget[v] for v in range(n)):
            best = min(best, sum(dm[u, v] for u, v in sub))
    return best


def test_decode_prufer_known_trees():
    assert sorted(tuple(sorted(e)) for e in decode_prufer([], 2)) == [(0, 1)]
    assert sorted(tuple(sorted(e)) for e in decode_prufer([0], 3)) == [(0, 1), (0, 2)]
    # sequence (3, 3): star-ish tree where 3 has degree 3
    edges = decode_prufer([3, 3], 4)
    assert sorted(tuple(sorted(e)) for e in edges) == [(0, 3), (1, 3), (2, 3)]
    with pytest.raises(ValueError):
        decode_prufer([0, 1], 3)


def test_all_spanning_trees_counts_and_validity():
    for n, count in ((2, 1), (3, 3), (4, 16), (5, 125)):
        trees = all_spanning_trees(n)
        assert trees.shape == (count, n - 1, 2)
        seen = set()
        for t in trees:
            edges = [tuple(sorted(map(int, e))) for e in t]
            assert len(set(edges)) == n - 1
            assert _connected(n, edges)
            seen.add(frozenset(edges))
        assert len(seen) == count  # Cayley's formula, all distinct


def test_all_spanning_trees_cache_and_bounds():
    assert all_spanning_trees(4) is all_spanning_trees(4)
    for bad in (1, _MAX_BRUTE_N + 1):
        with pytest.raises(ValueError):
            all_spanning_trees(bad)


def test_opt_prefers_chain_over_star_when_budget_allows():
    inst = make_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], eps=0.04)
    w, tree = brute_force_opt_st(inst, 0.04)
    assert w == pytest.approx(2.0, rel=1e-12)  # chain; stretch is exactly 1
    assert verify_tree(tree, inst) == []


def test_opt_respects_the_stretch_budget():
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.2)]
    d2 = math.hypot(1.0, 0.2)
    inst = make_instance(pts, eps=0.04)
    # loose budget: chain through p1 (weight 1.2) qualifies
    w_loose, _ = brute_force_opt_st(inst, 0.2)
    assert w_loose == pytest.approx(1.2, rel=1e-12)
    # tight budget: 1.2 > 1.1 * d(p2, s), only the star qualifies
    w_tight, tree = brute_force_opt_st(inst, 0.1)
    assert w_tight == pytest.approx(1.0 + d2, rel=1e-12)
    assert tree.parent.tolist() == [-1, 0, 0]


def test_opt_matches_edge_subset_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        pts[0] = (2.0, 0.0)
        inst = make_instance(pts, eps=1.0 / 64.0)
        eps = float(rng.choice([0.02, 0.1, 0.5]))
        w, tree = brute_force_opt_st(inst, eps)
        assert w == pytest.approx(_opt_by_edge_subsets(inst, eps), rel=1e-12)
        assert verify_tree(tree, inst) == []
        assert tree.weight() == pytest.approx(w, rel=1e-12)


def test_opt_size_guard():
    pts = [(float(i), 0.0) for i in range(_MAX_BRUTE_N + 1)]
    with pytest.raises(ValueError, match="exceeds"):
        brute_force_opt_st(make_instance(pts, eps=0.05), 0.05)


def _flat_instance(eps):
    pts = [(2.0, 0.0), (0.0, 0.0), (0.1, 0.02), (0.3, 0.01), (0.5, 0.03),
           (0.7, 0.0), (0.9, 0.02)]
    return make_instance(pts, eps=eps)


def test_certificate_boxes_are_disjoint_and_consistent():
    eps = 1.0 / 16.0
    inst = _flat_instance(eps)
    cert = steiner_lower_bound_certificate(inst)
    w = math.sqrt(eps)
    assert cert.value == pytest.approx(len(cert.boxes) * w, rel=1e-12)
    assert cert.boxes
    for i, a in enumerate(cert.boxes):
        assert a.x_hi - a.x_lo == pytest.approx(w, rel=1e-12)
        p = inst.points[a.owner]
        e = sandwich_ellipse(p, inst.source, eps)
        iv = vertical_cross_section(e, a.x_hi)
        assert (iv.lo, iv.hi) == (a.y_lo, a.y_hi)
        assert a.x_lo == p[0]
        for b in cert.boxes[i + 1 :]:
            x_overlap = a.x_lo < b.x_hi and b.x_lo < a.x_hi
            y_overlap = a.y_lo < b.y_hi and b.y_lo < a.y_hi
            assert not (x_overlap and y_overlap)


def test_certificate_is_below_the_exhaustive_optimum():
    # sound even for Steiner trees, so in particular for spanning trees
    eps = 1.0 / 16.0
    inst = _flat_instance(eps)
    cert = steiner_lower_bound_certificate(inst)
    w_opt, _ = brute_force_opt_st(inst, eps)
    assert cert.value <= w_opt + 1e-12


def test_certificate_domain_errors():
    inst = _flat_instance(1.0 / 16.0)
    with pytest.raises(ValueError, match="strip_width"):
        steiner_lower_bound_certificate(inst, strip_width=0.0)
    with pytest.raises(ValueError, match="ellipse extent"):
        steiner_lower_bound_certificate(inst, strip_width=50.0)
    steep = make_instance([(2.0, 0.0), (0.0, 1.5)], eps=1.0 / 16.0)
    with pytest.raises(ValueError, match="slope"):
        steiner_lower_bound_certificate(steep)


def test_exit_bound_on_a_collinear_chain():
    inst = make_instance([(2.0, 0.0), (0.0, 0.0), (1.0, 0.0)], eps=1.0 / 16.0)
    # (0,0) alone must pay an edge to (1,0) or the source: at least 1
    assert exit_lower_bound(inst, [1], 0.0625) == pytest.approx(1.0, rel=1e-12)
    # both exits are feasible for (0,0), so only one point is counted
    assert exit_lower_bound(inst, [1, 2], 0.0625) == pytest.approx(1.0, rel=1e-12)
    assert exit_lower_bound(inst, [], 0.0625) == 0.0
    with pytest.raises(ValueError, match="source"):
        exit_lower_bound(inst, [0, 1], 0.0625)


def test_exit_bound_never_exceeds_the_exhaustive_optimum():
    # every region, and every split of the points into a region and its
    # complement (bounds of disjoint regions add up)
    pairs = 0
    for n in range(4, 8):
        for seed in range(16):
            inst = generate("uniform", eps=1.0 / 64.0, n=n - 1, seed=seed)
            others = range(1, inst.n)
            for sigma in (0.02, 0.1, 0.5):
                w_opt, _ = brute_force_opt_st(inst, sigma)
                for region in chain.from_iterable(
                    combinations(others, k) for k in range(1, inst.n)
                ):
                    rest = [v for v in others if v not in region]
                    bound = exit_lower_bound(inst, region, sigma)
                    split = bound + exit_lower_bound(inst, rest, sigma)
                    assert bound <= w_opt * (1.0 + 1e-9), (n, seed, sigma, region)
                    assert split <= w_opt * (1.0 + 1e-9), (n, seed, sigma, region)
                    pairs += 1
    assert pairs == 16 * 3 * (7 + 15 + 31 + 63)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_exit_bound_stays_below_the_baselines_on_comb(k):
    # kry and abp meet root-stretch 1+eps, so each weighs at least the optimum
    eps = 4.0**-k
    inst = generate("comb", eps=eps)
    bound = sum(exit_lower_bound(inst, r, eps) for r in tooth_regions(inst))
    assert len(tooth_regions(inst)) == 4
    assert bound > 0.0
    for builder in (kry_slt, abp_slt):
        assert bound <= builder(inst).weight() * (1.0 + 1e-9), builder.__name__
