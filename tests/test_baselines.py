"""Comparison tree builders: stretch guarantees, breaking rules, gadgets."""

import math

import numpy as np
import pytest

from shallowlight.baselines import (
    abp_slt,
    break_subpaths,
    hamiltonian_order,
    kry_slt,
    mst_rooted,
    solomon_slt,
)
from shallowlight.graphcore import (
    KIND_SOURCE,
    KIND_STEINER,
    lightness,
    mst,
    root_stretch,
    verify_tree,
)
from shallowlight.instances import generate
from helpers import make_instance


def _battery(eps):
    rng = np.random.default_rng(41)
    out = [generate("uniform", eps=eps, n=120, seed=s) for s in (0, 1, 2)]
    out.append(generate("circle", eps=eps))
    out.append(generate("comb", eps=eps))
    return out


def test_mst_rooted_lightness_exactly_one():
    for inst in _battery(0.0625):
        t = mst_rooted(inst)
        assert verify_tree(t, inst) == []
        assert t.n_vertices == inst.n
        assert lightness(t, inst) == 1.0


def test_kry_stretch_guarantee_and_weight():
    for eps in (0.25, 0.0625):
        for inst in _battery(eps):
            t = kry_slt(inst)
            assert verify_tree(t, inst) == []
            assert root_stretch(t, inst) <= (1.0 + eps) * (1.0 + 1e-9)
            # classic charging argument: reparenting pays at most 2/eps extra
            assert lightness(t, inst) <= 1.0 + 2.0 / eps + 1e-9


def test_hamiltonian_order_is_a_cheap_tour():
    for inst in _battery(0.0625):
        order = hamiltonian_order(inst)
        assert sorted(order) == list(range(inst.n))
        assert order[0] == inst.source_index
        pts = inst.points
        hops = sum(
            math.dist(pts[order[t]], pts[order[t + 1]])
            for t in range(len(order) - 1)
        )
        _, w = mst(pts)
        assert hops <= 2.0 * w * (1.0 + 1e-12)


def test_break_subpaths_partition_weight_and_anchors():
    inst = generate("uniform", eps=0.09, n=200, seed=5)
    order = hamiltonian_order(inst)[1:]
    factor = 0.3
    brk = break_subpaths(inst, order, factor)
    pts = inst.points
    s = inst.source_index
    ds = np.hypot(pts[:, 0] - pts[s, 0], pts[:, 1] - pts[s, 1])
    assert brk.ranges[0][0] == 0
    assert brk.ranges[-1][1] == len(order)
    for (lo, hi), nxt in zip(brk.ranges, brk.ranges[1:]):
        assert hi == nxt[0]  # contiguous partition
    for (lo, hi), a in zip(brk.ranges, brk.anchors):
        seg = order[lo:hi]
        w = sum(math.dist(pts[seg[t]], pts[seg[t + 1]]) for t in range(len(seg) - 1))
        md = min(float(ds[v]) for v in seg)
        assert w <= factor * md * (1.0 + 1e-12)
        # anchor: earliest position attaining the minimum distance
        seg_ds = [float(ds[v]) for v in seg]
        assert a - lo == seg_ds.index(min(seg_ds))
        # greedy maximality: the next vertex would break the budget
        if hi < len(order):
            w_next = w + math.dist(pts[order[hi - 1]], pts[order[hi]])
            md_next = min(md, float(ds[order[hi]]))
            assert w_next > factor * md_next


def test_abp_stretch_and_tree_shape():
    for eps in (0.25, 0.0625, 0.01):
        for inst in _battery(eps):
            t = abp_slt(inst)
            assert verify_tree(t, inst) == []
            assert t.n_vertices == inst.n
            assert root_stretch(t, inst) <= (1.0 + eps) * (1.0 + 1e-9)


def test_abp_orients_subpaths_through_the_anchor():
    # collinear points left of the source: one subpath, anchor nearest point
    pts = [(2.0, 0.0), (1.0, 0.0), (0.9, 0.0), (0.8, 0.0)]
    inst = make_instance(pts, eps=0.5)
    t = abp_slt(inst)
    # anchor 1 spokes to the source; 2 and 3 chain through it rightward
    assert t.parent.tolist() == [-1, 0, 1, 2]
    assert root_stretch(t, inst) <= 1.5 * (1.0 + 1e-9)


def test_solomon_gadget_coordinates():
    pts = [(0.0, 0.0), (1.0, 0.1), (1.0, -0.1)]
    inst = make_instance(pts, eps=0.25)
    t = solomon_slt(inst)
    assert t.n_vertices == 4  # one merge point for the single pair
    assert t.kind[3] == KIND_STEINER
    # midpoint (1, 0) moved toward the source by min(d(a,b), 0.9*gap) = 0.2
    assert t.xy[3].tolist() == [0.8, 0.0]
    assert t.parent.tolist() == [-1, 3, 3, 0]


def test_solomon_stretch_and_shape():
    for eps in (0.25, 0.0625, 0.01):
        for inst in _battery(eps):
            t = solomon_slt(inst)
            assert verify_tree(t, inst) == []
            assert t.n_vertices >= inst.n
            extra = t.kind[inst.n :]
            assert set(extra.tolist()) <= {KIND_STEINER}
            assert root_stretch(t, inst) <= 1.0 + math.sqrt(eps)


def test_builders_are_deterministic():
    inst = generate("uniform", eps=0.04, n=180, seed=9)
    for fn in (mst_rooted, kry_slt, abp_slt, solomon_slt):
        a = fn(inst)
        b = fn(inst)
        assert np.array_equal(a.parent, b.parent)
        assert np.array_equal(a.xy, b.xy)
        assert np.array_equal(a.root_dist, b.root_dist)
