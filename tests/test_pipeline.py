"""Full tree construction: tiling, per-tile routing, merge, prune, report."""

import math

import numpy as np
import pytest

from shallowlight.cnet import build_cnet, cluster_spanner
from shallowlight.graphcore import KIND_SOURCE, KIND_STEINER, root_stretch, verify_tree
from shallowlight.instances import generate
from shallowlight.pipeline import MODES, build_slt
from shallowlight.tiling import TilingParams, tiles_of
from helpers import make_instance


def test_modes_tuple():
    assert MODES == ("steiner", "restricted")


@pytest.mark.parametrize("mode", MODES)
def test_build_shapes_and_report(mode):
    inst = generate("uniform", eps=1.0 / 32.0, n=300, seed=2)
    tree, rep = build_slt(inst, mode=mode)
    assert verify_tree(tree, inst) == []
    assert rep.mode == mode
    assert rep.eps == inst.eps
    assert rep.threads == 1
    assert rep.wall_time_s > 0.0
    # every non-source point is routed through exactly one tile
    assert sum(t.n_points for t in rep.tiles) == inst.n - 1
    assert all(1 <= t.net_size <= t.n_points for t in rep.tiles)
    per_tile = sum(t.path_weight + t.spanner_weight for t in rep.tiles)
    assert rep.union_graph_weight <= per_tile * (1.0 + 1e-9)
    assert rep.tree_weight <= rep.union_graph_weight * (1.0 + 1e-9)
    assert rep.tree_weight == tree.weight()
    assert rep.max_stretch == root_stretch(tree, inst)
    # smoke budget; the calibrated bound lives in the acceptance suite
    assert rep.max_stretch <= 1.0 + 50.0 * inst.eps * math.log2(1.0 / inst.eps)
    assert rep.n_steiner == int(np.sum(tree.kind == KIND_STEINER))


@pytest.mark.parametrize("mode", MODES)
def test_tile_stats_match_a_direct_recount(mode):
    inst = generate("uniform", eps=1.0 / 32.0, n=1500, seed=3)
    _, rep = build_slt(inst, mode=mode)
    params = TilingParams.for_eps(inst.source, inst.eps)
    others = np.flatnonzero(np.arange(inst.n) != inst.source_index)
    rings, sectors = tiles_of(inst.points[others], params)
    assert [t.tile for t in rep.tiles] == sorted(set(zip(rings.tolist(), sectors.tolist())))
    for t in rep.tiles:
        world = inst.points[others[(rings == t.tile[0]) & (sectors == t.tile[1])]]
        cn = build_cnet(world, inst.source, inst.eps)
        weight = 0.0
        for pos in range(len(cn.net)):
            cluster = world[cn.assignment == pos]
            weight += sum(math.dist(cluster[a], cluster[b]) for a, b in cluster_spanner(cluster))
        assert t.n_points == len(world)
        assert t.net_size == len(cn.net)
        assert t.spanner_weight == pytest.approx(weight, rel=1e-12, abs=0.0)
    assert sum(t.spanner_weight > 0.0 for t in rep.tiles) >= len(rep.tiles) // 2


def test_restricted_mode_adds_no_vertices():
    inst = generate("uniform", eps=1.0 / 32.0, n=250, seed=4)
    tree, rep = build_slt(inst, mode="restricted")
    assert tree.n_vertices == inst.n
    assert rep.n_steiner == 0


def test_steiner_mode_prunes_dangling_steiner_chains():
    inst = generate("uniform", eps=1.0 / 64.0, n=400, seed=5)
    tree, rep = build_slt(inst, mode="steiner")
    assert rep.n_steiner > 0  # the ladders actually fire on this instance
    child_count = np.zeros(tree.n_vertices, dtype=int)
    np.add.at(child_count, tree.parent[tree.parent >= 0], 1)
    steiner = np.flatnonzero(tree.kind == KIND_STEINER)
    assert np.all(child_count[steiner] >= 1)


@pytest.mark.parametrize("mode", MODES)
def test_thread_count_does_not_change_the_tree(mode):
    inst = generate("uniform", eps=1.0 / 32.0, n=500, seed=6)
    t1, r1 = build_slt(inst, mode=mode, threads=1)
    t4, r4 = build_slt(inst, mode=mode, threads=4)
    assert np.array_equal(t1.xy, t4.xy)
    assert np.array_equal(t1.parent, t4.parent)
    assert np.array_equal(t1.kind, t4.kind)
    assert np.array_equal(t1.root_dist, t4.root_dist)
    assert r1.tree_weight == r4.tree_weight
    assert r1.union_graph_weight == r4.union_graph_weight
    assert [t.tile for t in r1.tiles] == [t.tile for t in r4.tiles]
    assert r4.threads == 4


def test_build_is_deterministic_across_runs():
    inst = generate("uniform", eps=1.0 / 16.0, n=200, seed=7)
    a, _ = build_slt(inst, mode="steiner")
    b, _ = build_slt(inst, mode="steiner")
    assert np.array_equal(a.xy, b.xy)
    assert np.array_equal(a.parent, b.parent)


def test_two_point_instance():
    inst = make_instance([(2.0, 0.0), (0.3, 0.1)], eps=1.0 / 32.0)
    # no interior stops exist, so the restricted route is the direct edge
    tree, rep = build_slt(inst, mode="restricted")
    assert tree.parent.tolist() == [-1, 0]
    assert rep.max_stretch == pytest.approx(1.0, rel=1e-9)
    # the steiner route bends at ladder stops but keeps the budget
    tree, rep = build_slt(inst, mode="steiner")
    assert verify_tree(tree, inst) == []
    assert rep.max_stretch <= 1.0 + 50.0 * inst.eps * math.log2(1.0 / inst.eps)


def test_circle_instance_both_modes():
    inst = generate("circle", eps=1.0 / 32.0)
    for mode in MODES:
        tree, rep = build_slt(inst, mode=mode)
        assert verify_tree(tree, inst) == []
        assert rep.max_stretch <= 1.0 + 50.0 * inst.eps * math.log2(1.0 / inst.eps)


def test_build_rejects_bad_arguments():
    inst = generate("uniform", eps=1.0 / 32.0, n=20, seed=1)
    with pytest.raises(ValueError, match="unknown mode"):
        build_slt(inst, mode="fast")
    loose = generate("uniform", eps=0.5, n=20, seed=1)
    with pytest.raises(ValueError, match="eps"):
        build_slt(loose)
    tiny = make_instance([(2.0, 0.0)], eps=1.0 / 32.0)
    with pytest.raises(ValueError, match="at least 2"):
        build_slt(tiny)
