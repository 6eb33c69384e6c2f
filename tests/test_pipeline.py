"""Full tree construction: tiling, per-tile routing, merge, prune, report."""

import concurrent.futures
import math
import multiprocessing
import threading

import numpy as np
import pytest

from shallowlight import pipeline
from shallowlight.cnet import build_cnet, cluster_spanner
from shallowlight.graphcore import KIND_SOURCE, KIND_STEINER, root_stretch, verify_tree
from shallowlight.instances import generate
from shallowlight.pipeline import MODES, build_slt
from shallowlight.tiling import TilingParams, tiles_of
from helpers import make_instance
from test_golden import CASES as GOLDEN_CASES


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
    assert rep.workers == 0
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


def _tree_bytes(tree):
    return b"".join(np.asarray(a).tobytes() for a in
                    (tree.xy, tree.kind, tree.parent, tree.root_dist, tree.root))


@pytest.mark.parametrize("mode", MODES)
def test_thread_count_does_not_change_the_tree(monkeypatch, mode):
    monkeypatch.setattr(pipeline, "POOL_MIN_POINTS", 0)  # pool every build
    insts = [generate("uniform", eps=1.0 / 32.0, n=500, seed=6)]
    insts += [generate(kind, eps=eps, n=n, seed=0) for kind, eps, n in GOLDEN_CASES.values()]
    for inst in insts:
        t1, r1 = build_slt(inst, mode=mode, threads=1)
        for threads in (2, 8):
            tn, rn = build_slt(inst, mode=mode, threads=threads)
            assert _tree_bytes(tn) == _tree_bytes(t1)
            assert rn.tree_weight == r1.tree_weight
            assert rn.union_graph_weight == r1.union_graph_weight
            assert rn.tiles == r1.tiles
            assert rn.threads == threads
            want = min(threads, len(rn.tiles), pipeline._usable_cores())
            assert rn.workers == (want if want > 1 else 0)
    assert multiprocessing.active_children() == []


@pytest.fixture
def asked(monkeypatch):
    """Swap ProcessPoolExecutor for an in-process stand-in; the list of max_workers it got."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            assert chunksize >= 1
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return seen


@pytest.mark.parametrize("cores", [None, 1, 3, 10_000])
def test_workers_are_capped_at_tiles_and_usable_cores(monkeypatch, asked, cores):
    monkeypatch.setattr(pipeline, "POOL_MIN_POINTS", 0)
    if cores is not None:
        monkeypatch.setattr(pipeline, "_usable_cores", lambda: cores)
    usable = pipeline._usable_cores()
    inst = generate("uniform", eps=1.0 / 32.0, n=500, seed=6)
    tree, rep = build_slt(inst, threads=10_000)
    want = min(len(rep.tiles), usable)
    assert len(rep.tiles) > 3
    assert asked == ([want] if want > 1 else [])
    assert rep.workers == (want if want > 1 else 0)
    assert _tree_bytes(tree) == _tree_bytes(build_slt(inst, threads=1)[0])


def test_small_builds_route_in_process(monkeypatch, asked):
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: 3)
    for kind, eps, n in [("uniform", 4.0**-3, 500), ("cnet-comb", 4.0**-6, None),
                         ("uniform", 4.0**-3, 2000)]:
        tree, rep = build_slt(generate(kind, eps=eps, n=n, seed=0), threads=3)
        sizes = [t.n_points for t in rep.tiles]
        pooled = sum(sizes) - max(sizes) >= pipeline.POOL_MIN_POINTS
        assert asked == ([3] if pooled else []), (kind, sizes)
        assert rep.workers == (3 if pooled else 0)
        asked.clear()
        assert pooled == (n == 2000)  # cnet-comb: one tile holds 2270 of 2289 points


def test_no_fork_while_another_thread_runs(monkeypatch, asked):
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: 3)
    monkeypatch.setattr(pipeline, "POOL_MIN_POINTS", 0)
    inst = generate("uniform", eps=1.0 / 32.0, n=500, seed=6)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30.0,))
    other.start()
    try:
        _, rep = build_slt(inst, threads=3)
    finally:
        release.set()
        other.join(timeout=30.0)
    assert not other.is_alive()
    assert asked == []
    assert (rep.threads, rep.workers) == (3, 0)
    _, rep = build_slt(inst, threads=3)
    assert asked == [3]
    assert (rep.threads, rep.workers) == (3, 3)


def test_an_error_in_a_tile_comes_out_of_the_pool_unchanged(monkeypatch):
    def fail(*args):
        raise ValueError("routing failed in a tile")

    monkeypatch.setattr(pipeline, "steiner_tile_paths", fail)  # forked into the workers
    monkeypatch.setattr(pipeline, "POOL_MIN_POINTS", 0)
    inst = generate("uniform", eps=1.0 / 32.0, n=500, seed=6)
    with pytest.raises(ValueError) as err:
        build_slt(inst, threads=2)
    assert type(err.value) is ValueError
    assert err.value.args == ("routing failed in a tile",)
    if pipeline._usable_cores() > 1:  # raised in a worker process, not here
        assert type(err.value.__cause__).__name__ == "_RemoteTraceback"
    assert multiprocessing.active_children() == []


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
    for threads in (0, -1, 1.0, 2.5, "2", None, True):
        with pytest.raises(ValueError, match=r"threads=.* must be an int >= 1"):
            build_slt(inst, threads=threads)
