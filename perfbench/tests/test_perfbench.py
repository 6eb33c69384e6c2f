"""Tests of the benchmark's own code: statistics, tree checks and workloads."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, run, workloads
from perfbench.tracer import Tracer, instrument, self_times
from shallowlight import KIND_INPUT, RootedTree, baselines, build_slt, generate, mst, pipeline

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert checks.percentile(samples, 90) == 90  # 10 samples above it
    assert checks.percentile(samples[:99], 90) is None  # only 9 above
    assert checks.percentile(samples[:20], 50) == 10
    assert checks.percentile(samples[:19], 50) is None
    assert checks.percentile([], 50) is None
    # nearest rank ignores input order
    assert checks.percentile(samples[::-1], 50) == 50


def test_geomean():
    assert checks.geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
    assert checks.geomean([3.5]) == pytest.approx(3.5)
    for bad in ([], [1.0, 0.0], [2.0, -1.0]):
        with pytest.raises(ValueError):
            checks.geomean(bad)


def test_stretch_c_formula():
    eps = 1.0 / 16.0  # eps * log2(1/eps) = 1/4
    assert checks.stretch_c(1.5, eps) == pytest.approx(2.0)
    for e in (0.01, 4.0**-3, 4.0**-6):
        budget = checks.stretch_limit("steiner", e)
        assert checks.stretch_c(budget, e) == pytest.approx(checks.STRETCH_C)
    assert checks.stretch_limit("kry_slt", eps) == pytest.approx(1.0 + eps)
    assert checks.stretch_limit("abp_slt", eps) is None


def _perturbed(tree, **fields):
    parts = {"xy": tree.xy, "kind": tree.kind, "root": tree.root,
             "parent": tree.parent, "root_dist": tree.root_dist}
    parts.update(fields)
    return RootedTree(parts["xy"].copy(), parts["kind"].copy(), parts["root"],
                      parts["parent"].copy(), parts["root_dist"].copy())


def test_verifier_accepts_built_trees_and_flags_broken_ones():
    inst = generate("uniform", eps=1.0 / 32.0, n=300, seed=4)
    tree, _ = build_slt(inst, mode="steiner")
    assert checks.verify_tree(tree, inst) == []
    assert checks.verify_tree(baselines.solomon_slt(inst), inst) == []

    dist = tree.root_dist.copy()
    dist[7] *= 1.0 + 1e-6
    problems = checks.verify_tree(_perturbed(tree, root_dist=dist), inst)
    assert any("root distances" in p for p in problems)

    kind = tree.kind.copy()
    kind[tree.root] = KIND_INPUT
    assert any("KIND_SOURCE" in p for p in checks.verify_tree(_perturbed(tree, kind=kind), inst))

    xy = tree.xy.copy()
    xy[[3, 4]] = xy[[4, 3]]
    assert checks.verify_tree(_perturbed(tree, xy=xy), inst) == [
        "vertices 0..n-1 are not the instance points in order"]

    parent = tree.parent.copy()
    a = next(v for v in range(inst.n) if parent[v] not in (-1, tree.root))
    parent[parent[a]] = a  # a two-cycle cut off from the root
    problems = checks.verify_tree(_perturbed(tree, parent=parent), inst)
    assert any("reach the root" in p for p in problems)


def test_fingerprint_tracks_write_tree_bytes(tmp_path):
    from shallowlight import write_tree

    inst = generate("uniform", eps=1.0 / 16.0, n=200, seed=3)
    trees = [baselines.kry_slt(inst), baselines.kry_slt(inst), baselines.abp_slt(inst)]
    texts = []
    for i, tree in enumerate(trees):
        write_tree(str(tmp_path / f"{i}.slt"), tree)
        texts.append((tmp_path / f"{i}.slt").read_bytes())
    prints = [run.tree_fingerprint(t) for t in trees]
    assert texts[0] == texts[1] and prints[0] == prints[1]
    assert texts[0] != texts[2] and prints[0] != prints[2]


def test_thread_mismatch_fails_the_build(monkeypatch):
    table = run.builders()
    table["steiner_t2"] = table["restricted"]  # a "threads=2" build giving another tree
    monkeypatch.setattr(run, "builders", lambda: table)
    inst = generate("uniform", eps=1.0 / 16.0, n=200, seed=3)
    case = workloads.Case("probe", inst, ("steiner", "steiner_t2"))
    res = run.run_pass([case], [checks.mst_weight(inst.points)])
    assert res.attempted == 2
    assert res.failures == ["probe steiner_t2: tree differs from the threads=1 build"]


def test_tree_stretch_matches_library():
    from shallowlight import root_stretch

    inst = generate("uniform", eps=1.0 / 16.0, n=200, seed=1)
    tree = baselines.kry_slt(inst)
    assert checks.tree_stretch(tree, inst) == root_stretch(tree, inst)
    assert checks.tree_stretch(tree, inst) <= checks.stretch_limit("kry_slt", inst.eps)


def test_mst_weight_equals_library_mst():
    for name in workloads.WORKLOADS:
        for case in workloads.make_cases(name, seed=2, small=True):
            pts = case.instance.points
            assert checks.mst_weight(pts) == pytest.approx(mst(pts)[1], rel=1e-12), case.label


def test_self_times_subtract_union_of_children():
    tracer = Tracer()
    with tracer.span("outer"):
        pass
    outer = tracer.spans[0]
    outer.start, outer.end = 0.0, 10.0
    kids = [(1.0, 4.0), (3.0, 5.0), (8.0, 12.0)]  # overlapping, one past the end
    tracer.spans += [type(outer)(i + 1, "kid", a, b, outer.id) for i, (a, b) in enumerate(kids)]
    assert self_times(tracer.spans)[outer.id] == pytest.approx(10.0 - 4.0 - 2.0)


def test_instrument_restores_the_pipeline():
    before = {n: getattr(pipeline, n) for n in ("cluster_spanner", "GeoGraph", "tiles_of")}
    mst_before = baselines.mst
    tracer = Tracer()
    with instrument(tracer):
        assert pipeline.cluster_spanner is not before["cluster_spanner"]
        build_slt(generate("uniform", eps=1.0 / 16.0, n=50, seed=0))
    assert {n: getattr(pipeline, n) for n in before} == before
    assert baselines.mst is mst_before
    names = {s.name for s in tracer.spans}
    assert {"cnet.cluster_spanner", "graphcore.GeoGraph.build", "tiling.tiles_of"} <= names


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke_pass(name):
    cases = workloads.make_cases(name, seed=3, small=True)
    weights = [checks.mst_weight(c.instance.points) for c in cases]
    res = run.run_pass(cases, weights)
    assert res.failures == []
    assert res.attempted == sum(len(c.builders) for c in cases)
    e2e = run.end_to_end([res], [0.5], 100.0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in e2e.values()), e2e

    tracer = Tracer()
    with instrument(tracer):
        traced = run.run_pass(cases, weights, tracer)
    assert traced.failures == []
    layer, shares = run.per_layer(tracer, 1)
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    assert sum(share for _, _, share in shares) == pytest.approx(1.0)
    assert layer["cnet.cluster_spanner.calls"] == layer["cnet.net_points"]
    assert 0.0 < layer["cnet.spanner_accept_ratio"] <= 1.0


def test_same_seed_same_instances():
    a = workloads.make_cases("uniform-2k-battery", seed=5, small=True)
    b = workloads.make_cases("uniform-2k-battery", seed=5, small=True)
    c = workloads.make_cases("uniform-2k-battery", seed=6, small=True)
    assert all(np.array_equal(x.instance.points, y.instance.points) for x, y in zip(a, b))
    assert not np.array_equal(a[0].instance.points, c[0].instance.points)


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "family-sweep",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
    assert "not found" in out.stderr
