"""Command-line behavior: exit codes, output formats, subcommand plumbing."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shallowlight
from shallowlight import cli, graphcore
from shallowlight.cli import BUILD_ALGOS, main
from shallowlight.instances import generate
from shallowlight.textio import read_instance, read_tree, write_instance


def test_build_algos_tuple():
    assert BUILD_ALGOS == ("steiner", "restricted", "kry", "abp", "solomon", "mst")


def test_gen_writes_the_generator_output(tmp_path):
    out = tmp_path / "c.inst"
    rc = main(["gen", "--kind", "circle", "--epsilon", "0.0625", "--seed", "1",
               "-o", str(out)])
    assert rc == 0
    inst = read_instance(str(out))
    want = generate("circle", eps=0.0625, seed=1)
    assert np.array_equal(inst.points, want.points)
    assert inst.eps == want.eps


@pytest.mark.parametrize("algo", BUILD_ALGOS)
def test_build_then_verify_succeeds(tmp_path, capsys, algo):
    inst_p = tmp_path / "u.inst"
    tree_p = tmp_path / "u.tree"
    assert main(["gen", "--kind", "uniform", "--epsilon", "0.03125",
                 "--n", "40", "--seed", "2", "-o", str(inst_p)]) == 0
    assert main(["build", "--algo", algo, "-i", str(inst_p),
                 "-o", str(tree_p)]) == 0
    tree = read_tree(str(tree_p))
    assert tree.root == 0
    capsys.readouterr()
    rc = main(["verify", "-i", str(inst_p), "-t", str(tree_p)])
    out = capsys.readouterr().out
    if algo == "mst":
        assert rc == 0  # stretch is reported, not judged
    else:
        assert rc == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert set(fields) == {"stretch", "lightness"}
    assert float(fields["lightness"]) >= 1.0 - 1e-9


def test_verify_kry_smoke_values(tmp_path, capsys):
    inst_p = tmp_path / "c.inst"
    tree_p = tmp_path / "c.tree"
    main(["gen", "--kind", "circle", "--epsilon", "0.0625", "--seed", "1",
          "-o", str(inst_p)])
    main(["build", "--algo", "kry", "-i", str(inst_p), "-o", str(tree_p)])
    capsys.readouterr()
    assert main(["verify", "-i", str(inst_p), "-t", str(tree_p)]) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert float(fields["stretch"]) <= 1.0625 * (1 + 1e-9)


def test_verify_oracle_field_on_tiny_instance(tmp_path, capsys):
    inst_p = tmp_path / "t.inst"
    tree_p = tmp_path / "t.tree"
    main(["gen", "--kind", "uniform", "--epsilon", "0.0625", "--n", "6",
          "--seed", "3", "-o", str(inst_p)])
    main(["build", "--algo", "kry", "-i", str(inst_p), "-o", str(tree_p)])
    capsys.readouterr()
    rc = main(["verify", "-i", str(inst_p), "-t", str(tree_p), "--oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert {"stretch", "lightness", "opt"} <= set(fields)
    # a stretch-respecting spanning tree never undercuts the exact optimum
    assert float(fields["opt"]) > 0.0


def test_verify_certificate_field(tmp_path, capsys):
    inst_p = tmp_path / "s.inst"
    tree_p = tmp_path / "s.tree"
    main(["gen", "--kind", "sector-lb", "--epsilon", "0.015625",
          "-o", str(inst_p)])
    main(["build", "--algo", "steiner", "-i", str(inst_p), "-o", str(tree_p)])
    capsys.readouterr()
    rc = main(["verify", "-i", str(inst_p), "-t", str(tree_p), "--certificate"])
    out = capsys.readouterr().out
    assert rc == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert "certificate" in fields
    assert float(fields["certificate"]) > 0.0


def test_verify_fails_on_mismatched_instance(tmp_path, capsys):
    a = tmp_path / "a.inst"
    b = tmp_path / "b.inst"
    tree_p = tmp_path / "a.tree"
    main(["gen", "--kind", "uniform", "--epsilon", "0.0625", "--n", "12",
          "--seed", "1", "-o", str(a)])
    main(["gen", "--kind", "uniform", "--epsilon", "0.0625", "--n", "12",
          "--seed", "9", "-o", str(b)])
    main(["build", "--algo", "kry", "-i", str(a), "-o", str(tree_p)])
    capsys.readouterr()
    rc = main(["verify", "-i", str(b), "-t", str(tree_p)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "does not carry" in err


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["build", "--algo", "kry", "-i", str(tmp_path / "nope.inst"),
               "-o", str(tmp_path / "x.tree")])
    assert rc == 2
    assert "slt build:" in capsys.readouterr().err


def test_domain_error_exits_2(tmp_path, capsys):
    rc = main(["gen", "--kind", "circle", "--epsilon", "1.5",
               "-o", str(tmp_path / "x.inst")])
    assert rc == 2
    assert "slt gen:" in capsys.readouterr().err


def test_build_rejects_threads_below_one(tmp_path, capsys):
    inst_p = tmp_path / "u.inst"
    assert main(["gen", "--kind", "uniform", "--epsilon", "0.03125",
                 "--n", "40", "--seed", "2", "-o", str(inst_p)]) == 0
    rc = main(["build", "--algo", "steiner", "-i", str(inst_p),
               "-o", str(tmp_path / "u.tree"), "--threads", "0"])
    assert rc == 2
    assert "slt build: build_slt: threads=0 must be an int >= 1" in capsys.readouterr().err
    assert not (tmp_path / "u.tree").exists()


def test_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["gen", "--kind", "hexgrid", "--epsilon", "0.1",
              "-o", str(tmp_path / "x.inst")])
    assert ei.value.code == 2


def test_bench_csv_layout(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--algos", "kry,mst", "--eps-list", "0.25,0.0625",
               "--kind", "comb", "--seeds", "0,1", "-o", str(out)])
    assert rc == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["epsilon", "algorithm", "kind", "n", "seed", "weight",
                       "mst_weight", "lightness", "max_stretch", "runtime_ms"]
    assert len(rows) == 1 + 2 * 2 * 2
    for row in rows[1:]:
        rec = dict(zip(rows[0], row))
        assert rec["algorithm"] in ("kry", "mst")
        assert float(rec["lightness"]) == pytest.approx(
            float(rec["weight"]) / float(rec["mst_weight"]), rel=1e-9
        )
        if rec["algorithm"] == "mst":
            assert float(rec["lightness"]) == 1.0


def test_bench_generates_each_instance_and_its_mst_once(tmp_path, monkeypatch):
    calls = {"generate": 0, "mst": 0}

    def counted(name, fn):
        def call(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return call

    monkeypatch.setattr(cli.instances, "generate", counted("generate", cli.instances.generate))
    monkeypatch.setattr(cli, "mst", counted("mst", cli.mst))
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--algos", "kry,abp,mst", "--eps-list", "0.25,0.0625",
               "--kind", "uniform", "--n", "30", "--seeds", "0,1,2", "-o", str(out)])
    assert rc == 0
    assert calls == {"generate": 2 * 3, "mst": 2 * 3}
    with open(out, newline="") as f:
        rows = list(csv.reader(f))[1:]
    # rows ascend by eps, then algorithm as listed, then seed as listed
    assert [(r[0], r[1], r[4]) for r in rows] == [
        (format(eps, ".17g"), algo, seed) for eps in (0.25, 0.0625)
        for algo in ("kry", "abp", "mst") for seed in "012"]
    for r in rows:
        inst = generate("uniform", float(r[0]), n=30, seed=int(r[4]))
        assert r[6] == format(graphcore.mst(inst.points)[1], ".12g")


def test_bench_rejects_unknown_algorithm(tmp_path, capsys):
    rc = main(["bench", "--algos", "kry,quantum", "--eps-list", "0.25",
               "--kind", "comb", "--seeds", "0", "-o", str(tmp_path / "b.csv")])
    assert rc == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_plot_writes_svg(tmp_path):
    inst_p = tmp_path / "c.inst"
    tree_p = tmp_path / "c.tree"
    svg_p = tmp_path / "c.svg"
    main(["gen", "--kind", "circle", "--epsilon", "0.125", "-o", str(inst_p)])
    main(["build", "--algo", "abp", "-i", str(inst_p), "-o", str(tree_p)])
    assert main(["plot", "-i", str(inst_p), "-t", str(tree_p),
                 "-o", str(svg_p)]) == 0
    assert svg_p.read_text().startswith("<?xml")
    assert main(["plot", "-i", str(inst_p), "-o", str(svg_p)]) == 0


def _console_script(name):
    """argv prefix that runs [project.scripts] `name` as its console script does.

    The declaration is read from pyproject.toml, so a mistyped entry point
    fails here. The child imports the package from the directory this process
    imported it from, so nothing has to be installed.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"][name]
    module, attr = target.split(":")
    code = (f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = {name!r}; sys.exit({attr}())")
    return [sys.executable, "-c", code]


def test_console_entry_point_round_trip(tmp_path):
    slt = _console_script("slt")
    env = dict(os.environ)
    package_root = str(Path(shallowlight.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    inst_p = tmp_path / "e.inst"
    tree_p = tmp_path / "e.tree"
    for args in (
        ["gen", "--kind", "circle", "--epsilon", "0.0625", "-o", str(inst_p)],
        ["build", "--algo", "steiner", "-i", str(inst_p), "-o", str(tree_p)],
        ["verify", "-i", str(inst_p), "-t", str(tree_p)],
    ):
        proc = subprocess.run(slt + args, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    assert "stretch=" in proc.stdout and "lightness=" in proc.stdout
