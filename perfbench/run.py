"""Run one benchmark workload against shallowlight and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload uniform-100k --seed 0 --seconds 25 --trace 0

The harness imports shallowlight from `src/`, generates the workload's
instances from `--seed` (see perfbench/workloads.py), then builds them in
passes until the next pass would end after `--seconds`; at least one pass
runs. Every tree is verified (perfbench/checks.py); a build that raises or
fails a check is printed and counted in `failed`, never dropped. steiner at
threads=2 must give the tree that threads=1 gives, byte for byte as
write_tree would write it.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are measured with
tracing off. With `--trace 1` the same passes run with every layer call
traced (perfbench/tracer.py) and the per-layer metrics are reported, plus
stage shares and the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. The full result (environment,
per-builder SHA-256 of the first pass's trees, latency percentiles, failures)
is written under `.perfbench/results/`, and traced runs write their spans
under `.perfbench/traces/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3


def _use_checkout_sources() -> None:
    """Import shallowlight from this checkout's src/, or exit non-zero."""
    if not (ROOT / "src" / "shallowlight" / "__init__.py").is_file():
        sys.exit(f"perfbench: {ROOT / 'src' / 'shallowlight'} not found; "
                 "run from a shallowlight checkout")
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


@dataclass
class PassResult:
    wall: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: dict[str, float] = field(default_factory=dict)  # builder -> build time
    points: dict[str, int] = field(default_factory=dict)  # builder -> input points
    latencies_ms: list[float] = field(default_factory=list)  # paper-mode threads=1 builds
    lightness: dict[str, list[float]] = field(default_factory=dict)  # paper mode -> values
    stretch_c: float = 0.0


# builder -> end-to-end throughput metric it feeds
THROUGHPUT = {
    "steiner": "steiner_pts_per_s",
    "restricted": "restricted_pts_per_s",
    "steiner_t2": "steiner_t2_pts_per_s",
    "kry_slt": "baselines_pts_per_s",
    "abp_slt": "baselines_pts_per_s",
    "solomon_slt": "baselines_pts_per_s",
    "mst_rooted": "baselines_pts_per_s",
}


def builders():
    """Builder name -> (span name, span attrs, instance -> RootedTree)."""
    from shallowlight import baselines, build_slt

    def paper(mode, threads):
        return ("pipeline.build_slt", {"mode": mode, "threads": threads},
                lambda inst: build_slt(inst, mode=mode, threads=threads)[0])

    out = {
        "steiner": paper("steiner", 1),
        "restricted": paper("restricted", 1),
        "steiner_t2": paper("steiner", 2),
    }
    for name in ("kry_slt", "abp_slt", "solomon_slt", "mst_rooted"):
        out[name] = (f"baselines.{name}", {}, getattr(baselines, name))
    return out


def tree_fingerprint(tree) -> bytes:
    """What write_tree records (coordinates, kinds, parents, root) as raw bytes.

    Two trees have equal fingerprints exactly when write_tree writes the same
    bytes for them; this costs milliseconds where write_tree takes 0.6 s at
    n=100000.
    """
    import numpy as np

    return b"".join([np.asarray(tree.xy, "<f8").tobytes(),
                     np.asarray(tree.kind, "i1").tobytes(),
                     np.asarray(tree.parent, "<i8").tobytes(),
                     int(tree.root).to_bytes(8, "little")])


def run_pass(cases, mst_weights, tracer=None, digests=None) -> PassResult:
    """Build every case with each of its builders once; check every tree.

    digests, when given, maps builder -> hashlib object fed each tree's fingerprint.
    """
    from perfbench import checks
    from shallowlight import KIND_STEINER

    table = builders()
    res = PassResult()
    t_pass = time.perf_counter()
    for ci, case in enumerate(cases):
        inst = case.instance
        t1_fingerprint = None
        for b in case.builders:
            span_name, attrs, build = table[b]
            res.attempted += 1
            where = f"{case.label} {b}"
            t0 = time.perf_counter()
            try:
                with tracer.span(span_name, **attrs) if tracer else nullcontext({}) as counts:
                    tree = build(inst)
            except Exception:  # a failed build is reported and counted, never fatal
                res.failures.append(f"{where}: raised {traceback.format_exc(limit=3)}")
                continue
            dt = time.perf_counter() - t0
            res.seconds[b] = res.seconds.get(b, 0.0) + dt
            res.points[b] = res.points.get(b, 0) + inst.n

            problems = checks.verify_tree(tree, inst)
            limit = checks.stretch_limit(b, inst.eps)
            if not problems:
                stretch = checks.tree_stretch(tree, inst)
                if limit is not None and stretch > limit:
                    problems.append(f"stretch {stretch:.9g} above {limit:.9g}")
                if b in ("steiner", "restricted"):
                    counts["steiner_kept"] = int((tree.kind == KIND_STEINER).sum())
                    res.latencies_ms.append(dt * 1e3)
                    res.lightness.setdefault(b, []).append(tree.weight() / mst_weights[ci])
                    res.stretch_c = max(res.stretch_c, checks.stretch_c(stretch, inst.eps))
            fingerprint = tree_fingerprint(tree)
            if b == "steiner":
                t1_fingerprint = fingerprint
            elif b == "steiner_t2" and fingerprint != t1_fingerprint:
                problems.append("tree differs from the threads=1 build")
            if digests is not None and b != "steiner_t2" and not case.repeat:
                digests.setdefault(b, hashlib.sha256()).update(fingerprint)
            if problems:
                res.failures.append(f"{where}: {'; '.join(problems)}")
    res.wall = time.perf_counter() - t_pass
    return res


def end_to_end(passes: list[PassResult], setup_samples, peak_rss_mb) -> dict[str, float]:
    from perfbench import checks

    out = {"setup_s": statistics.median(setup_samples)}
    for metric in sorted(set(THROUGHPUT.values())):
        rates = []
        for p in passes:
            bs = [b for b in p.seconds if THROUGHPUT[b] == metric]
            secs = sum(p.seconds[b] for b in bs)
            if secs > 0:
                rates.append(sum(p.points[b] for b in bs) / secs)
        out[metric] = statistics.median(rates) if rates else 0.0
    first = passes[0]
    for mode in ("steiner", "restricted"):
        values = first.lightness.get(mode)
        out[f"{mode}_lightness"] = checks.geomean(values) if values else 0.0
    out["stretch_c"] = first.stretch_c
    out["peak_rss_mb"] = peak_rss_mb
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(tracer, passes: int) -> tuple[dict[str, float], list[tuple[str, float, float]]]:
    """Per-layer metrics, per pass, and stage shares of threads=1 paper builds.

    Stage times and work counts come from the spans directly under
    threads=1 build_slt spans; threads=2 builds only feed t2_overlap, since
    their stage spans also hold time spent waiting for the interpreter lock.
    Shares are (stage, self seconds, share of build wall time), including
    `pipeline.self`: build_slt time no traced stage covers.
    """
    from perfbench.tracer import per_call_overhead, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    builds = [s for s in spans if s.name == "pipeline.build_slt"]
    t1 = {s.id for s in builds if s.attrs["threads"] == 1}
    t2 = {s.id for s in builds if s.attrs["threads"] == 2}
    base = {s.id for s in spans if s.name.startswith("baselines.")}

    secs: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, float] = {}
    for s in spans:
        if s.id not in t2 and (s.parent is None or s.parent in t1 or s.parent in base):
            secs[s.name] = secs.get(s.name, 0.0) + s.duration
            calls[s.name] = calls.get(s.name, 0) + 1
            for k, v in s.attrs.items():
                if k not in ("mode", "threads"):
                    work[f"{s.name}.{k}"] = work.get(f"{s.name}.{k}", 0) + v
    cluster_max = max((s.attrs["points"] for s in spans
                       if s.name == "cnet.cluster_spanner" and s.parent in t1), default=0)
    t2_wall = sum(s.duration for s in builds if s.id in t2)
    t2_child = sum(s.duration for s in spans if s.parent in t2)

    def per_pass(table, key):
        return table.get(key, 0) / passes

    m = {f"{name}.s": per_pass(secs, name) for name in (
        "tiling.tiles_of", "cnet.build_cnet", "cnet.cluster_spanner",
        "steiner.steiner_tile_paths", "restricted.restricted_tile_paths",
        "graphcore.GeoGraph.build", "graphcore.shortest_path_tree", "graphcore.root_stretch",
        "graphcore.mst", "pipeline.build_slt", "baselines.kry_slt", "baselines.abp_slt",
        "baselines.solomon_slt", "baselines.mst_rooted")}
    for name in ("cnet.cluster_spanner", "steiner.steiner_tile_paths",
                 "restricted.restricted_tile_paths"):
        m[f"{name}.calls"] = per_pass(calls, name)
    m.update({
        "cnet.net_points": per_pass(work, "cnet.build_cnet.net_points"),
        "cnet.net_ratio": _ratio(work.get("cnet.build_cnet.net_points", 0),
                                 work.get("cnet.build_cnet.points", 0)),
        "cnet.cluster_pairs": per_pass(work, "cnet.cluster_spanner.pairs"),
        "cnet.spanner_edges": per_pass(work, "cnet.cluster_spanner.edges"),
        "cnet.spanner_accept_ratio": _ratio(work.get("cnet.cluster_spanner.edges", 0),
                                            work.get("cnet.cluster_spanner.pairs", 0)),
        "cnet.cluster_max": cluster_max,
        "steiner.vertices_created": per_pass(work, "steiner.steiner_tile_paths.steiner_created"),
        "restricted.path_edges": per_pass(work, "restricted.restricted_tile_paths.edges"),
        "graphcore.union_edges": per_pass(work, "graphcore.GeoGraph.build.edges"),
        "pipeline.self.s": sum(selfs[i] for i in t1) / passes,
        "pipeline.steiner_kept_ratio": _ratio(work.get("pipeline.build_slt.steiner_kept", 0),
                                              work.get("graphcore.GeoGraph.build.steiner", 0)),
        "pipeline.t2_overlap": _ratio(t2_child, t2_wall),
        "baselines.self.s": sum(selfs[i] for i in base) / passes,
        "instances.generate.s": secs.get("instances.generate", 0.0),
        "trace.spans": len(spans) / passes,
    })
    m["trace.overhead_s"] = per_call_overhead() * m["trace.spans"]

    wall = sum(s.duration for s in builds if s.id in t1)
    stage_self = {"pipeline.self": sum(selfs[i] for i in t1)}
    for s in spans:
        if s.parent in t1:
            stage_self[s.name] = stage_self.get(s.name, 0.0) + selfs[s.id]
    shares = sorted(((k, v / passes, _ratio(v, wall)) for k, v in stage_self.items()),
                    key=lambda r: -r[1])
    return m, shares


def git_commit(root: Path) -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter: import plus instance generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1])


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _emit(metrics: dict[str, float], declared: list[dict]) -> dict:
    """Metrics as {name: {value, unit}}, exactly the declared names."""
    names = [d["name"] for d in declared]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit")
    args = ap.parse_args(argv)

    _use_checkout_sources()
    from perfbench import workloads
    from perfbench.tracer import Tracer, instrument

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    gen = tracer.wrap("instances.generate", workloads.generate) if tracer else workloads.generate
    cases = workloads.make_cases(args.workload, args.seed, gen)
    setup_s = time.perf_counter() - t_start
    if args.setup_only:
        print(repr(setup_s))
        return 0

    spec = _load_spec()
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

    from perfbench.checks import mst_weight

    weights = [mst_weight(c.instance.points) for c in cases]
    for d in ("results", "traces"):
        (OUT / d).mkdir(parents=True, exist_ok=True)
    passes: list[PassResult] = []
    digests: dict = {}
    with instrument(tracer) if tracer else nullcontext():
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(cases, weights, tracer, digests if not passes else None))
            if time.perf_counter() - t0 + passes[-1].wall > args.seconds:
                break

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = [x for p in passes for x in p.latencies_ms]
    from perfbench.checks import percentile

    extras = {
        "failed_ratio": len(failures) / attempted,
        "build_p50_ms": percentile(lat, 50),
        "build_p90_ms": percentile(lat, 90),
        "latency_samples": len(lat),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "build_s": [p.seconds for p in passes],
        "setup_samples_s": setup_samples,
    }
    result = {"environment": environment(args), "extras": extras, "failures": failures,
              "tree_sha256": {b: h.hexdigest() for b, h in digests.items()}}

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"perfbench {args.workload}: {why}")
    print(f"seed={args.seed} traced={bool(args.trace)} passes={len(passes)} "
          f"builds={attempted} failed={len(failures)}")
    for f in failures:
        print(f"FAILED {f}")
    if args.trace:
        layer, shares = per_layer(tracer, len(passes))
        metrics = _emit(layer, spec["per_layer"])
        print("stage self time over threads=1 paper builds, per pass:")
        for name, secs, share in shares:
            print(f"  {name:36s} {secs:10.4f} s {100 * share:6.1f}%")
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
    else:
        metrics = _emit(end_to_end(passes, setup_samples, peak_rss_mb), spec["end_to_end"])
        for k in ("build_p50_ms", "build_p90_ms"):
            v = extras[k]
            shown = f"{v:.4f} ms" if v is not None else "n/a (fewer than 10 samples beyond)"
            print(f"  {k:36s} {shown}  [{len(lat)} paper-mode threads=1 builds]")
        print(f"  {'failed_ratio':36s} {extras['failed_ratio']:.6g}")
    for name, mv in metrics.items():
        print(f"  {name:36s} {mv['value']:.6g} {mv['unit']}")
    for b, h in result["tree_sha256"].items():
        print(f"  sha256 {b:12s} {h}")
    print(f"  env {json.dumps(result['environment'])}")
    result["metrics"] = metrics
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
