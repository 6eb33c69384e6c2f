"""Command-line front end: generate instances, build trees, verify, bench, plot.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.

    slt gen --kind circle --epsilon 0.0625 --seed 1 -o c.inst
    slt build --algo steiner -i c.inst -o c.tree --threads 4
    slt verify -i c.inst -t c.tree --certificate
    slt bench --algos kry,abp --eps-list 0.0625,0.015625 --kind comb --seeds 0,1 -o out.csv
    slt plot -i c.inst -t c.tree -o c.svg
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

from . import baselines, instances, textio
from .graphcore import lightness, mst, root_stretch, verify_tree
from .oracles import brute_force_opt_st, steiner_lower_bound_certificate
from .pipeline import MODES, build_slt
from .render import write_svg

BUILD_ALGOS = ("steiner", "restricted", "kry", "abp", "solomon", "mst")
THREADS_HELP = ("worker processes that route tiles for steiner and restricted "
                "(default 1); forked, capped at the tile count and the usable "
                "cores; the tree is the same for any value")

_BASELINE = {
    "kry": baselines.kry_slt,
    "abp": baselines.abp_slt,
    "solomon": baselines.solomon_slt,
    "mst": baselines.mst_rooted,
}


def _build_tree(instance, algo: str, threads: int = 1):
    if algo in MODES:
        tree, _report = build_slt(instance, mode=algo, threads=threads)
        return tree
    return _BASELINE[algo](instance)


def _cmd_gen(args) -> int:
    inst = instances.generate(args.kind, args.epsilon, n=args.n, k=args.k,
                              delta=args.delta, seed=args.seed)
    textio.write_instance(args.output, inst)
    return 0


def _cmd_build(args) -> int:
    inst = textio.read_instance(args.input)
    tree = _build_tree(inst, args.algo, threads=args.threads)
    textio.write_tree(args.output, tree)
    return 0


def _cmd_verify(args) -> int:
    inst = textio.read_instance(args.input)
    tree = textio.read_tree(args.tree)
    failures = verify_tree(tree, inst)
    if failures:
        for msg in failures:
            print(f"verify: {msg}", file=sys.stderr)
        return 1

    stretch = root_stretch(tree, inst)
    light = lightness(tree, inst)
    fields = [f"stretch={stretch:.12g}", f"lightness={light:.12g}"]
    if args.certificate:
        cert = steiner_lower_bound_certificate(inst, inst.eps)
        fields.append(f"certificate={cert.value:.12g}")
        if tree.weight() < cert.value * (1.0 - 1e-9):
            failures.append(
                f"tree weight {tree.weight():.12g} below certificate {cert.value:.12g}")
    if args.oracle:
        opt, _ = brute_force_opt_st(inst, inst.eps)
        fields.append(f"opt={opt:.12g}")
        if tree.weight() < opt * (1.0 - 1e-9):
            failures.append(f"tree weight {tree.weight():.12g} below optimum {opt:.12g}")
    print(" ".join(fields))
    for msg in failures:
        print(f"verify: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_bench(args) -> int:
    algos = args.algos.split(",")
    bad = [a for a in algos if a not in BUILD_ALGOS]
    if bad:
        raise ValueError(f"unknown algorithm(s): {','.join(bad)}")
    eps_list = [float(e) for e in args.eps_list.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(args.output, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(["epsilon", "algorithm", "kind", "n", "seed", "weight",
                    "mst_weight", "lightness", "max_stretch", "runtime_ms"])
        for eps in eps_list:
            # each (eps, seed) instance and its MST weight serve every algorithm
            insts = [instances.generate(args.kind, eps, n=args.n, k=args.k,
                                        delta=args.delta, seed=seed)
                     for seed in seeds]
            mst_ws = [mst(inst.points)[1] for inst in insts]
            for algo in algos:
                for seed, inst, mst_w in zip(seeds, insts, mst_ws):
                    t0 = time.perf_counter()
                    tree = _build_tree(inst, algo, threads=args.threads)
                    ms = (time.perf_counter() - t0) * 1e3
                    weight = tree.weight()
                    w.writerow([
                        format(eps, ".17g"), algo, args.kind, inst.n, seed,
                        format(weight, ".12g"), format(mst_w, ".12g"),
                        format(weight / mst_w, ".12g"),
                        format(root_stretch(tree, inst), ".12g"),
                        format(ms, ".3f"),
                    ])
    return 0


def _cmd_plot(args) -> int:
    inst = textio.read_instance(args.input)
    tree = textio.read_tree(args.tree) if args.tree else None
    write_svg(args.output, inst, tree)
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="slt", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True, choices=instances.KINDS)
    g.add_argument("--epsilon", required=True, type=float)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--k", type=int, default=None)
    g.add_argument("--delta", type=float, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(fn=_cmd_gen)

    b = sub.add_parser("build", help="build a tree from an instance file")
    b.add_argument("--algo", required=True, choices=BUILD_ALGOS)
    b.add_argument("-i", "--input", required=True)
    b.add_argument("-o", "--output", required=True)
    b.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    b.set_defaults(fn=_cmd_build)

    v = sub.add_parser("verify", help="check a tree against its instance")
    v.add_argument("-i", "--input", required=True)
    v.add_argument("-t", "--tree", required=True)
    v.add_argument("--certificate", action="store_true",
                   help="also compute the disjoint-box lower bound")
    v.add_argument("--oracle", action="store_true",
                   help="also compute the exact optimum (tiny instances only)")
    v.set_defaults(fn=_cmd_verify)

    be = sub.add_parser("bench", help="parameter sweep to CSV")
    be.add_argument("--algos", required=True, help="comma-separated algorithm list")
    be.add_argument("--eps-list", required=True, help="comma-separated epsilon list")
    be.add_argument("--kind", required=True, choices=instances.KINDS)
    be.add_argument("--seeds", required=True, help="comma-separated seed list")
    be.add_argument("--n", type=int, default=None)
    be.add_argument("--k", type=int, default=None)
    be.add_argument("--delta", type=float, default=None)
    be.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    be.add_argument("-o", "--output", required=True)
    be.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("plot", help="render an instance (and tree) to SVG")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-t", "--tree", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_plot)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (textio.ParseError, ValueError, OSError) as e:
        print(f"slt {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
