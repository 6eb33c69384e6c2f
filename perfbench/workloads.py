"""The benchmark's workloads: which instances one pass builds, and why.

Every instance is generated here from the run's seed; the library only sees
the generated Instance objects. Layer shares below were measured on the seed
commit on a 2-core x86 box.

uniform-100k
    generate("uniform", eps=0.01, n=100000, seed=S), the release-gate
    instance: 14 tiles, 3,869 net points, clusters of about 26 points.
    Stresses cnet: cluster_spanner takes about 60% of a threads=1 build and
    build_cnet about 13%; ladder routing is under 2% (steiner) or 14%
    (restricted). Its tiles hold about 7,000 points each, the most work
    the tile thread pool (steiner at threads=2) gets to overlap. A pass
    builds it with every builder, then in steiner mode again.
family-sweep
    comb, cnet-comb, sector-lb and circle at eps 4^-2..4^-6 (20 instances,
    46,844 points), the paper's lightness-separation experiment. At least
    half the points are net points (all of them on cnet-comb), so clusters
    are near-singletons. Stresses tile routing: steiner_tile_paths /
    restricted_tile_paths take 55-90% of a build and cluster_spanner under
    6%. It is the workload the baselines were written for. The grid
    families ignore the seed.
uniform-2k-battery
    uniform, n=2000, eps in {4^-2, 4^-3, 4^-4} x 20 seeds derived from S,
    both paper modes: 120 builds of about 0.1 s, the stretch-budget gate's
    battery (seed 0 reproduces it exactly). The same layers as uniform-100k
    at 1/50 the size, so per-build and per-tile fixed costs dominate and
    work moved into set-up, per-call caches or pools shows. At eps=1/16
    builds are heavy on cluster_spanner; at 4^-4 on routing. 120 samples give
    a latency p90 with 12 samples beyond it.

Every workload reports every end-to-end metric, so each pass also builds
steiner at threads=2 and the four baselines. On uniform-2k-battery these run
on a subset (the first 4 and first 2 seeds of each eps), because the
baselines' dense-Prim MST costs about 0.15 s per call at n=2000.

Known slow at the seed commit, and not a benchmark bug:
- steiner at threads=2 is about 1.6x slower than at threads=1 on
  uniform-100k: the per-tile work holds the interpreter lock, so two threads
  contend instead of overlapping. Stage spans at threads=2 include that
  waiting, so pipeline.t2_overlap overstates the real overlap.
- the restricted lightness slope gate (test_restricted_lightness_slope_is_polylog)
  is red: restricted lightness grows with slope 0.77 on comb and 0.65 on
  cnet-comb against a 0.15 target, which shows in restricted_lightness.
"""

from __future__ import annotations

from dataclasses import dataclass

from shallowlight import generate

PAPER = ("steiner", "restricted")
BASELINES = ("kry_slt", "abp_slt", "solomon_slt", "mst_rooted")
ALL_BUILDERS = PAPER + ("steiner_t2",) + BASELINES

FAMILIES = ("comb", "cnet-comb", "sector-lb", "circle")
FAMILY_SWEEP_POINTS = 46844


@dataclass(frozen=True)
class Case:
    """One instance and the builders a pass runs on it."""

    label: str
    instance: object
    builders: tuple[str, ...]
    repeat: bool = False  # a timing repeat of an earlier case; its trees are not digested


def _uniform_100k(seed, gen, small):
    n = 3000 if small else 100000
    inst = gen("uniform", eps=0.01, n=n, seed=seed)
    _expect(inst.n == n + 1, f"uniform n={n} seed={seed} has {inst.n} points")
    label = f"uniform n={n} seed={seed}"
    # One build is a single 6-8 s sample on a machine whose speed drifts by
    # 20% over tens of seconds. Building steiner, the release-gate mode, again
    # at the end of the pass averages two moments of the pass; over ten seeds
    # this halved its run-to-run spread. A second restricted build did not pay
    # for its time.
    return [Case(label, inst, ALL_BUILDERS), Case(label + " again", inst, ("steiner",), True)]


def _family_sweep(seed, gen, small):
    exps = (2, 3) if small else (2, 3, 4, 5, 6)
    cases = [
        Case(f"{kind} eps=4^-{k}", gen(kind, eps=4.0**-k), ALL_BUILDERS)
        for kind in FAMILIES
        for k in exps
    ]
    if not small:
        total = sum(c.instance.n for c in cases)
        _expect(total == FAMILY_SWEEP_POINTS, f"family sweep has {total} points")
    return cases


def _battery(seed, gen, small):
    n, seeds = (400, 2) if small else (2000, 20)
    cases = []
    for k in (2, 3, 4):
        for i in range(seeds):
            s = seeds * seed + i
            inst = gen("uniform", eps=4.0**-k, n=n, seed=s)
            _expect(inst.n == n + 1, f"uniform n={n} seed={s} has {inst.n} points")
            extra = (("steiner_t2",) if i < 4 else ()) + (BASELINES if i < 2 else ())
            cases.append(Case(f"uniform n={n} eps=4^-{k} seed={s}", inst, PAPER + extra))
    return cases


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"workload instance check failed: {what}")


WORKLOADS = {"uniform-100k": _uniform_100k, "family-sweep": _family_sweep,
             "uniform-2k-battery": _battery}


def make_cases(name: str, seed: int, gen=generate, small: bool = False) -> list[Case]:
    """Generate and check a workload's instances; `small` shrinks it for tests."""
    return WORKLOADS[name](seed, gen, small)
