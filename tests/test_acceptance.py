"""Release gates: bulk property checks, separation experiments, performance.

Every test here pins its tolerances and sample sizes; the frozen constants
(stretch budget C, certificate constant c3) were measured on the first release
and are regression locks, not tunables. Timing assertions use the budgets the
gates were signed off with and carry large headroom on commodity hardware.
"""

import math
import time

import numpy as np
import pytest

from shallowlight.baselines import abp_slt, kry_slt, solomon_slt
from shallowlight.cnet import build_cnet
from shallowlight.geom import (
    FocalEllipse,
    sandwich_ellipse,
    slope_proj_slack,
    vertical_cross_section,
)
from shallowlight.graphcore import mst
from shallowlight.hitting import hit_intervals_discrete, pierce_intervals
from shallowlight.instances import generate
from shallowlight.oracles import brute_force_opt_st, steiner_lower_bound_certificate
from shallowlight.pipeline import build_slt
from shallowlight import textio
from shallowlight.tiling import TileId, TilingParams, canonical_frame, tiles_of
from helpers import (
    brute_force_min_hitting,
    dist_sums,
    exit_lower_bound,
    from_canonical,
    inner_horizontal_focus,
    loglog_slope,
    sample_ellipse,
    tile_of,
    tooth_regions,
)

RTOL = 1e-9


# --- gate 1: slope/projection/slack bounds in bulk ---------------------------


def test_slack_bounds_hold_on_bulk_segments():
    # 1e5 segments, |slope| in [1e-3, 1] log-uniform. The floor keeps the
    # check meaningful at the pinned 1e-9 tolerance: slack = d - proj is a
    # subtractive cancellation whose absolute error is a few ulps of d, so its
    # relative error grows like ~6e-16/slope^2 and would swamp the tolerance
    # below |slope| ~ 1e-3 (at 1e-6 the computed ratio is pure rounding noise).
    rng = np.random.default_rng(42)
    n = 10**5
    ax = rng.uniform(-10.0, 10.0, n)
    ay = rng.uniform(-10.0, 10.0, n)
    dx = rng.uniform(0.05, 5.0, n) * np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    mag = 10.0 ** rng.uniform(-3.0, 0.0, n)
    slope_in = mag * np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    bx = ax + dx
    by = ay + slope_in * dx

    t0 = time.perf_counter()
    for i in range(n):
        slope, proj, slack = slope_proj_slack((ax[i], ay[i]), (bx[i], by[i]))
        ratio = slack / proj
        s2 = slope * slope
        assert s2 / 3.0 <= ratio * (1.0 + RTOL), (i, slope, ratio)
        assert ratio <= s2 / 2.0 * (1.0 + RTOL), (i, slope, ratio)
    assert time.perf_counter() - t0 < 1.0


# --- gate 2: ellipse sandwich chain ------------------------------------------


def _sandwich_triple(rng):
    """Random (p, s, eps) with s = (2, 0) and |slope(ps)| < sqrt(eps)."""
    eps = 10.0 ** rng.uniform(-4.0, math.log10(1.0 / 9.0) - 1e-9)
    px = rng.uniform(0.0, 1.5)
    slope = rng.uniform(-0.999, 0.999) * math.sqrt(eps)
    p = (px, slope * (2.0 - px))
    return p, (2.0, 0.0), eps


def test_sandwich_chain_and_cross_section_ratio():
    rng = np.random.default_rng(20260814)
    n_triples = 10**4
    n_samples = 10**3
    worst_ratio = 0.0

    t0 = time.perf_counter()
    for i in range(n_triples):
        p, s, eps = _sandwich_triple(rng)
        a = inner_horizontal_focus(p, s)
        e_pa = FocalEllipse(p, a, (1.0 + 0.5 * eps) * math.dist(p, a))
        e_ps = FocalEllipse(p, s, (1.0 + eps) * math.dist(p, s))
        e_pb = sandwich_ellipse(p, s, eps)

        # focal chain: d(p,b) <= 2 d(p,s) <= 4 d(p,a), tight at y(p) = 0
        b = e_pb.f2
        assert math.dist(p, b) <= 2.0 * math.dist(p, s) * (1.0 + RTOL)
        assert math.dist(p, s) <= 2.0 * math.dist(p, a) * (1.0 + RTOL)

        # containment chain, sampled uniformly in area with forced boundary
        q = sample_ellipse(e_pa, n_samples, rng)
        assert np.all(dist_sums(e_ps, q) <= e_ps.dist_sum * (1.0 + RTOL)), i
        q = sample_ellipse(e_ps, n_samples, rng)
        assert np.all(dist_sums(e_pb, q) <= e_pb.dist_sum * (1.0 + RTOL)), i

        # width comparison on vertical lines crossing segment pa left of its
        # midpoint: outer section within 32x of the inner one
        lo = min(p[0], a[0])
        hi = 0.5 * (p[0] + a[0])
        for t in (0.0, 0.1, 0.35, 0.6, 0.85, 0.999):
            x = lo + t * (hi - lo)
            w_in = vertical_cross_section(e_pa, x)
            w_out = vertical_cross_section(e_pb, x)
            assert w_in is not None and w_out is not None, (i, x)
            width_in = w_in.hi - w_in.lo
            width_out = w_out.hi - w_out.lo
            assert width_in <= width_out * (1.0 + RTOL), (i, x)
            assert width_out <= 32.0 * width_in * (1.0 + RTOL), (i, x)
            if width_in > 0.0:
                worst_ratio = max(worst_ratio, width_out / width_in)
    assert time.perf_counter() - t0 < 30.0
    # measured worst ratio 16.0; the 32x budget has 2x headroom
    assert worst_ratio <= 32.0


# --- gate 3: hitting-set exactness -------------------------------------------


def test_hitting_greedy_matches_brute_in_bulk():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    for trial in range(1000):
        m = int(rng.integers(1, 13))
        los = rng.uniform(0.0, 10.0, m)
        his = los + rng.uniform(0.01, 4.0, m)
        intervals = list(zip(los.tolist(), his.tolist()))

        greedy = pierce_intervals(intervals)
        brute = brute_force_min_hitting(intervals)
        assert len(greedy) == len(brute), (trial, greedy, brute)

        # discrete variant: right endpoints keep the pool feasible
        extra = rng.uniform(0.0, 14.0, int(rng.integers(0, 13))).tolist()
        candidates = sorted(set(his.tolist()) | set(extra))
        if len(candidates) > 15:
            candidates = sorted(set(his.tolist()))
        picked = hit_intervals_discrete(intervals, candidates)
        brute_d = brute_force_min_hitting(intervals, candidates)
        assert len(picked) == len(brute_d), (trial, picked, brute_d)
    assert time.perf_counter() - t0 < 10.0


# --- gate 4: net separation and covering, exhaustively ------------------------


def _net_battery():
    return [
        ("uniform", dict(n=4999, seed=1), 0.05),
        ("uniform", dict(n=2000, seed=7), 0.02),
        ("circle", dict(n=1500), 0.05),
        ("comb", {}, 4.0**-4),
        ("cnet-comb", {}, 4.0**-4),
        ("sector-lb", {}, 4.0**-4),
    ]


@pytest.mark.parametrize("kind,kwargs,eps", _net_battery())
def test_net_separation_and_covering_exhaustive(kind, kwargs, eps):
    inst = generate(kind, eps=eps, **kwargs)
    pts = np.delete(inst.points, inst.source_index, axis=0)
    source = tuple(inst.points[inst.source_index])
    eps = min(eps, 0.05)

    out = build_cnet(pts, source, eps)
    d = np.linalg.norm(pts - np.asarray(source), axis=1)
    net = np.asarray(out.net, dtype=np.int64)
    anchors = net[out.assignment]

    # covering: the assigned net point is no farther from the source and its
    # net-centred radius eps*d(a,s) reaches p (hence also within eps*d(p,s))
    pa = np.linalg.norm(pts - pts[anchors], axis=1)
    assert np.all(d[anchors] <= d)
    assert np.all(pa <= eps * d[anchors])
    assert np.all(pa <= eps * d)

    # separation: all net pairs, chunked full pairwise check
    net_pts = pts[net]
    net_d = d[net]
    block = 512
    for i0 in range(0, len(net_pts), block):
        chunk = net_pts[i0 : i0 + block]
        dd = np.linalg.norm(chunk[:, None, :] - net_pts[None, :, :], axis=2)
        thr = eps * np.minimum(net_d[i0 : i0 + block, None], net_d[None, :])
        rows = np.arange(chunk.shape[0])
        dd[rows, i0 + rows] = np.inf  # skip self-pairs
        assert np.all(dd > thr)


# --- gate 5: stretch budget with frozen constant ------------------------------

# Measured max over this exact battery at first release: 1.83 (steiner mode,
# eps=4^-4). Frozen with headroom; the initial sign-off budget was 50.
STRETCH_C = 2.5


def test_stretch_budget_both_modes():
    for eps in (4.0**-2, 4.0**-3, 4.0**-4):
        budget = 1.0 + STRETCH_C * eps * math.log2(1.0 / eps)
        for mode in ("steiner", "restricted"):
            for seed in range(20):
                inst = generate("uniform", eps=eps, n=2000, seed=seed)
                _tree, rep = build_slt(inst, mode=mode)
                assert rep.max_stretch <= budget, (eps, mode, seed, rep.max_stretch)


# --- gate 6: lightness separation experiment ----------------------------------

_EPS_SWEEP = (4.0**-2, 4.0**-3, 4.0**-4, 4.0**-5)


def _lightness(inst, tree):
    _edges, mst_w = mst(inst.points)
    return tree.weight() / mst_w


def _slope(kind, builder):
    values = []
    for eps in _EPS_SWEEP:
        inst = generate(kind, eps=eps)
        values.append(_lightness(inst, builder(inst)))
    return loglog_slope([1.0 / e for e in _EPS_SWEEP], values)


def test_baseline_lightness_slopes():
    t0 = time.perf_counter()
    # kry and abp pay Theta(1/eps) on the adversarial comb families
    for kind in ("comb", "cnet-comb"):
        for builder in (kry_slt, abp_slt):
            slope = _slope(kind, builder)
            assert 0.8 <= slope <= 1.2, (kind, builder.__name__, slope)
    # solomon's 1-spanner pays Theta(sqrt(1/eps)) on the circle
    slope = _slope("circle", solomon_slt)
    assert 0.3 <= slope <= 0.7, slope
    assert time.perf_counter() - t0 < 300.0


def test_restricted_lightness_slope_is_polylog():
    # Release target for restricted mode: over eps 4^-2..4^-5 on the comb
    # families, restricted weight stays within a near-flat factor (log-log
    # slope <= 0.15) of the lightest spanning tree of root-stretch 1+eps.
    #
    # That optimum is not computable at these sizes, so the denominator is a
    # certified lower bound on it: max(MST weight, the exit bound of
    # helpers.exit_lower_bound summed over one region per tooth). Dividing by
    # the MST alone would mix the builder's overhead with the growth of the
    # optimum itself, which on comb is about 1/eps x MST.
    #
    # The optimum is taken at stretch 1+eps, following the stated trade-off
    # of root-stretch 1+O(eps log 1/eps) against weight near the optimum at
    # 1+eps. PAPER.md does not settle this, nor the exponent of the polylog
    # (a single log2(1/eps) factor already has slope 0.22 on this window).
    # Against the optimum at the stretch restricted mode actually reaches, the
    # comb bound is only 0.34, 1.49, 2.39 and 10.56 x MST and the slope is
    # 0.23.
    #
    # Measured on comb: restricted weighs 6.83, 24.99, 50.85 and 191.26 x MST;
    # the exit bound is 1.48, 6.33, 25.21 and 101.83 x MST; the ratio is
    # 4.61, 3.95, 2.02 and 1.88, slope -0.24.
    #
    # cnet-comb is still red. Its exit bound (0.16, 0.31, 0.39 and 0.55 x MST)
    # and the disjoint-box certificate (0.35-0.43 x MST) both sit below the
    # MST, so the denominator is the MST and the slope stays 0.65. Restricted
    # weight jumps from 11.65 to 69.81 x MST between 4^-4 and 4^-5, where
    # ladder_depth goes from 3 to 4: the pinned path pruning keeps interior
    # ladder levels {0, 2, 4, ...}, so the occupied top-level strips oscillate
    # with the parity of the ladder depth, and each surviving top-level stop
    # pays a private ~1.5-long edge to the source. Whether the optimum on
    # cnet-comb grows too, or the builder is at fault, no bound here can tell;
    # the gate stays red and visible until one of them settles it.
    t0 = time.perf_counter()
    failures = []
    for kind in ("comb", "cnet-comb"):
        rows = []
        for eps in _EPS_SWEEP:
            inst = generate(kind, eps=eps)
            weight = build_slt(inst, mode="restricted")[0].weight()
            _edges, mst_w = mst(inst.points)
            exits = sum(exit_lower_bound(inst, r, eps) for r in tooth_regions(inst))
            bound = max(mst_w, exits)
            rows.append((eps, weight, bound, weight / bound))
        slope = loglog_slope([1.0 / e for e in _EPS_SWEEP], [r[3] for r in rows])
        if slope > 0.15:
            table = "; ".join(
                f"eps={e:.6g} weight={w:.4f} bound={b:.4f} ratio={q:.3f}"
                for e, w, b, q in rows
            )
            failures.append(f"{kind}: slope {slope:.3f} > 0.15 ({table})")
    assert time.perf_counter() - t0 < 300.0
    assert not failures, "\n".join(failures)


# --- gate 7: brute-force optimum never beats the builder ----------------------


def test_restricted_output_dominates_brute_optimum():
    # The oracle enumerates every spanning tree whose stretch fits the budget
    # the built tree actually achieved, so the built tree is in the feasible
    # set and can never be lighter than the enumerated minimum.
    rng_sizes = [2 + seed % 5 for seed in range(200)]
    ratios = []
    for seed, n in enumerate(rng_sizes):
        inst = generate("uniform", eps=1.0 / 64.0, n=n, seed=seed)
        tree, rep = build_slt(inst, mode="restricted")
        weight = tree.weight()
        opt_w, _opt_tree = brute_force_opt_st(inst, rep.max_stretch - 1.0)
        assert opt_w <= weight * (1.0 + RTOL), (seed, opt_w, weight)
        ratios.append(weight / opt_w)
    median = float(np.median(ratios))
    print(f"restricted/optimum weight ratio: median {median:.3f}, "
          f"max {max(ratios):.3f} over {len(ratios)} instances")
    assert median <= 10.0


# --- gate 8: lower-bound certificate scaling ----------------------------------

# Smallest measured value 0.060 (eps=4^-5); the floor is the sign-off value.
CERT_C3 = 0.05


def test_certificate_scaling_and_dominance():
    for k in (3, 4, 5, 6):
        eps = 4.0**-k
        inst = generate("sector-lb", eps=eps)
        _edges, mst_w = mst(inst.points)
        cert = steiner_lower_bound_certificate(inst, eps, math.sqrt(eps))
        assert cert.value >= CERT_C3 * eps**-0.25 * mst_w, (k, cert.value)
        # hard: no Steiner-mode output may undercut its own lower bound
        tree, _rep = build_slt(inst, mode="steiner")
        assert tree.weight() >= cert.value * (1.0 - RTOL), (k, cert.value)


# --- gate 9: reachable-region tile overlap is O(1) -----------------------------

# Generic source; nothing axis-aligned so rotated frames get exercised.
_OVERLAP_SOURCE = (0.37, -1.21)


def _sample_tile_points(frame, tile, params, eps, count, rng):
    """Canonical points of the tile, found by inverting the frame box."""
    out = []
    while len(out) < count:
        x = rng.uniform(0.01, 1.0)
        y = rng.uniform(-1.0, 1.0) * math.sqrt(eps)
        if tile_of(from_canonical(frame, (x, y)), params) == tile:
            out.append((x, y))
    return out


def test_reachable_region_tile_overlap_bounded():
    rng = np.random.default_rng(9)
    worst = 0
    for k_exp in (2, 3, 4, 5):
        eps = 4.0**-k_exp
        params = TilingParams.for_eps(_OVERLAP_SOURCE, eps)
        for ring in (-2, 0, 3):
            for sector in rng.integers(0, params.sides, 3):
                tile = TileId(ring, int(sector))
                frame = canonical_frame(tile, params)

                # union of sandwich ellipses over tile points, kept to the
                # tile's side of the separating vertical x = 3/2
                batches = []
                for p in _sample_tile_points(frame, tile, params, eps, 150, rng):
                    e = sandwich_ellipse(p, (2.0, 0.0), eps)
                    batches.append(sample_ellipse(e, 400, rng))
                canon = np.concatenate(batches)
                canon = canon[canon[:, 0] <= 1.5]

                # vectorized inverse of the canonical similarity, checked
                # against the scalar method on a handful of points
                ex, ey = math.cos(frame.rotation), math.sin(frame.rotation)
                a = (2.0 - canon[:, 0]) / frame.scale
                b = -canon[:, 1] / frame.scale
                world = np.stack(
                    [
                        _OVERLAP_SOURCE[0] + a * ex - b * ey,
                        _OVERLAP_SOURCE[1] + a * ey + b * ex,
                    ],
                    axis=1,
                )
                for q in canon[:5]:
                    assert np.allclose(
                        from_canonical(frame, q), world[np.all(canon == q, axis=1)][0]
                    )

                rings, sectors = tiles_of(world, params)
                worst = max(worst, len(set(zip(rings.tolist(), sectors.tolist()))))
    # measured worst overlap 28; budget 64
    assert worst <= 64, worst


# --- gate 10: performance and thread determinism -------------------------------


def test_large_build_performance_and_thread_determinism(tmp_path):
    inst = generate("uniform", eps=0.01, n=100000, seed=0)

    t0 = time.perf_counter()
    tree1, _rep1 = build_slt(inst, mode="steiner", threads=1)
    assert time.perf_counter() - t0 < 10.0

    tree8, _rep8 = build_slt(inst, mode="steiner", threads=8)
    f1 = tmp_path / "t1.slt"
    f8 = tmp_path / "t8.slt"
    textio.write_tree(str(f1), tree1)
    textio.write_tree(str(f8), tree8)
    assert f1.read_bytes() == f8.read_bytes()
