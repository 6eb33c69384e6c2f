"""Geometry primitives: slope/slack bounds, ellipse sandwich, cross-sections."""

import math

import numpy as np
import pytest

from shallowlight.geom import (
    FocalEllipse,
    outer_horizontal_focus,
    sandwich_ellipse,
    slope_proj_slack,
    vertical_cross_section,
)

from helpers import CONTAINS_RTOL, dist_sums, ellipse_contains, inner_horizontal_focus, sample_ellipse


def test_slope_proj_slack_known_segments():
    assert slope_proj_slack((0, 0), (5, 0)) == (0.0, 5.0, 0.0)
    s, p, k = slope_proj_slack((0, 0), (4, 3))
    assert (s, p) == (0.75, 4.0)
    assert k == pytest.approx(1.0, abs=0.0)  # 3-4-5 triangle
    s, p, k = slope_proj_slack((0, 0), (0, 2))
    assert s == math.inf and p == 0.0 and k == 2.0


def test_slope_proj_slack_rejects_coincident_points():
    with pytest.raises(ValueError):
        slope_proj_slack((1.0, 2.0), (1.0, 2.0))


def test_slack_ratio_bounds_random_segments():
    # (1/3) slope^2 <= slack/proj <= (1/2) slope^2 whenever |slope| <= 1
    rng = np.random.default_rng(7)
    for _ in range(2000):
        a = rng.uniform(-5, 5, 2)
        dx = rng.uniform(1e-3, 4.0)
        slope = rng.uniform(-1.0, 1.0)
        if slope == 0.0:
            continue
        b = (a[0] + dx, a[1] + slope * dx)
        s, proj, slack = slope_proj_slack(a, b)
        ratio = slack / proj
        assert ratio >= (s * s / 3.0) * (1.0 - 1e-9)
        assert ratio <= (s * s / 2.0) * (1.0 + 1e-9)


def test_x_monotone_path_weight_and_endpoint_slope():
    # a path of per-edge |slope| <= rho is short and its endpoints stay shallow
    rng = np.random.default_rng(11)
    for _ in range(200):
        rho = rng.uniform(0.05, 1.0)
        steps = rng.integers(2, 20)
        x = np.cumsum(rng.uniform(0.01, 1.0, steps))
        slopes = rng.uniform(-rho, rho, steps)
        y = np.cumsum(slopes * np.diff(np.concatenate([[0.0], x])))
        pts = np.concatenate([[[0.0, 0.0]], np.stack([x, y], axis=1)])
        weight = float(np.hypot(*np.diff(pts, axis=0).T).sum())
        chord = math.dist(pts[0], pts[-1])
        assert weight <= math.sqrt(1.0 + rho * rho) * chord * (1.0 + 1e-12)
        end_slope, _, _ = slope_proj_slack(pts[0], pts[-1])
        assert abs(end_slope) <= rho * (1.0 + 1e-12)


def test_focal_ellipse_rejects_degenerate_sum():
    with pytest.raises(ValueError):
        FocalEllipse((0.0, 0.0), (2.0, 0.0), 1.5)
    with pytest.raises(ValueError):
        FocalEllipse((0.0, 0.0), (2.0, 0.0), math.nan)


def test_ellipse_contains_covertex_boundary():
    e = FocalEllipse((0.0, 0.0), (2.0, 0.0), 2.5)
    assert ellipse_contains(e, (1.0, 0.75))  # co-vertex, d-sum = 2.5 exactly
    assert not ellipse_contains(e, (1.0, 0.76))
    assert ellipse_contains(e, e.f1)


def test_vertical_cross_section_closed_form():
    e = FocalEllipse((0.0, 0.0), (2.0, 0.0), 2.5)
    assert vertical_cross_section(e, 1.0) == pytest.approx((-0.75, 0.75))
    iv = vertical_cross_section(e, 0.25)
    assert iv == pytest.approx((-0.6, 0.6))
    assert vertical_cross_section(e, 3.0) is None
    # boundary points of the returned interval satisfy the membership equation
    for y in iv:
        dsum = math.dist((0.25, y), e.f1) + math.dist((0.25, y), e.f2)
        assert abs(dsum - e.dist_sum) <= 1e-9 * e.dist_sum


def test_vertical_cross_section_rejects_tilted_foci():
    with pytest.raises(ValueError):
        vertical_cross_section(FocalEllipse((0.0, 0.0), (2.0, 1.0), 3.0), 1.0)


def test_cross_section_matches_membership_on_grid():
    e = FocalEllipse((0.0, 0.5), (3.0, 0.5), 3.8)
    for x in np.linspace(-0.6, 3.6, 57):
        iv = vertical_cross_section(e, float(x))
        ys = np.linspace(-2.0, 3.0, 501)
        inside = np.array([ellipse_contains(e, (float(x), float(y))) for y in ys])
        if iv is None:
            assert not inside.any()
        else:
            hit = ys[inside]
            assert hit.size > 0
            assert hit.min() >= iv.lo - 1e-6 and hit.max() <= iv.hi + 1e-6


def test_outer_horizontal_focus_is_isosceles():
    for p, s in [((0, 0), (2, 0)), ((0, 1), (2, 0)), ((0.5, -0.1), (2, 0))]:
        b = outer_horizontal_focus(p, s)
        assert b[1] == p[1]
        assert math.dist(s, b) == pytest.approx(math.dist(p, s), rel=1e-12)
    assert outer_horizontal_focus((0, 1), (2, 0)) == (4.0, 1.0)
    with pytest.raises(ValueError):
        outer_horizontal_focus((2.0, 1.0), (2.0, 0.0))


def test_sandwich_ellipse_preconditions():
    with pytest.raises(ValueError):
        sandwich_ellipse((0, 0), (2, 0), 1.0 / 9.0)  # eps too large
    with pytest.raises(ValueError):
        sandwich_ellipse((0, 0), (2, 0), 0.0)
    with pytest.raises(ValueError):
        sandwich_ellipse((0.0, 1.0), (2.0, 0.0), 0.01)  # slope 0.5 > sqrt(eps)


def test_sandwich_containment_chain_sampled():
    # E_{pa,eps/2} subset E_{ps,eps} subset E_{pb,2eps} on random admissible triples
    rng = np.random.default_rng(23)
    for _ in range(150):
        eps = float(rng.uniform(0.002, 0.1))
        px = rng.uniform(-0.5, 1.0)
        py = rng.uniform(-0.3, 0.3)
        sx = px + rng.uniform(0.8, 3.0)
        max_dy = math.sqrt(eps) * (sx - px) * 0.999
        sy = py + rng.uniform(-max_dy, max_dy)
        p, s = (px, py), (sx, sy)

        a = inner_horizontal_focus(p, s)
        e_pa = FocalEllipse(p, a, (1.0 + eps / 2.0) * math.dist(p, a))
        e_ps = FocalEllipse(p, s, (1.0 + eps) * math.dist(p, s))
        e_pb = sandwich_ellipse(p, s, eps)

        qa = sample_ellipse(e_pa, 80, rng)
        assert np.all(
            dist_sums(e_ps, qa) <= e_ps.dist_sum * (1.0 + 1e-9)
        ), "inner ellipse escapes the stretch ellipse"
        qs = sample_ellipse(e_ps, 80, rng)
        assert np.all(
            dist_sums(e_pb, qs) <= e_pb.dist_sum * (1.0 + 1e-9)
        ), "stretch ellipse escapes the sandwich ellipse"


def test_cross_section_ratio_left_of_midpoint():
    # outer/inner width ratio stays below 32 left of the pa midpoint
    rng = np.random.default_rng(29)
    for _ in range(150):
        eps = float(rng.uniform(0.002, 0.1))
        p = (rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        s = (p[0] + rng.uniform(0.8, 3.0), p[1] + rng.uniform(-0.2, 0.2))
        slope, _, _ = slope_proj_slack(p, s)
        if abs(slope) > math.sqrt(eps):
            continue
        a = inner_horizontal_focus(p, s)
        e_pa = FocalEllipse(p, a, (1.0 + eps / 2.0) * math.dist(p, a))
        e_pb = sandwich_ellipse(p, s, eps)
        mid = 0.5 * (p[0] + a[0])
        for x in np.linspace(p[0] + 1e-6, mid, 12):
            inner = vertical_cross_section(e_pa, float(x))
            if inner is None or inner.hi - inner.lo == 0.0:
                continue
            outer = vertical_cross_section(e_pb, float(x))
            assert outer is not None
            ratio = (outer.hi - outer.lo) / (inner.hi - inner.lo)
            assert ratio <= 32.0 * (1.0 + 1e-9)


def test_contains_tolerance_accepts_exact_boundary():
    e = FocalEllipse((0.0, 0.0), (1.0, 0.0), 2.0)
    c, aa = (0.5, 0.0), 1.0
    boundary = (c[0] + aa, 0.0)  # right vertex: d-sum = dist_sum exactly
    assert ellipse_contains(e, boundary)
    assert CONTAINS_RTOL == 1e-12
