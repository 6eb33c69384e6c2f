"""Planar primitives for shallow-light tree construction.

Everything here is exact closed-form plane geometry: slope/projection/slack
decomposition of a segment, focal ellipses (sum-of-distances form), their
vertical cross-sections, and the outer-focus "sandwich" ellipse that encloses
every low-stretch path from a point to the source.

Points are (x, y) pairs; any 2-sequence of floats is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

class Interval(NamedTuple):
    """Closed interval [lo, hi] with lo <= hi. Empty intervals are None, never lo > hi."""

    lo: float
    hi: float


@dataclass(frozen=True)
class FocalEllipse:
    """Ellipse as locus of points q with d(q, f1) + d(q, f2) <= dist_sum."""

    f1: tuple[float, float]
    f2: tuple[float, float]
    dist_sum: float

    def __post_init__(self):
        c = math.dist(self.f1, self.f2)
        if not (self.dist_sum >= c and math.isfinite(self.dist_sum)):
            raise ValueError(
                f"degenerate ellipse: dist_sum={self.dist_sum} < focal distance {c}"
            )


def slope_proj_slack(a, b):
    """Decompose segment ab: slope, x-projection, slack = d(a,b) - |proj|.

    slope is dy/dx (math.inf for vertical segments); proj is |x(b) - x(a)|;
    slack is the excess of the Euclidean length over the projection. For
    |slope| <= 1 the slack obeys (1/3) slope^2 <= slack/proj <= (1/2) slope^2.
    """
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    if ax == bx and ay == by:
        raise ValueError("slope_proj_slack: coincident endpoints")
    dx = bx - ax
    dy = by - ay
    d = math.hypot(dx, dy)
    if dx == 0.0:
        return math.inf, 0.0, d
    slope = dy / dx
    proj = abs(dx)
    return slope, proj, d - proj


def _axis_form(e: FocalEllipse):
    """(xc, yc, a_semi, b_semi) for an ellipse with horizontal foci."""
    if e.f1[1] != e.f2[1]:
        raise ValueError("vertical_cross_section: foci must share a y-coordinate")
    xc = 0.5 * (e.f1[0] + e.f2[0])
    yc = e.f1[1]
    a_semi = 0.5 * e.dist_sum
    c = 0.5 * abs(e.f2[0] - e.f1[0])
    b_semi = math.sqrt(max(a_semi * a_semi - c * c, 0.0))
    return xc, yc, a_semi, b_semi


def vertical_cross_section(e: FocalEllipse, x: float):
    """Intersection of the vertical line at x with a horizontal-axis ellipse.

    Returns Interval [yc - h, yc + h] with h = b_semi * sqrt(1 - u^2),
    u = (x - xc)/a_semi, or None when |u| > 1 (line misses the ellipse).
    """
    xc, yc, a_semi, b_semi = _axis_form(e)
    if a_semi == 0.0:
        return Interval(yc, yc) if x == xc else None
    u = (x - xc) / a_semi
    if abs(u) > 1.0:
        return None
    h = b_semi * math.sqrt(1.0 - u * u)
    return Interval(yc - h, yc + h)


def outer_horizontal_focus(p, s):
    """Mirror of x(p) through x(s), at p's height: b = (2 x(s) - x(p), y(p)).

    b lies on the horizontal line through p and satisfies d(s, b) = d(p, s)
    (triangle p-s-b is isosceles with apex s). Requires x(p) != x(s).
    """
    if float(p[0]) == float(s[0]):
        raise ValueError("outer_horizontal_focus: p and s on a vertical line")
    return (2.0 * float(s[0]) - float(p[0]), float(p[1]))


def sandwich_ellipse(p, s, eps: float) -> FocalEllipse:
    """Enclosing ellipse E_p for all (1+eps)-stretch p-to-s paths.

    E_p has foci p and b = outer_horizontal_focus(p, s) and distance sum
    (1 + 2 eps) * d(p, b). For |slope(ps)| <= sqrt(eps) it contains the
    stretch ellipse {q : d(p,q) + d(q,s) <= (1+eps) d(p,s)}, and is itself
    contained in the analogous inner-focus ellipse; width comparisons stay
    within a factor 32 left of the inner midpoint.
    """
    if not (0.0 < eps < 1.0 / 9.0):
        raise ValueError(f"sandwich_ellipse: eps={eps} outside (0, 1/9)")
    slope, _, _ = slope_proj_slack(p, s)
    if abs(slope) > math.sqrt(eps):
        raise ValueError(
            f"sandwich_ellipse: |slope(ps)|={abs(slope):.6g} exceeds sqrt(eps)={math.sqrt(eps):.6g}"
        )
    b = outer_horizontal_focus(p, s)
    d_pb = math.dist(p, b)
    return FocalEllipse((float(p[0]), float(p[1])), b, (1.0 + 2.0 * eps) * d_pb)
