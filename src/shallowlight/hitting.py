"""Minimum piercing of closed 1-D intervals, continuous and discrete.

pierce_intervals is the classic right-endpoint sweep (optimal for closed
intervals). hit_intervals_discrete restricts piercing points to a given
candidate set and is used for the strip hitting sets of the non-Steiner tree
builder.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass


@dataclass(frozen=True)
class StripRect:
    """Axis-aligned rectangle inside one vertical strip, owned by a net point.

    x_lo/x_hi are the strip's line coordinates; y_lo/y_hi the owner's ellipse
    cross-section at the strip's right boundary; owner is the net point index.
    """

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    owner: int


def _check(intervals):
    out = []
    for iv in intervals:
        lo, hi = float(iv[0]), float(iv[1])
        if not lo <= hi:
            raise ValueError(f"malformed interval [{lo}, {hi}]")
        out.append((lo, hi))
    return out


def pierce_intervals(intervals) -> list[float]:
    """Minimum piercing set, ascending. Greedy sweep picking right endpoints.

    Sort by right endpoint; whenever the current interval is unpierced, its
    right endpoint joins the set. Every returned point is some interval's hi.
    """
    ivs = _check(intervals)
    pts: list[float] = []
    last = None
    for lo, hi in sorted(ivs, key=lambda t: (t[1], t[0])):
        if last is None or lo > last:
            pts.append(hi)
            last = hi
    return pts


def hit_intervals_discrete(intervals, candidates) -> list[int]:
    """Minimum hitting set drawn from candidates; returns candidate indices.

    Greedy by ascending right endpoint: an unhit interval is assigned the
    largest candidate value <= hi (ties on equal values break to the lowest
    candidate index). Errors if some interval contains no candidate.
    """
    ivs = _check(intervals)
    cand = [(float(c), i) for i, c in enumerate(candidates)]
    # Sort by value; among equal values keep ascending index so that scanning
    # backwards for "largest value <= hi" meets the lowest index last.
    cand.sort()
    chosen: list[int] = []
    chosen_vals: list[float] = []
    vals = [v for v, _ in cand]
    for lo, hi in sorted(ivs, key=lambda t: (t[1], t[0])):
        if chosen_vals and lo <= chosen_vals[-1] <= hi:
            continue
        j = bisect.bisect_right(vals, hi) - 1
        if j < 0 or vals[j] < lo:
            raise ValueError(f"interval [{lo}, {hi}] contains no candidate")
        # step to the lowest candidate index among equal values
        while j > 0 and vals[j - 1] == vals[j]:
            j -= 1
        chosen.append(cand[j][1])
        chosen_vals.append(vals[j])
    return chosen
