"""Minimum piercing of closed 1-D intervals, continuous and discrete, per group.

The tile builders route many lines (Steiner mode) or strips (restricted mode)
at once, so each greedy runs over the intervals of all groups in one pass:
the intervals are sorted once by (group, hi, lo) and every group gets the
classic sweep of its own intervals.

pierce_groups picks right endpoints (optimal for closed intervals).
hit_groups_discrete restricts the picks to a per-group candidate set, sorted
by (group, value), and takes the largest candidate <= hi, ties to the lowest
candidate position; the restricted builder draws its strip hitting sets from
it. pierce_groups returns the indices of the piercing intervals and
hit_groups_discrete the positions of the picked candidates. GroupedSorted
answers searchsorted queries inside each group of such a sorted array
exactly, through integer keys.
"""

from __future__ import annotations

import numpy as np


class GroupedSorted:
    """Exact searchsorted within the groups of values sorted by (group, value).

    Each value is keyed as group * (U + 1) + its rank among the U distinct
    values, so integer keys order exactly as the (group, value) pairs do and a
    query never leaves its group's key range. Values compare as numbers:
    -0.0 equals 0.0.
    """

    def __init__(self, group, value):
        self.group = np.asarray(group, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        self._uniq = np.unique(self.value)
        self._width = self._uniq.size + 1
        self.key = self.group * self._width + np.searchsorted(self._uniq, self.value)

    def search(self, group, value, side: str = "left") -> np.ndarray:
        """Global insertion positions of (group, value), like np.searchsorted
        within each group: past a group's last entry is the next group's first."""
        rank = np.searchsorted(self._uniq, value, side=side)
        return np.searchsorted(self.key, np.asarray(group) * self._width + rank)

    def first_equal(self, pos) -> np.ndarray:
        """First position holding the same group and value as each pos."""
        return np.searchsorted(self.key, self.key[pos])


def _intervals(group, lo, hi):
    """Group, lo and hi as arrays in the (group, hi, lo) sweep order."""
    lo = np.asarray(lo, dtype=np.float64).reshape(-1)
    hi = np.asarray(hi, dtype=np.float64).reshape(-1)
    bad = np.flatnonzero(~(lo <= hi))
    if bad.size:
        t = int(bad[0])
        raise ValueError(f"malformed interval [{float(lo[t])}, {float(hi[t])}]")
    group = np.asarray(group, dtype=np.int64).reshape(-1)
    order = np.lexsort((lo, hi, group))
    return order, group[order], lo[order], hi[order]


def pierce_groups(group, lo, hi) -> np.ndarray:
    """Minimum piercing set of each group's closed intervals.

    Returns the indices of the intervals whose right endpoints pierce, in
    (group, value) order: sweeping one group's intervals by (hi, lo),
    whenever the current interval is unpierced its hi joins the set.
    """
    order, g, lo, hi = _intervals(group, lo, hi)
    picks = []
    g_prev, last = None, 0.0
    for t, gi, l, h in zip(order.tolist(), g.tolist(), lo.tolist(), hi.tolist()):
        if gi != g_prev or l > last:
            picks.append(t)
            g_prev, last = gi, h
    return np.asarray(picks, dtype=np.int64)


def hit_groups_discrete(group, lo, hi, cand: GroupedSorted) -> np.ndarray:
    """Minimum hitting set of each group's intervals drawn from its candidates.

    cand holds every group's candidates sorted by (group, value); among equal
    values a lower position is a lower candidate index. Returns candidate
    positions in (group, value) order. Sweeping one group's intervals by
    (hi, lo), an unhit interval is assigned the largest candidate value <= hi,
    at its lowest position. Picks rise strictly within a group, so an interval
    is hit iff the group's last pick lies in it. Errors if some interval
    contains no candidate.
    """
    _, g, lo, hi = _intervals(group, lo, hi)
    # the largest candidate <= hi depends on hi alone, not on the sweep's state
    pred = cand.search(g, hi, side="right") - 1
    found = pred >= 0
    found[found] = cand.group[pred[found]] == g[found]
    pred[found] = cand.first_equal(pred[found])
    value = np.full(g.size, np.nan)
    value[found] = cand.value[pred[found]]
    inside = value >= lo  # False where no candidate <= hi
    picks = []
    g_prev, last = None, 0.0
    for gi, l, h, p, v, ok in zip(g.tolist(), lo.tolist(), hi.tolist(), pred.tolist(),
                                  value.tolist(), inside.tolist()):
        if gi == g_prev and l <= last <= h:
            continue
        if not ok:
            raise ValueError(f"interval [{l}, {h}] contains no candidate")
        picks.append(p)
        g_prev, last = gi, v
    return np.asarray(picks, dtype=np.int64)

