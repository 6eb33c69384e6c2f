"""Steiner-free tree builder for one canonical tile.

Where the Steiner builder may bend a path at arbitrary points on the ladder
lines, this variant must route through input points only. Per net point p and
ladder level i, the search region B_i(p) is the bounding box of p's sandwich
ellipse clipped to the vertical strip between consecutive ladder stops L_i(p)
and L_{i+1}(p): x-range (L_i, L_{i+1}] (a point exactly on a line belongs to
the strip on its left), y-range the ellipse cross-section at L_{i+1}, closed.
Both are read from `steiner.ladder_table` with k+1 levels: column i gives the
left edge, column i+1 the right edge and y-range (NaN, so empty, on a miss).

All net points sharing the line index at level i share the whole strip, so one
minimum hitting set of their boxes (drawn from the tile points inside the
strip) serves them all. The tile is routed on arrays: every strip's
candidates are a slice of the x-sorted points, gathered and sorted once by
(strip, y, id); exact per-strip searches find each box's candidates, and one
`hit_groups_discrete` sweep picks every strip's hitting set. A net point hops
to the lowest-id hitting-set member inside each nonempty box, then to the
source. One pruning pass over the levels (`prune_levels`) drops each stop one
level above the last kept stop, so consecutive interior stops stay at least
two levels apart and geometric weights telescope. `restricted_tile_paths`
returns the tile's path graph, its (net point, level) stop table and the
stops that survive pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphcore import KIND_INPUT, KIND_SOURCE, GeoGraph
from .hitting import GroupedSorted, hit_groups_discrete
from .steiner import SOURCE_CANON, ladder_depth, ladder_table, line_groups


def prune_levels(has_stop: np.ndarray) -> np.ndarray:
    """Stops kept of each (path, level) table row, in one pass over the levels:
    a stop is dropped when the last kept stop sits one level below it.

    Consecutive kept levels differ by at least 2 afterwards.
    """
    keep = np.zeros_like(has_stop, dtype=bool)
    last = np.full(has_stop.shape[0], -2)
    for level in range(has_stop.shape[1]):
        keep[:, level] = has_stop[:, level] & (last != level - 1)
        last[keep[:, level]] = level
    return keep


def _ranges(start, count) -> np.ndarray:
    """Concatenation of arange(s, s + c) over the pairs of start and count."""
    offset = np.repeat(np.cumsum(count) - count - start, count)
    return np.arange(offset.size) - offset


@dataclass
class RestrictedTileResult:
    """Union of per-point hitting-set paths inside one tile (canonical coords)."""

    graph: GeoGraph
    stop: np.ndarray  # (m, k) stop id per net position and level, -1 for none
    keep: np.ndarray  # (m, k) stops that survive pruning


def restricted_tile_paths(net_idx, pts, eps: float) -> RestrictedTileResult:
    """Build the hitting-set path union over a tile's points (canonical coords).

    net_idx are indices into pts of the tile's centered-net points; every
    point of pts may serve as an interior stop.
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    net = np.asarray(net_idx, dtype=np.int64).reshape(-1)
    k = ladder_depth(eps)  # rejects eps outside (0, 1/16]
    if np.any((net < 0) | (net >= n)):
        raise ValueError("restricted_tile_paths: net index out of range")
    if np.any(pts[:, 0] >= 2.0):
        raise ValueError("restricted_tile_paths: point at or beyond the source line x=2")
    source_id = n
    line_index, x, y_lo, y_hi = ladder_table(pts[net], eps, k + 1)

    # one cell per (net position, level < k); cells of one strip are consecutive
    level, row, strip = line_groups(line_index[:, :k])
    head = np.flatnonzero(np.diff(strip, prepend=-1))  # first cell of each strip
    by_x = np.argsort(pts[:, 0], kind="stable")
    xs_sorted = pts[by_x, 0]
    start = np.searchsorted(xs_sorted, x[row[head], level[head]], side="right")
    count = np.searchsorted(xs_sorted, x[row[head], level[head] + 1], side="right") - start
    cand_strip = np.repeat(np.arange(head.size), count)
    cand_id = by_x[_ranges(start, count)]
    by_y = np.lexsort((cand_id, pts[cand_id, 1], cand_strip))
    cand_strip, cand_id = cand_strip[by_y], cand_id[by_y]
    cand = GroupedSorted(cand_strip, pts[cand_id, 1])

    # each cell's box; it holds a candidate iff its first >= lo is at most its
    # last <= hi (a NaN box holds none)
    lo, hi = y_lo[row, level + 1], y_hi[row, level + 1]
    first = cand.search(strip, lo)
    last = cand.search(strip, hi, side="right") - 1
    box = np.flatnonzero((first <= last) & (lo <= hi))
    picks = hit_groups_discrete(strip[box], lo[box], hi[box], cand)

    # a box's hits are the picks between its first and last candidate; it
    # stops at the lowest id among them
    h0 = np.searchsorted(picks, first[box])
    n_hits = np.searchsorted(picks, last[box], side="right") - h0
    stop_id = np.minimum.reduceat(cand_id[picks[_ranges(h0, n_hits)]],
                                  np.cumsum(n_hits) - n_hits)
    stop = np.full((net.size, k), -1, dtype=np.int64)
    stop[row[box], level[box]] = stop_id
    keep = prune_levels(stop >= 0)

    prev = net.copy()
    edges = []
    for lvl in range(k):
        on = keep[:, lvl]
        edges.append(np.column_stack([prev[on], stop[on, lvl]]))
        prev[on] = stop[on, lvl]
    edges.append(np.column_stack([prev, np.full(net.size, source_id)]))
    kind = np.repeat(np.int8([KIND_INPUT, KIND_SOURCE]), [n, 1])
    g = GeoGraph.build(np.vstack([pts, [SOURCE_CANON]]), kind, np.concatenate(edges))
    return RestrictedTileResult(g, stop, keep)
