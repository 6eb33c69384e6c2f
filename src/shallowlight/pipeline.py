"""End-to-end tree construction.

Stages: assign every non-source point to a tile of the source-centered
decomposition; per tile, extract a centered eps-net, map to the canonical
frame and run the tile algorithm (Steiner ladder paths or the point-restricted
hitting-set variant); add a 2-spanner inside every net cluster; union all
edges over the input points (plus Steiner vertices) and the source; take the
shortest-path tree from the source; finally drop Steiner vertices that serve
no input point (degree-1 Steiner chains).

A tile is routed from plain data (its key, point coordinates, the source,
eps, the tiling and the mode) and returns local vertex ids: 0..m-1 for its
m points, m for the source and -1 - slot for its Steiner vertices. With
threads > 1, tiles run on worker processes forked from the caller, at most
one per tile and per usable core. They run in this process when that leaves
one worker, when the tiles other than the largest hold fewer than
POOL_MIN_POINTS points (too little work to pay for the fork), when the
platform has no fork, or when the caller runs other threads (a lock held by
one of those would stay held in a forked worker). The merge takes tiles in
sorted tile order and turns slot t of a tile into vertex
n + (Steiner vertices of earlier tiles) + t, so the output is identical for
any thread count.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .cnet import build_cnet, cluster_spanner
from .graphcore import (
    KIND_INPUT,
    KIND_SOURCE,
    KIND_STEINER,
    GeoGraph,
    RootedTree,
    root_stretch,
    shortest_path_tree,
)
from .restricted import restricted_tile_paths
from .steiner import steiner_tile_paths
from .tiling import TileId, TilingParams, canonical_frame, tiles_of

MODES = ("steiner", "restricted")

# A pool added 15-30 ms to a build on a 2-core x86 box, and after a fork the
# caller takes a write fault on each page it touches again: serial builds of
# 5k points that followed a pooled one ran 11-14% slower. A pool ends no
# sooner than its largest tile, so it pays only when the other tiles hold
# about this many points (a point takes 18-41 us to build at threads=1: the
# medians of perfbench's steiner and restricted runs on that box).
POOL_MIN_POINTS = 1500


@dataclass
class TileStats:
    tile: tuple[int, int]
    n_points: int
    net_size: int
    path_weight: float  # tile path-graph weight, world units
    spanner_weight: float


@dataclass
class BuildReport:
    mode: str
    eps: float
    threads: int
    workers: int  # worker processes that routed the tiles; 0 when routed in-process
    tiles: list[TileStats]
    n_steiner: int  # surviving Steiner vertices in the final tree
    union_graph_weight: float
    tree_weight: float
    max_stretch: float
    wall_time_s: float


@dataclass
class _TileOut:
    stats: TileStats
    edges: np.ndarray  # (e, 2) local ids: points, the source, -1 - Steiner slot
    steiner_xy: np.ndarray  # (s, 2) world coords, slot order


def _run_tile(tile_key, world, source, eps, params, mode):
    """Route one tile's points `world`; edges use the tile's local vertex ids."""
    m = len(world)
    cn = build_cnet(world, source, eps)
    frame = canonical_frame(TileId(*tile_key), params)
    canon = frame.to_canonical_many(world)

    # cluster spanners (both modes): net point + the points it covers
    by_net = np.argsort(cn.assignment, kind="stable")
    clusters = np.split(by_net, np.flatnonzero(np.diff(cn.assignment[by_net])) + 1)
    spanner = np.concatenate([
        mem[np.asarray(cluster_spanner(world[mem]), dtype=np.int64).reshape(-1, 2)]
        for mem in clusters
    ])
    d = world[spanner[:, 0]] - world[spanner[:, 1]]
    spanner_w = float(np.hypot(d[:, 0], d[:, 1]).sum())

    if mode == "steiner":
        given = cn.net
        res = steiner_tile_paths(canon[given], eps)
    else:
        given = np.arange(m)
        res = restricted_tile_paths(cn.net, canon, eps)
    g = res.graph
    n_steiner = g.n_vertices - len(given) - 1
    local = np.concatenate([given, [m], -1 - np.arange(n_steiner)])
    steiner_xy = frame.from_canonical_many(g.xy[len(given) + 1:])

    path_w = g.total_weight() / frame.scale  # canonical -> world units
    stats = TileStats(tuple(tile_key), m, len(cn.net), path_w, spanner_w)
    return _TileOut(stats, np.concatenate([spanner, local[g.edges]]), steiner_xy)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _route_tiles(tasks, threads: int) -> tuple[list[_TileOut], int]:
    """_run_tile over tasks, in order, and the number of worker processes used:
    forked workers when more than one pays, else 0 (routed in this process)."""
    workers = min(threads, len(tasks), _usable_cores())
    sizes = [len(world) for _, world, *_ in tasks]
    if (workers <= 1 or sum(sizes) - max(sizes) < POOL_MIN_POINTS
            or not hasattr(os, "fork") or threading.active_count() > 1):
        return [_run_tile(*t) for t in tasks], 0
    # imported here: the process pool takes 4-7 ms to import, which serial
    # builds need not pay
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (4 * workers))  # small tiles share a round trip
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as ex:
        return list(ex.map(_run_tile, *zip(*tasks), chunksize=chunk)), workers


def build_slt(instance, mode: str = "steiner", threads: int = 1):
    """Build the tree: returns (RootedTree, BuildReport).

    The first n tree vertices are the instance points in input order; any
    surviving Steiner vertices follow. The tree root is the source.

    threads is the most worker processes that route tiles at once (an int
    >= 1). A build uses at most one per tile and per usable core and forks
    them from this process. It routes in this process when that leaves one
    worker, when the tiles other than the largest hold fewer than
    POOL_MIN_POINTS points, when the platform has no fork, or when this
    process runs other threads. The tree is identical for any value.
    """
    if mode not in MODES:
        raise ValueError(f"build_slt: unknown mode {mode!r}")
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"build_slt: threads={threads!r} must be an int >= 1")
    eps = instance.eps
    if not 0.0 < eps <= 1.0 / 16.0:
        raise ValueError(f"build_slt: eps={eps} outside (0, 1/16]")
    n = instance.n
    if n < 2:
        raise ValueError("build_slt: need at least 2 points")
    t0 = time.perf_counter()

    params = TilingParams.for_eps(instance.source, eps)
    others = np.flatnonzero(np.arange(n) != instance.source_index)
    rings, sectors = tiles_of(instance.points[others], params)
    order = np.lexsort((others, sectors, rings))
    rr, ss, oo = rings[order], sectors[order], others[order]
    cuts = np.flatnonzero((np.diff(rr) != 0) | (np.diff(ss) != 0)) + 1
    members = np.split(oo, cuts)
    keys = [(int(rr[c]), int(ss[c])) for c in (0, *cuts.tolist())]
    outs, workers = _route_tiles([(key, instance.points[ids], instance.source, eps, params, mode)
                                  for key, ids in zip(keys, members)], threads)

    # merge in tile order; local ids go global through one map per tile:
    # the tile's points, the source, then its Steiner vertices numbered on
    # across tiles from n, reversed so that index -1 - slot picks slot
    edges = []
    base = n
    for ids, out in zip(members, outs):
        n_steiner = out.steiner_xy.shape[0]
        gid = np.concatenate([ids, [instance.source_index], base + np.arange(n_steiner)[::-1]])
        edges.append(gid[out.edges])
        base += n_steiner
    xy = np.vstack([instance.points, *(o.steiner_xy for o in outs)])
    kind = np.full(xy.shape[0], KIND_INPUT, dtype=np.int8)
    kind[instance.source_index] = KIND_SOURCE
    kind[n:] = KIND_STEINER
    g = GeoGraph.build(xy, kind, np.concatenate(edges))
    tree = shortest_path_tree(g, instance.source_index)
    tree = _prune_steiner_leaves(tree)

    stretch = root_stretch(tree, instance)
    report = BuildReport(
        mode=mode,
        eps=eps,
        threads=threads,
        workers=workers,
        tiles=[o.stats for o in outs],
        n_steiner=int(np.sum(tree.kind == KIND_STEINER)),
        union_graph_weight=g.total_weight(),
        tree_weight=tree.weight(),
        max_stretch=stretch,
        wall_time_s=time.perf_counter() - t0,
    )
    return tree, report


def _prune_steiner_leaves(tree: RootedTree) -> RootedTree:
    """Keep input points, the source and their ancestors; drop other Steiner vertices.

    Ancestors are marked one tree level per round, so the rounds are bounded
    by the longest Steiner chain (the ladder depth).
    """
    keep = tree.kind != KIND_STEINER
    front = np.flatnonzero(keep)
    while front.size:
        up = tree.parent[front]
        up = up[up >= 0]
        front = np.unique(up[~keep[up]])
        keep[front] = True
    new_id = np.cumsum(keep) - 1
    parent = tree.parent[keep]
    parent = np.where(parent >= 0, new_id[parent], -1)
    return RootedTree(
        tree.xy[keep],
        tree.kind[keep],
        int(new_id[tree.root]),
        parent,
        tree.root_dist[keep],
    )
