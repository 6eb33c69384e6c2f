"""End-to-end tree construction.

Stages: assign every non-source point to a tile of the source-centered
decomposition; per tile, extract a centered eps-net, map to the canonical
frame and run the tile algorithm (Steiner ladder paths or the point-restricted
hitting-set variant); add a 2-spanner inside every net cluster; union all
edges over the input points (plus Steiner vertices) and the source; take the
shortest-path tree from the source; finally drop Steiner vertices that serve
no input point (degree-1 Steiner chains).

Each tile maps its route graph to global ids with one array, gid, in the
graph's vertex order: the given points (the net in steiner mode, every tile
point in restricted mode), the source, then -1 - slot for each Steiner vertex.
Tiles are independent and may run on a thread pool; the merge takes them in
sorted tile order, so the output is identical for any thread count, and turns
slot t of a tile into vertex n + (Steiner vertices of earlier tiles) + t.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
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
    tiles: list[TileStats]
    n_steiner: int  # surviving Steiner vertices in the final tree
    union_graph_weight: float
    tree_weight: float
    max_stretch: float
    wall_time_s: float


@dataclass
class _TileOut:
    stats: TileStats
    edges: np.ndarray  # (e, 2): >= 0 global id, < 0 is -1 - Steiner slot
    steiner_xy: np.ndarray  # (s, 2) world coords, slot order


def _run_tile(tile_key, member_ids, instance, params, mode):
    world = instance.points[member_ids]
    eps = instance.eps
    cn = build_cnet(world, instance.source, eps)
    frame = canonical_frame(TileId(*tile_key), params)
    canon = frame.to_canonical_many(world)

    # cluster spanners (both modes): net point + the points it covers
    by_net = np.argsort(cn.assignment, kind="stable")
    clusters = np.split(by_net, np.flatnonzero(np.diff(cn.assignment[by_net])) + 1)
    spanner = member_ids[np.concatenate([
        mem[np.asarray(cluster_spanner(world[mem]), dtype=np.int64).reshape(-1, 2)]
        for mem in clusters
    ])]
    d = instance.points[spanner[:, 0]] - instance.points[spanner[:, 1]]
    spanner_w = float(np.hypot(d[:, 0], d[:, 1]).sum())

    if mode == "steiner":
        given = cn.net
        res = steiner_tile_paths(canon[given], eps)
    else:
        given = np.arange(len(member_ids))
        res = restricted_tile_paths(cn.net, canon, eps)
    g = res.graph
    n_steiner = g.n_vertices - len(given) - 1
    gid = np.concatenate([member_ids[given], [instance.source_index], -1 - np.arange(n_steiner)])
    steiner_xy = frame.from_canonical_many(g.xy[len(given) + 1:])

    path_w = g.total_weight() / frame.scale  # canonical -> world units
    stats = TileStats(tuple(tile_key), len(member_ids), len(cn.net), path_w, spanner_w)
    return _TileOut(stats, np.concatenate([spanner, gid[g.edges]]), steiner_xy)


def build_slt(instance, mode: str = "steiner", threads: int = 1):
    """Build the tree: returns (RootedTree, BuildReport).

    The first n tree vertices are the instance points in input order; any
    surviving Steiner vertices follow. The tree root is the source.
    """
    if mode not in MODES:
        raise ValueError(f"build_slt: unknown mode {mode!r}")
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
    groups = np.split(np.arange(oo.shape[0]), cuts)
    work = [((int(rr[g[0]]), int(ss[g[0]])), oo[g]) for g in groups]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            outs = list(
                ex.map(lambda w: _run_tile(w[0], w[1], instance, params, mode), work)
            )
    else:
        outs = [_run_tile(key, ids, instance, params, mode) for key, ids in work]

    # merge in tile order; Steiner slots are numbered on across tiles from n
    edges = []
    base = n
    for out in outs:
        edges.append(np.where(out.edges < 0, base - 1 - out.edges, out.edges))
        base += out.steiner_xy.shape[0]
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
