"""Spans and counters recorded around calls into each layer of shallowlight.

Tracing works from outside the package: `instrument` swaps the names that
`shallowlight.pipeline` imports (and the `mst` that the baselines call) for
wrappers that open a span and count work, then restores them. Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from shallowlight import KIND_STEINER, baselines, pipeline


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans (name, start, end, parent, attrs); attrs carry work counts.

    A span opened on a pool thread with no open span of its own is parented
    to the open top-level span, so per-tile work at threads=2 stays under
    the build that started it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._top: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block as a span; yields its attrs dict, where counts go."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._top
        sid = next(self._ids)
        if parent is None:
            self._top = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            if self._top == sid:
                self._top = None
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, attrs))

    def wrap(self, name: str, fn, counts=None):
        """fn traced as span `name`; counts(args, result) -> dict of work counts."""

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if counts is not None:
                attrs.update(counts(args, result))  # the span holds this dict
            return result

        return traced

    def write(self, path) -> None:
        rows = [[s.id, s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
        with open(path, "w", encoding="ascii") as f:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "attrs"],
                       "spans": rows}, f)


def _cluster_spanner_counts(args, edges):
    m = len(args[0])
    return {"points": m, "pairs": m * (m - 1) // 2, "edges": len(edges)}


def _build_cnet_counts(args, cn):
    return {"points": len(args[0]), "net_points": len(cn.net)}


def _steiner_paths_counts(args, res):
    return {"steiner_created": int(np.sum(res.graph.kind == KIND_STEINER))}


def _restricted_paths_counts(args, res):
    return {"edges": int(res.graph.edges.shape[0])}


def _union_graph_counts(args, g):
    return {"edges": int(g.edges.shape[0]),
            "steiner": int(np.sum(g.kind == KIND_STEINER))}


# name imported by shallowlight.pipeline -> (span name, work counts of one call)
PIPELINE_STAGES = {
    "tiles_of": ("tiling.tiles_of", None),
    "build_cnet": ("cnet.build_cnet", _build_cnet_counts),
    "cluster_spanner": ("cnet.cluster_spanner", _cluster_spanner_counts),
    "steiner_tile_paths": ("steiner.steiner_tile_paths", _steiner_paths_counts),
    "restricted_tile_paths": ("restricted.restricted_tile_paths", _restricted_paths_counts),
    "shortest_path_tree": ("graphcore.shortest_path_tree", None),
    "root_stretch": ("graphcore.root_stretch", None),
}


@contextmanager
def instrument(tracer: Tracer):
    """Route the pipeline's stage calls and the baselines' mst through tracer."""
    saved = {name: getattr(pipeline, name) for name in (*PIPELINE_STAGES, "GeoGraph")}
    saved_mst = baselines.mst
    try:
        for name, (span, hook) in PIPELINE_STAGES.items():
            setattr(pipeline, name, tracer.wrap(span, saved[name], hook))
        build = tracer.wrap("graphcore.GeoGraph.build", saved["GeoGraph"].build,
                            _union_graph_counts)
        pipeline.GeoGraph = types.SimpleNamespace(build=build)
        baselines.mst = tracer.wrap("graphcore.mst", saved_mst)
        yield tracer
    finally:
        for name, fn in saved.items():
            setattr(pipeline, name, fn)
        baselines.mst = saved_mst


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -np.inf
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [(max(a, s.start), min(b, s.end)) for a, b in kids.get(s.id, ())]
        out[s.id] = s.duration - _covered(iv for iv in inside if iv[1] > iv[0])
    return out


def per_call_overhead(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds a traced call costs over a bare one: median over repeats."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop, lambda args, result: {})
    diffs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return float(np.median(diffs))
