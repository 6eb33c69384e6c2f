"""Line-oriented text formats for instances and trees.

Floats are written with 17 significant digits, which round-trips IEEE doubles
exactly, so write -> read -> write reproduces a file byte for byte. Parse
errors carry the offending line number.

instance file                      tree file
    slt-instance v1                    slt-tree v1
    epsilon <decimal>                  vertices <m>
    source <index>                     <id> <x> <y> <kind>   (m lines)
    points <n>                         edges <m-1>
    <x> <y>            (n lines)       <u> <v>               (m-1 lines, child parent)
                                       root <id>
"""

from __future__ import annotations

import numpy as np

from .graphcore import KIND_CODES, KIND_NAMES, RootedTree, root_distances
from .instances import Instance

INSTANCE_MAGIC = "slt-instance v1"
TREE_MAGIC = "slt-tree v1"


class ParseError(ValueError):
    """Malformed instance/tree file; message includes path and line number."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _LineReader:
    def __init__(self, path: str, text: str):
        self.path = path
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise ParseError(f"{self.path}:{self.pos + 1}: expected {what}, found end of file")
        self.pos += 1
        return self.lines[self.pos - 1]

    def fail(self, msg: str):
        raise ParseError(f"{self.path}:{self.pos}: {msg}")

    def keyed(self, key: str):
        """Line `<key> <value>`; returns the value string."""
        line = self.next(f"`{key} ...`")
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            self.fail(f"expected `{key} <value>`, found {line!r}")
        return parts[1]

    def int_value(self, key: str) -> int:
        v = self.keyed(key)
        try:
            return int(v)
        except ValueError:
            self.fail(f"`{key}` value {v!r} is not an integer")

    def float_value(self, key: str) -> float:
        v = self.keyed(key)
        try:
            return float(v)
        except ValueError:
            self.fail(f"`{key}` value {v!r} is not a number")


def write_instance(path: str, instance: Instance) -> None:
    rows = [INSTANCE_MAGIC,
            f"epsilon {_fmt(instance.eps)}",
            f"source {instance.source_index}",
            f"points {instance.n}"]
    rows.extend(f"{_fmt(x)} {_fmt(y)}" for x, y in instance.points)
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(rows) + "\n")


def read_instance(path: str) -> Instance:
    with open(path, encoding="ascii") as f:
        r = _LineReader(path, f.read())
    magic = r.next("header")
    if magic != INSTANCE_MAGIC:
        r.fail(f"bad header {magic!r}, expected {INSTANCE_MAGIC!r}")
    eps = r.float_value("epsilon")
    source = r.int_value("source")
    n = r.int_value("points")
    if n < 1:
        r.fail(f"points count {n} must be >= 1")
    pts = np.empty((n, 2), dtype=np.float64)
    for i in range(n):
        line = r.next(f"point {i + 1} of {n}")
        parts = line.split()
        if len(parts) != 2:
            r.fail(f"expected `<x> <y>`, found {line!r}")
        try:
            pts[i, 0], pts[i, 1] = float(parts[0]), float(parts[1])
        except ValueError:
            r.fail(f"non-numeric coordinate in {line!r}")
    try:
        return Instance(pts, source, eps)
    except ValueError as e:
        raise ParseError(f"{path}: invalid instance: {e}") from e


def write_tree(path: str, tree: RootedTree) -> None:
    m = tree.n_vertices
    rows = [TREE_MAGIC, f"vertices {m}"]
    for i in range(m):
        rows.append(f"{i} {_fmt(tree.xy[i, 0])} {_fmt(tree.xy[i, 1])} "
                    f"{KIND_NAMES[int(tree.kind[i])]}")
    edges = tree.edge_list()
    rows.append(f"edges {len(edges)}")
    rows.extend(f"{u} {v}" for u, v in edges.tolist())
    rows.append(f"root {tree.root}")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(rows) + "\n")


def read_tree(path: str) -> RootedTree:
    with open(path, encoding="ascii") as f:
        r = _LineReader(path, f.read())
    magic = r.next("header")
    if magic != TREE_MAGIC:
        r.fail(f"bad header {magic!r}, expected {TREE_MAGIC!r}")
    m = r.int_value("vertices")
    if m < 1:
        r.fail(f"vertex count {m} must be >= 1")
    xy = np.empty((m, 2), dtype=np.float64)
    kind = np.empty(m, dtype=np.int8)
    for i in range(m):
        line = r.next(f"vertex {i + 1} of {m}")
        parts = line.split()
        if len(parts) != 4:
            r.fail(f"expected `<id> <x> <y> <kind>`, found {line!r}")
        if parts[0] != str(i):
            r.fail(f"vertex ids must be dense ascending; expected {i}, found {parts[0]!r}")
        if parts[3] not in KIND_CODES:
            r.fail(f"unknown vertex kind {parts[3]!r}")
        try:
            xy[i, 0], xy[i, 1] = float(parts[1]), float(parts[2])
        except ValueError:
            r.fail(f"non-numeric coordinate in {line!r}")
        kind[i] = KIND_CODES[parts[3]]
    n_edges = r.int_value("edges")
    if n_edges != m - 1:
        r.fail(f"edge count {n_edges} != vertices - 1 = {m - 1}: not a tree")
    parent = np.full(m, -1, dtype=np.int64)
    seen_child = np.zeros(m, dtype=bool)
    for t in range(n_edges):
        line = r.next(f"edge {t + 1} of {n_edges}")
        parts = line.split()
        if len(parts) != 2:
            r.fail(f"expected `<child> <parent>`, found {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            r.fail(f"non-integer edge endpoint in {line!r}")
        if not (0 <= u < m and 0 <= v < m):
            r.fail(f"edge endpoint out of range in {line!r}")
        if seen_child[u]:
            r.fail(f"vertex {u} has two parents")
        seen_child[u] = True
        parent[u] = v
    root = r.int_value("root")
    if not 0 <= root < m:
        r.fail(f"root {root} out of range")
    if seen_child[root]:
        r.fail(f"root {root} appears as an edge child")
    if m > 1 and not seen_child[np.arange(m) != root].all():
        missing = int(np.flatnonzero(~seen_child & (np.arange(m) != root))[0])
        r.fail(f"vertex {missing} is not connected to the tree")
    try:
        dist = root_distances(parent, xy, root)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e
    return RootedTree(xy, kind, int(root), parent, dist)
