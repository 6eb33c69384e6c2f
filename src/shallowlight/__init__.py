"""Shallow-light trees for planar point sets.

Builds spanning (and Steiner) trees whose root paths are within 1+O(eps log
1/eps) of the direct distance, aiming for a total weight within a polylog
factor of the lightest tree of root-stretch 1+eps (PAPER.md does not state the
polylog's exponent). The weight is not within a polylog factor of the minimum
spanning tree: on `sector-lb` at eps 4^-3..4^-6 the disjoint-box certificate
shows that every tree of root-stretch 1+eps weighs at least
0.05*eps^(-1/4) x MST, and on `comb` the optimum itself grows about like
1/eps x MST. The pipeline decomposes the plane into source-centered tiles,
thins each tile to a centered net, and routes net points through ladder-line
hitting sets; classical constructions and exact references are included for
comparison.

The package root exports the entry points. `pipeline` runs the build, whose
stages live in `tiling`, `cnet`, `steiner`, `restricted` and `hitting` on top
of `geom` and `graphcore`. `baselines` holds the classical constructions,
`oracles` the exact references, `instances` the generators, `textio` the
file formats, `render` the SVG drawings and `cli` the `slt` command.
"""

from .baselines import abp_slt, kry_slt, mst_rooted, solomon_slt
from .graphcore import (
    KIND_INPUT,
    KIND_SOURCE,
    KIND_STEINER,
    RootedTree,
    lightness,
    mst,
    root_stretch,
    verify_tree,
)
from .instances import Instance, generate
from .pipeline import BuildReport, build_slt
from .textio import read_instance, read_tree, write_instance, write_tree

__version__ = "0.1.0"

__all__ = [
    "BuildReport",
    "Instance",
    "KIND_INPUT",
    "KIND_SOURCE",
    "KIND_STEINER",
    "RootedTree",
    "abp_slt",
    "build_slt",
    "generate",
    "kry_slt",
    "lightness",
    "mst",
    "mst_rooted",
    "read_instance",
    "read_tree",
    "root_stretch",
    "solomon_slt",
    "verify_tree",
    "write_instance",
    "write_tree",
]
