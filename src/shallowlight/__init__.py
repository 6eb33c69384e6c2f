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
"""

from .baselines import abp_slt, break_subpaths, kry_slt, mst_rooted, solomon_slt
from .cnet import CenteredNet, build_cnet, cluster_spanner
from .geom import (
    FocalEllipse,
    Interval,
    ellipse_contains,
    outer_horizontal_focus,
    sandwich_ellipse,
    slope_proj_slack,
    vertical_cross_section,
)
from .graphcore import (
    KIND_INPUT,
    KIND_SOURCE,
    KIND_STEINER,
    GeoGraph,
    RootedTree,
    lightness,
    mst,
    root_stretch,
    shortest_path_tree,
)
from .hitting import StripRect, brute_force_min_hitting, hit_intervals_discrete, pierce_intervals
from .instances import KINDS, Instance, generate, splitmix64
from .oracles import Certificate, brute_force_opt_st, steiner_lower_bound_certificate
from .pipeline import BuildReport, build_slt
from .render import render_svg, write_svg
from .restricted import level_rectangles, prune_path, restricted_tile_paths
from .steiner import Ladder, ladder_depth, ladder_lines, steiner_tile_paths
from .textio import read_instance, read_tree, write_instance, write_tree
from .tiling import CanonicalFrame, TileId, TilingParams, canonical_frame, polygon_sides, tile_of, tiles_of

__version__ = "0.1.0"

__all__ = [
    "BuildReport",
    "CanonicalFrame",
    "CenteredNet",
    "Certificate",
    "FocalEllipse",
    "GeoGraph",
    "Instance",
    "Interval",
    "KINDS",
    "KIND_INPUT",
    "KIND_SOURCE",
    "KIND_STEINER",
    "Ladder",
    "RootedTree",
    "StripRect",
    "TileId",
    "TilingParams",
    "abp_slt",
    "break_subpaths",
    "brute_force_min_hitting",
    "brute_force_opt_st",
    "build_cnet",
    "build_slt",
    "canonical_frame",
    "cluster_spanner",
    "ellipse_contains",
    "generate",
    "hit_intervals_discrete",
    "kry_slt",
    "ladder_depth",
    "ladder_lines",
    "level_rectangles",
    "lightness",
    "mst",
    "mst_rooted",
    "outer_horizontal_focus",
    "pierce_intervals",
    "polygon_sides",
    "prune_path",
    "read_instance",
    "read_tree",
    "restricted_tile_paths",
    "root_stretch",
    "sandwich_ellipse",
    "shortest_path_tree",
    "slope_proj_slack",
    "solomon_slt",
    "splitmix64",
    "steiner_lower_bound_certificate",
    "steiner_tile_paths",
    "tile_of",
    "tiles_of",
    "vertical_cross_section",
    "write_instance",
    "render_svg",
    "write_svg",
    "write_tree",
]
