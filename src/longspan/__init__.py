"""Longest spanning trees in the plane.

Approximation algorithms for two maximization problems: the longest
noncrossing spanning tree of a point set (ratio 0.519) and the longest
spanning tree with neighborhoods, one representative vertex per colored
region (ratio 0.524).  Ships with exact brute-force oracles, the
closed-form analysis constants behind both ratios, deterministic instance
generators including the adversarial families, and file formats for
points, neighborhoods, and trees.
"""

from .geometry import (
    COLLINEAR,
    LEFT,
    RIGHT,
    Point,
    bichromatic_diametral_pair,
    diametral_pair,
    dist,
    orientation,
    segments_cross,
)
from .trees import (
    Fermat3Result,
    Tree,
    best_star,
    fermat_point,
    is_noncrossing,
    max_spanning_tree,
    max_spanning_tree_through,
    min_spanning_tree,
    star,
    tree_length,
    validate_spanning_tree,
)
from .neighborhoods import (
    Neighborhood,
    NeighborhoodSet,
    StnbParams,
    StnbRegionReport,
    StnbSolution,
    build_double_star,
    farthest_vertex_in,
    longest_spanning_star_nb,
    solve_stnb,
    stnb_params,
    stnb_region_report,
)
from .noncrossing import (
    NcstCandidate,
    NcstParams,
    RegionClassifier,
    build_Ta,
    build_Tb,
    classify_points,
    ncst_params,
    solve_ncst,
)
from .constants import ConstantsReport, f1, f2, identity_suite, lf_length
from .oracles import RatioRecord, exact_ncst, exact_stnb, oracle_ratio
from .instances import (
    GenSpec,
    SplitMix64,
    generate,
    read_neighborhoods,
    read_points,
    read_tree,
    write_neighborhoods,
    write_points,
    write_tree,
)
from .report import SolveReport
from .svg import render_svg

__version__ = "0.1.0"
