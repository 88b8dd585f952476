"""Longest spanning tree with neighborhoods: colored polygonal regions,
the 0.524-approximation (one double-star and three stars, built around a
bichromatic diametral pair), and the lens/ellipse region bookkeeping used
by its ratio analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .geometry import Point, _check_length_bound, as_points, bichromatic_diametral_pair, dist
from .report import SolveReport
from .trees import Tree, tree_length


@dataclass(frozen=True)
class Neighborhood:
    """One colored neighborhood: a union of polygons, kept as vertex rings.

    Single-vertex rings model point neighborhoods.  Only boundary vertices
    matter to the solvers: a farthest point inside a polygon is always
    attained at a vertex.  A NaN or infinite vertex coordinate raises
    ValueError naming the color and the vertex's index in its ring.
    """

    color: int
    polygons: tuple[tuple[Point, ...], ...]

    def __post_init__(self):
        try:
            polys = tuple(tuple(as_points(ring)) for ring in self.polygons)
        except ValueError as err:
            raise ValueError(f"neighborhood of color {self.color}: {err}") from None
        if not polys or any(len(ring) == 0 for ring in polys):
            raise ValueError("neighborhood needs at least one polygon vertex")
        object.__setattr__(self, "polygons", polys)

    def vertices(self) -> Iterable[Point]:
        for ring in self.polygons:
            yield from ring


class NeighborhoodSet:
    """A collection of uniquely colored neighborhoods, flattened to a vertex
    array with parallel color and owner arrays: owner[v] is the position of
    vertex v's neighborhood, whose vertices occupy the contiguous index
    range ranges[owner[v]]."""

    def __init__(self, neighborhoods: Sequence[Neighborhood]):
        if len(neighborhoods) < 2:
            raise ValueError("need at least two neighborhoods")
        colors = [nb.color for nb in neighborhoods]
        if len(set(colors)) != len(colors):
            raise ValueError("duplicate color")
        self.neighborhoods = tuple(neighborhoods)
        self.points: list[Point] = []
        self.colors: list[int] = []
        self.owner: list[int] = []
        self.ranges: list[range] = []
        for k, nb in enumerate(self.neighborhoods):
            start = len(self.points)
            for v in nb.vertices():
                self.points.append(v)
                self.colors.append(nb.color)
                self.owner.append(k)
            self.ranges.append(range(start, len(self.points)))

    @property
    def n(self) -> int:
        return len(self.neighborhoods)


@dataclass(frozen=True)
class StnbSolution:
    """A spanning tree over one representative vertex per neighborhood.

    Tree vertex k corresponds to the k-th neighborhood of the set;
    `representatives` maps each color to the chosen flattened vertex index.
    """

    representatives: dict[int, int]
    tree: Tree
    candidate: str
    length: float

    def representative_points(self, nbs: NeighborhoodSet) -> list[Point]:
        return [
            nbs.points[self.representatives[nb.color]] for nb in nbs.neighborhoods
        ]


def _stnb_solution(
    nbs: NeighborhoodSet, reps: Sequence[int], edges: Sequence[tuple[int, int]],
    candidate: str,
) -> StnbSolution:
    # the solution whose tree joins the neighborhoods' positions by `edges`,
    # reps[k] representing the k-th neighborhood
    tree = Tree(nbs.n, tuple(edges))
    points = [nbs.points[v] for v in reps]
    by_color = {nb.color: v for nb, v in zip(nbs.neighborhoods, reps)}
    return StnbSolution(by_color, tree, candidate, tree_length(tree, points))


@dataclass(frozen=True)
class StnbParams:
    """Derived constants of the 0.524 analysis, in the unit frame |ab| = 1.

    omega = 6*delta/sqrt(3) - 1, so that (sqrt(3)/2) * (omega + 1) = 3*delta
    exactly; the analysis ellipse has focal-sum omega + 2*delta.
    """

    delta: float
    omega: float
    ellipse_sum: float
    lens_radius: float
    wide_radius: float
    core_radius: float


DELTA_NEIGHBORHOOD = 0.524


def stnb_params() -> StnbParams:
    delta = DELTA_NEIGHBORHOOD
    omega = 6.0 * delta / math.sqrt(3.0) - 1.0
    return StnbParams(
        delta=delta,
        omega=omega,
        ellipse_sum=omega + 2.0 * delta,
        lens_radius=1.0,
        wide_radius=2.0 * delta,
        core_radius=delta,
    )


class StnbRegionLabel(NamedTuple):
    """Region memberships of one flattened vertex, lengths in units of |ab|."""

    in_L: bool
    in_L1: bool
    in_L2: bool
    in_Lprime: bool
    in_E: bool
    in_Q: bool


def stnb_label(da: float, db: float, params: StnbParams) -> StnbRegionLabel:
    """Regions of the 0.524 analysis holding a vertex at distances da from a
    and db from b, in units of |ab|: L = both <= 1, L1 = db <= 1 and
    da <= 2*delta, L2 likewise with a and b swapped, L' = both <= delta,
    E = focal sum <= omega + 2*delta, Q = (L1 or L2) minus E."""
    in_L1 = db <= 1.0 and da <= params.wide_radius
    in_L2 = da <= 1.0 and db <= params.wide_radius
    in_E = da + db <= params.ellipse_sum
    return StnbRegionLabel(
        in_L=da <= 1.0 and db <= 1.0,
        in_L1=in_L1,
        in_L2=in_L2,
        in_Lprime=da <= params.core_radius and db <= params.core_radius,
        in_E=in_E,
        in_Q=(in_L1 or in_L2) and not in_E,
    )


def _farthest_row(nbs: NeighborhoodSet, origin: Sequence[float]) -> tuple[list[float], list[int]]:
    # The distances |v origin|, as by dist, from origin to every vertex of
    # nbs, and the farthest vertex of each neighborhood, ties to the smallest
    # index.  The candidates' one distance kernel.
    ox, oy = origin[0], origin[1]
    row = [math.hypot(x - ox, y - oy) for x, y in nbs.points]
    return row, [r.start + (seg := row[r.start:r.stop]).index(max(seg)) for r in nbs.ranges]


def farthest_vertex_in(nbs: NeighborhoodSet, color: int, origin: Sequence[float]) -> int:
    """Flattened index of the vertex of the given neighborhood farthest from
    origin; ties break to the smallest index.  Raises ValueError when no
    neighborhood has the color."""
    return _farthest_row(nbs, origin)[1][nbs.owner[nbs.colors.index(color)]]


def _double_star(nbs: NeighborhoodSet, a: int, b: int, row_a, far_a, row_b, far_b) -> StnbSolution:
    # build_double_star from the rows of a and b
    ka, kb = nbs.owner[a], nbs.owner[b]
    if ka == kb:
        raise ValueError("double-star anchors must have different colors")
    reps, edges = list(far_a), [(ka, kb)]
    reps[ka], reps[kb] = a, b
    for k in range(nbs.n):
        if k != ka and k != kb:
            to_a = row_a[far_a[k]] >= row_b[far_b[k]]
            reps[k] = far_a[k] if to_a else far_b[k]
            edges.append((ka if to_a else kb, k))
    return _stnb_solution(nbs, reps, edges, "D")


def build_double_star(nbs: NeighborhoodSet, a: int, b: int) -> StnbSolution:
    """Double-star on the vertex pair (a, b): the edge ab plus, for every
    other neighborhood, the longer of (a, farthest-from-a) and
    (b, farthest-from-b); ties attach to a.

    Every non-ab edge has length at least |ab|/2 whenever (a, b) is a
    bichromatic diametral pair.
    """
    return _double_star(nbs, a, b, *_farthest_row(nbs, nbs.points[a]), *_farthest_row(nbs, nbs.points[b]))


def _star(nbs: NeighborhoodSet, center: int, far: list[int], candidate: str) -> StnbSolution:
    # longest_spanning_star_nb from the farthest vertices of center's row
    kc = nbs.owner[center]
    reps = list(far)
    reps[kc] = center
    return _stnb_solution(nbs, reps, [(kc, k) for k in range(nbs.n) if k != kc], candidate)


def longest_spanning_star_nb(nbs: NeighborhoodSet, center: int) -> StnbSolution:
    """Longest spanning star centered at a vertex: the center represents its
    own neighborhood and connects to the farthest vertex of every other."""
    return _star(nbs, center, _farthest_row(nbs, nbs.points[center])[1], "star")


def solve_stnb(nbs: NeighborhoodSet) -> SolveReport:
    """0.524-approximation for the longest spanning tree with neighborhoods.

    Finds a bichromatic diametral pair (a, b), builds the stars S1 (centered
    at the vertex of a's neighborhood farthest from a), S2 (likewise for b),
    S3 (centered at the vertex maximizing |av| + |bv|), and the double-star
    D, then reports the longest; ties keep the earliest candidate in the
    order S1, S2, S3, D.  Linear after the diametral pair, whose scan is
    near-linear on spread-out vertices and O(N^2) when all lie on a circle.
    The linear part builds one distance row per origin (a, b and the three
    centres) and sums a losing star without building its tree.  On
    spread-out input the scan is about 30% of a call and each row about
    10%; README's Scale section gives each phase's cost.
    Raises ValueError when (n - 1) * |ab| overflows a double.
    """
    a, b = bichromatic_diametral_pair(nbs.points, nbs.colors)
    pa, pb = nbs.points[a], nbs.points[b]
    ab = dist(pa, pb)
    _check_length_bound(nbs.n - 1, ab)

    rows_a, rows_b = _farthest_row(nbs, pa), _farthest_row(nbs, pb)
    sums = [da + db for da, db in zip(rows_a[0], rows_b[0])]
    centers = {
        "S1": rows_a[1][nbs.owner[a]],
        "S2": rows_b[1][nbs.owner[b]],
        "S3": sums.index(max(sums)),
    }
    lengths, rows = {}, {}
    for name, center in centers.items():
        # a star's length, its edges added in ascending position as by tree_length
        row, far = rows[name] = _farthest_row(nbs, nbs.points[center])
        kc = nbs.owner[center]
        total = 0.0
        for v in far[:kc] + far[kc + 1:]:
            total += row[v]
        lengths[name] = total
    double = _double_star(nbs, a, b, *rows_a, *rows_b)
    lengths["D"] = double.length
    name = max(lengths, key=lengths.get)  # the first of equal lengths
    winner = double if name == "D" else _star(nbs, centers[name], rows[name][1], name)

    upper = (nbs.n - 1) * ab
    return SolveReport(
        algorithm="stnb",
        candidate=winner.candidate,
        points=tuple(winner.representative_points(nbs)),
        tree=winner.tree,
        length=winner.length,
        upper_bound=upper,
        representatives=dict(winner.representatives),
        metrics={
            "ab_pair": [a, b],
            "ab_length": ab,
            "ratio_to_upper": winner.length / upper if upper > 0 else None,
            "candidate_lengths": lengths,
        },
    )


@dataclass(frozen=True)
class StnbRegionReport:
    """Per-vertex region memberships for the 0.524 analysis.

    Q is the part of L1 union L2 outside the analysis ellipse; m counts the
    neighborhoods lying entirely in the open core lens L'.  Consumed by
    property tests, not by the solver.
    """

    params: StnbParams
    a_index: int
    b_index: int
    labels: tuple[StnbRegionLabel, ...]
    m: int
    q_nonempty: bool


def stnb_region_report(nbs: NeighborhoodSet) -> StnbRegionReport:
    """Classify every flattened vertex against the lenses L, L1, L2, L' and
    the ellipse E of the bichromatic diametral pair (a, b), from its
    distances to a and b divided by |ab|."""
    a, b = bichromatic_diametral_pair(nbs.points, nbs.colors)
    pa, pb = nbs.points[a], nbs.points[b]
    ab = dist(pa, pb)
    if ab == 0.0:
        raise ValueError("coincident pair")
    params = stnb_params()
    unit = [(dist(p, pa) / ab, dist(p, pb) / ab) for p in nbs.points]
    labels = tuple(stnb_label(da, db, params) for da, db in unit)
    m = sum(
        all(unit[k][0] < params.core_radius and unit[k][1] < params.core_radius for k in r)
        for r in nbs.ranges
    )
    return StnbRegionReport(
        params=params,
        a_index=a,
        b_index=b,
        labels=labels,
        m=m,
        q_nonempty=any(lab.in_Q for lab in labels),
    )
