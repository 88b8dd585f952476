"""Longest spanning tree with neighborhoods: colored polygonal regions,
the 0.524-approximation (one double-star and three stars, built around a
bichromatic diametral pair), and the lens/ellipse region bookkeeping used
by its ratio analysis."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from operator import add, ge, index
from typing import Callable, Iterable, NamedTuple, Sequence

from .geometry import Point, _check_length_bound, _dist_row, _farthest_pair, _floats, as_points
from .report import SolveReport
from .trees import Tree, tree_length


@dataclass(frozen=True)
class Neighborhood:
    """One colored neighborhood: a union of polygons, kept as vertex rings.

    Single-vertex rings model point neighborhoods.  Only boundary vertices
    matter to the solvers: a farthest point inside a polygon is always
    attained at a vertex.  A NaN or infinite vertex coordinate raises
    ValueError naming the color and the vertex's index in its ring, and so
    does a color that is not an int (numpy's integers become Python ints)
    or has more digits than str() may write (sys.get_int_max_str_digits()).
    """

    color: int
    polygons: tuple[tuple[Point, ...], ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "color", index(self.color))
        except TypeError:
            raise ValueError(f"neighborhood color {self.color!r} is not an int") from None
        # 0: no limit (as before Python 3.10.7); 10**lim only past 3 bits a digit
        lim = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if lim and self.color.bit_length() > 3 * lim and abs(self.color) >= 10**lim:
            raise ValueError(f"neighborhood color over {lim} digits (sys.get_int_max_str_digits)")
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
    range ranges[owner[v]].  floats is whether every coordinate is a
    Python float; math.dist then builds the rows (see geometry._dist_row)."""

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
        # Neighborhood converts each ring alone; across rings, as_points
        # makes every float a Fraction when an int or Fraction needs it
        self.floats = _floats(self.points)
        if not self.floats:
            self.points = as_points(self.points)

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
    candidate: str, length: float | None = None,
) -> StnbSolution:
    # the solution whose tree joins the neighborhoods' positions by `edges`,
    # reps[k] representing the k-th one; length, when given, is tree_length's
    tree = Tree(nbs.n, tuple(edges))
    if length is None:
        length = tree_length(tree, [nbs.points[v] for v in reps])
    by_color = {nb.color: v for nb, v in zip(nbs.neighborhoods, reps)}
    return StnbSolution(by_color, tree, candidate, length)


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


def _rows(
    nbs: NeighborhoodSet, built: dict[int, list[float]] | None = None
) -> Callable[[int], tuple[list[float], list[float]]]:
    # row(v): the distances |u v|, as by dist, from vertex v to every
    # vertex u of nbs, and each neighborhood's largest one, built once per
    # v: the neighborhood layer's one row source.  built holds rows already
    # made, by vertex, such as the diametral scan's sweep rows.  When every
    # neighborhood has k vertices, the maxima are those of the k strided
    # slices taken position by position (the row itself when k = 1): the
    # max of the same floats, without a slice per neighborhood.
    built = built or {}
    sizes = set(map(len, nbs.ranges))
    k = sizes.pop() if len(sizes) == 1 else 0  # 0 when the sizes differ
    spans = [] if k else [slice(r.start, r.stop) for r in nbs.ranges]

    @cache
    def row(v: int) -> tuple[list[float], list[float]]:
        r = built.get(v) or _dist_row(nbs.points, nbs.points[v], nbs.floats)
        if k == 1:
            return r, r
        if k:
            return r, list(map(max, *(r[i::k] for i in range(k))))
        return r, list(map(max, map(r.__getitem__, spans)))

    return row


def farthest_vertex_in(nbs: NeighborhoodSet, color: int, origin: Sequence[float]) -> int:
    """Flattened index of the vertex of the given neighborhood farthest from
    origin; ties break to the smallest index.  Raises ValueError when no
    neighborhood has the color or origin has a NaN or infinite coordinate."""
    if color not in nbs.colors:
        raise ValueError(f"no neighborhood of the {nbs.n} has color {color}")
    r = nbs.ranges[nbs.owner[nbs.colors.index(color)]]
    try:
        (origin,) = as_points([origin])
    except ValueError as err:  # as_points calls the origin point 0
        raise ValueError(str(err).replace("point 0", "origin", 1)) from None
    part = nbs.points[r.start:r.stop]
    row = _dist_row(part, origin, _floats([*part, origin]))
    return r.start + row.index(max(row))


def _double_star(
    nbs: NeighborhoodSet, a: int, b: int, row
) -> tuple[float, list[int], list[tuple[int, int]]]:
    # build_double_star from the row source row (see _rows): its length,
    # summed from the rows as by tree_length, representatives and edges
    ka, kb = nbs.owner[a], nbs.owner[b]
    if ka == kb:
        raise ValueError("double-star anchors must have different colors")
    (row_a, top_a), (row_b, top_b) = row(a), row(b)
    to_a = list(map(ge, top_a, top_b))
    reps = [row_a.index(ta, r.start, r.stop) if t else row_b.index(tb, r.start, r.stop)
            for ta, tb, t, r in zip(top_a, top_b, to_a, nbs.ranges)]
    reps[ka], reps[kb] = a, b
    # every position but kb joins a hub: ka joins kb, the others a or b
    hubs = [ka if t else kb for t in to_a]
    lengths = [ta if t else tb for ta, tb, t in zip(top_a, top_b, to_a)]
    hubs[ka], lengths[ka], lengths[kb] = kb, row_a[b], 0.0  # kb joins no hub
    return math.fsum(lengths), reps, [(k, h) for k, h in enumerate(hubs) if k != kb]


def build_double_star(nbs: NeighborhoodSet, a: int, b: int) -> StnbSolution:
    """Double-star on the vertex pair (a, b): the edge ab plus, for every
    other neighborhood, the longer of (a, farthest-from-a) and
    (b, farthest-from-b); ties attach to a.

    Every non-ab edge has length at least |ab|/2 whenever (a, b) is a
    bichromatic diametral pair.  Raises ValueError for an index out of range.
    """
    for v in (a, b):
        if not 0 <= v < len(nbs.points):
            raise ValueError(f"vertex {v} out of range for {len(nbs.points)} vertices")
    length, reps, edges = _double_star(nbs, a, b, _rows(nbs))
    return _stnb_solution(nbs, reps, edges, "D", length)


def _star_length(top: list[float], kc: int) -> float:
    # the length, as by tree_length, of the star at position kc over top
    return math.fsum(top[:kc] + top[kc + 1:])


def _star(nbs: NeighborhoodSet, center: int, row, candidate: str) -> StnbSolution:
    # longest_spanning_star_nb from the row source row (see _rows); each
    # farthest vertex is the first index of its neighborhood's maximum
    kc = nbs.owner[center]
    far, top = row(center)
    reps = [far.index(m, r.start, r.stop) for m, r in zip(top, nbs.ranges)]
    reps[kc] = center
    edges = [(kc, k) for k in range(nbs.n) if k != kc]
    return _stnb_solution(nbs, reps, edges, candidate, _star_length(top, kc))


def longest_spanning_star_nb(nbs: NeighborhoodSet, center: int) -> StnbSolution:
    """Longest spanning star centered at a vertex: the center represents its
    own neighborhood and connects to the farthest vertex of every other."""
    if not 0 <= center < len(nbs.points):
        raise ValueError(f"center {center} out of range for {len(nbs.points)} vertices")
    return _star(nbs, center, _rows(nbs), "star")


def solve_stnb(nbs: NeighborhoodSet) -> SolveReport:
    """0.524-approximation for the longest spanning tree with neighborhoods.

    Finds a bichromatic diametral pair (a, b), builds the stars S1 (centered
    at the vertex of a's neighborhood farthest from a), S2 (likewise for b),
    S3 (centered at the vertex maximizing |av| + |bv|), and the double-star
    D, then reports the longest; ties keep the earliest candidate in the
    order S1, S2, S3, D.  Linear after the diametral pair, whose scan is
    near-linear on spread-out vertices and O(N^2) when all lie on a circle.
    The linear part needs the distance rows of a, b and the three centres,
    in C when every coordinate is a float, and sums each candidate's length
    from them; only the winner's tree is built.  The set holds its float
    test and hands it to the scan, and the scan hands over only the rows
    of its two sweep origins, so a call builds 6 rows, the scan's three
    included, when (a, b) is the sweep pair, as on most spread-out input,
    and 8 when no origin of the call is a sweep origin, as on a circle.
    On spread-out float input the scan, with no type pass, is about a
    third of a call, and each row built afresh, with its neighborhoods'
    maxima (strided when their sizes are equal), about 10%; README's
    Scale section gives each phase's cost.
    Raises ValueError when (n - 1) * |ab| overflows a double.
    """
    (a, b), ab, sweeps = _farthest_pair(nbs.points, nbs.colors, nbs.floats)  # a set has two colors
    _check_length_bound(nbs.n - 1, ab)

    row = _rows(nbs, sweeps)
    (row_a, top_a), (row_b, top_b) = row(a), row(b)
    ka, kb = nbs.owner[a], nbs.owner[b]
    ra, rb = nbs.ranges[ka], nbs.ranges[kb]
    sums = list(map(add, row_a, row_b))
    centers = {
        "S1": row_a.index(top_a[ka], ra.start, ra.stop),
        "S2": row_b.index(top_b[kb], rb.start, rb.stop),
        "S3": sums.index(max(sums)),
    }
    lengths = {name: _star_length(row(v)[1], nbs.owner[v]) for name, v in centers.items()}
    lengths["D"], reps, edges = _double_star(nbs, a, b, row)
    name = max(lengths, key=lengths.get)  # the first of equal lengths
    if name == "D":
        winner = _stnb_solution(nbs, reps, edges, "D", lengths["D"])
    else:
        winner = _star(nbs, centers[name], row, name)

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
    (a, b), ab, sweeps = _farthest_pair(nbs.points, nbs.colors, nbs.floats)
    if ab == 0.0:
        raise ValueError("coincident pair")
    params = stnb_params()
    row = _rows(nbs, sweeps)
    unit = [(da / ab, db / ab) for da, db in zip(row(a)[0], row(b)[0])]
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
