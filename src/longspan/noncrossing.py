"""Longest noncrossing spanning tree: the 0.519-approximation.

The solver guesses the longest edge (a, b) of an optimal tree by trying all
point pairs.  Guess-independent candidates are the n spanning stars (plus a
monotone path when the input is collinear, where stars self-overlap); each
guess adds two anchored trees T_a and T_b built in three sweeps (far-strip
points to the anchor, near-strip points into angular wedges, middle-strip
points greedily to visible wedge endpoints).  Every builder makes a spanning
tree by construction, so one exact crossing check per edge pair validates
each candidate, and the reported tree is always a noncrossing spanning tree:
is_noncrossing's scan for stars and the path; for an anchored tree, the
middle sweep's visibility probes for every pair with a middle edge and a
crossing scan over the edges placed before it for the rest.  The candidates
repeat (on two-cluster input 200 anchored trees hold about 18 distinct
ones), so a solve checks each distinct candidate tree once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, NamedTuple, Sequence

from .geometry import (
    _check_length_bound, _dist_row, _farthest_pair, _first_crossing, _floats, as_points, dist,
    orientation,
)
from .report import SolveReport
from .trees import Tree, _crossing_scan, _shared_segments, is_noncrossing, star

DELTA_NONCROSSING = 0.519
STRIP_OMEGA = 0.16
BETA_HAT = 0.44
# Below this |ab|, omega*|ab| and (1 - omega)*|ab| can round to the same
# subnormal, and the projections that decide a strip lose their low bits.
# _strip_split then works on the offsets from a scaled up by a power of
# two, which is exact, until the largest lies in [1/2, 1).  Above it the
# strip lines, at least omega*|ab| > 2^-963, and the projections near them
# are normal doubles, and the points' own frame is kept.
_STRIP_MIN_AB = 2.0**-960


@dataclass(frozen=True)
class NcstParams:
    """Derived constants of the 0.519 analysis for a given guess length.

    All lengths live in the diameter-scaled frame (diam = 1, so
    d <= ab_len <= 1 for unpruned guesses, d = 1/(2*delta)).  lam is the
    focal sum of the outer analysis ellipse E1, gamma of the inner one E2.
    """

    delta: float
    d: float
    omega: float
    beta_hat: float
    alpha_hat: float
    ab_len: float
    lam: float
    gamma: float


def ncst_params(ab_len: float) -> NcstParams:
    delta = DELTA_NONCROSSING
    if not 0.0 < ab_len <= 1.0 + 1e-9:
        raise ValueError(f"ab_len {ab_len} outside (0, 1]")
    omega = STRIP_OMEGA
    beta_hat = BETA_HAT
    alpha_hat = (2.0 * delta + 3.0 * omega - 2.0) / (omega - 1.0) - beta_hat
    return NcstParams(
        delta=delta,
        d=1.0 / (2.0 * delta),
        omega=omega,
        beta_hat=beta_hat,
        alpha_hat=alpha_hat,
        ab_len=ab_len,
        lam=6.0 * delta / math.sqrt(3.0) + 1.0 - ab_len,
        gamma=(2.0 * delta + alpha_hat - 1.0) * ab_len / alpha_hat,
    )


class PointLabel(NamedTuple):
    """Region memberships of one point relative to a guess (a, b)."""

    in_L: bool
    in_E1: bool
    in_E2: bool
    in_Lprime: bool
    in_Q: bool
    strip: str  # "left" | "middle" | "right"
    in_M: bool


@dataclass(frozen=True)
class RegionClassifier:
    """Point labels and the fractions alpha (in L outside E2) and beta (in
    the middle-strip region M = L intersect E2 between the strip lines).

    beta_prime is the fraction of points in the middle strip regardless of
    E2; it never exceeds alpha + beta.
    """

    params: NcstParams
    labels: tuple[PointLabel, ...]
    alpha: float
    beta: float
    beta_prime: float


def ncst_label(da: float, db: float, strip: str, params: NcstParams) -> PointLabel:
    """Regions of the guess (a, b) holding a point at distances da from a and
    db from b, in the given strip (diameter-scaled lengths): L = both
    distances <= 1, E1/E2 = focal sum <= lam/gamma, L' = both <= |ab|,
    Q = L minus E1, M = L and E2 in the middle strip."""
    in_L = da <= 1.0 and db <= 1.0
    in_E1 = da + db <= params.lam
    in_E2 = da + db <= params.gamma
    return PointLabel(
        in_L=in_L,
        in_E1=in_E1,
        in_E2=in_E2,
        in_Lprime=da <= params.ab_len and db <= params.ab_len,
        in_Q=in_L and not in_E1,
        strip=strip,
        in_M=in_L and in_E2 and strip == "middle",
    )


def _strip_split(points: Sequence[Sequence[float]], a: int, b: int) -> tuple:
    """|ab|, every point's coordinates in the frame of the guess, measured
    from a (x along the unit vector from a to b, y across it), and its
    strip: "left" for x < omega*|ab|, "right" for x > (1 - omega)*|ab|,
    "middle" between, the strip lines included.  Below _STRIP_MIN_AB the
    frame is that of the offsets from a scaled by a power of two, so that
    the strip lines stay apart.  The one check of a guess: raises
    ValueError when a or b is out of range or the two points coincide."""
    for k in (a, b):
        if not 0 <= k < len(points):
            raise ValueError(f"guess index {k} out of range for {len(points)} points")
    pa, pb = points[a], points[b]
    ab = unit = dist(pa, pb)
    if ab == 0.0:
        raise ValueError("guess points coincide")
    if ab < _STRIP_MIN_AB:
        off = [(p[0] - pa[0], p[1] - pa[1]) for p in points]
        e = min(math.frexp(max(abs(c) for o in off for c in o))[1], 0)
        points = [(math.ldexp(dx, -e), math.ldexp(dy, -e)) for dx, dy in off]
        pa, pb = points[a], points[b]
        unit = dist(pa, pb)
    ux, uy = (pb[0] - pa[0]) / unit, (pb[1] - pa[1]) / unit
    l1, l2 = STRIP_OMEGA * unit, (1.0 - STRIP_OMEGA) * unit
    xs = [(p[0] - pa[0]) * ux + (p[1] - pa[1]) * uy for p in points]
    ys = [-(p[0] - pa[0]) * uy + (p[1] - pa[1]) * ux for p in points]
    strips = ["left" if x < l1 else ("right" if x > l2 else "middle") for x in xs]
    return ab, xs, ys, strips


def classify_points(points: Sequence[Sequence[float]], a: int, b: int) -> RegionClassifier:
    """Label every point against the regions of the guess (a, b).

    Coordinates, taken through as_points, must be diameter-scaled (diameter
    1): the lens L uses disks of radius 1 around a and b.  Strip membership
    projects onto the ab direction; points on a strip line count as middle.
    """
    points = as_points(points)
    ab, _, _, strips = _strip_split(points, a, b)
    params = ncst_params(ab)
    pa, pb = points[a], points[b]
    labels = tuple(
        ncst_label(dist(p, pa), dist(p, pb), strip, params)
        for p, strip in zip(points, strips)
    )
    n = len(points)
    alpha = sum(1 for lab in labels if lab.in_L and not lab.in_E2) / n
    beta = sum(1 for lab in labels if lab.in_M) / n
    beta_prime = sum(1 for lab in labels if lab.strip == "middle") / n
    return RegionClassifier(params, labels, alpha, beta, beta_prime)


@dataclass(frozen=True)
class NcstCandidate:
    """One candidate tree: a star, the collinear fallback path, or an
    anchored tree for a guess, with the verdict of its crossing scan.
    _candidate makes every one; a failed construction carries tree=None."""

    tree: Tree | None
    tag: str  # "star" | "path" | "Ta" | "Tb"
    guess: tuple[int, int] | None
    noncrossing: bool
    center: int | None = None


def _candidate(
    points: Sequence[Sequence[float]], verdicts: dict, tree: Tree | None, scan: tuple | None,
    tag: str, guess: tuple[int, int] | None = None, center: int | None = None,
) -> NcstCandidate:
    # Builders span by construction, so crossings are the one check:
    # is_noncrossing's scan, or the scan an anchored tree leaves.  A failed
    # construction or a zero-length edge (equal points) rejects.  The exact
    # kernel ignores endpoint order, so a verdict depends only on the points
    # and the edge set, which Tree sorts: verdicts maps tree.edges to it,
    # and a solve shares one dict, checking each distinct tree once.
    if tree is None:
        return NcstCandidate(None, tag, guess, False, center)
    if (ok := verdicts.get(tree.edges)) is None:
        try:
            ok = (_crossing_scan(*scan) if scan else is_noncrossing(tree, points))[0]
        except ValueError:
            ok = False
        verdicts[tree.edges] = ok
    return NcstCandidate(tree, tag, guess, ok, center)


def _anchored_tree(
    points: Sequence[Sequence[float]], root: int, far: int, segment: Callable[[int, int], tuple],
) -> tuple[Tree | None, tuple | None]:
    """Three-sweep construction anchored at `root` with mate `far`: the
    tree, or None, and the _crossing_scan arguments it leaves.

    Sweep 1 connects every right-strip point (beyond the far strip line) to
    the root; these spokes, in angular order, partition the plane into
    wedges.  Sweep 2 sends each left-strip point to the spoke endpoint of
    its wedge (points on the axis count as below it).  Sweep 3 walks the
    middle-strip points in increasing angle and attaches each to the
    farthest visible wedge endpoint, falling back to the nearest visible
    tree vertex; an unattachable point aborts the construction.  Its
    visibility probes decide every edge pair with a middle edge, so the
    scan left covers the edges placed before sweep 3, the whole tree when
    no point is in the middle strip.  Every segment comes from
    segment(i, j), which a solve shares across trees.
    """
    _, xs, ys, strips = _strip_split(points, root, far)
    # every point's angle about the root from the direction of far, in [-pi, pi)
    theta = [-math.pi if th == math.pi else th for th in map(math.atan2, ys, xs)]

    # each strip's points in index order, so stable sorts break ties by index
    left, middle, right = (
        [k for k, s in enumerate(strips) if s == name and k != root]
        for name in ("left", "middle", "right")
    )
    # Reached when |ab| is subnormal and a point lies 1/2 or more away:
    # _strip_split keeps the frame, and the strip lines round together.
    if far not in right:
        return None, None

    spokes = sorted(right, key=lambda k: (theta[k], dist(points[root], points[k])))
    spoke_angles = [theta[k] for k in spokes]
    edges = [(root, k) for k in spokes]
    attached = [root] + spokes

    def wedge_index(phi: float) -> int:
        return max(bisect_right(spoke_angles, phi) - 1, 0)

    for k in sorted(left, key=theta.__getitem__):
        edges.append((spokes[wedge_index(theta[k])], k))
        attached.append(k)

    # No edge joins coincident points (spokes and left-strip edges join two
    # strips, and visible() checks the rest), so the scan cannot raise.
    scan = edges[:], segment
    # built only for middle points, which two-cluster input lacks
    segs = [segment(i, j) for i, j in edges] if middle else []

    def visible(k: int, w: int) -> bool:
        s = segment(k, w)
        return s[0] != s[1] and _first_crossing(s, segs) < 0

    for k in sorted(middle, key=theta.__getitem__):
        p = points[k]
        i = wedge_index(theta[k])
        cands = {spokes[i], root}
        if i + 1 < len(spokes) and theta[k] >= spoke_angles[0]:
            cands.add(spokes[i + 1])
        ordered = sorted(cands, key=lambda w: (-dist(p, points[w]), w))
        target = next((w for w in ordered if visible(k, w)), None)
        if target is None:
            fallback = sorted(attached, key=lambda w: (dist(p, points[w]), w))
            target = next((w for w in fallback if visible(k, w)), None)
        if target is None:
            return None, None
        edges.append((target, k))
        segs.append(segment(target, k))
        attached.append(k)
    return Tree(len(points), tuple(edges)), scan


def build_Ta(points: Sequence[Sequence[float]], a: int, b: int) -> NcstCandidate:
    """Anchored tree for guess (a, b) rooted at a, over as_points(points)."""
    seg = _shared_segments(pts := as_points(points))
    return _candidate(pts, {}, *_anchored_tree(pts, a, b, seg), "Ta", (a, b))


def build_Tb(points: Sequence[Sequence[float]], a: int, b: int) -> NcstCandidate:
    """Mirror construction rooted at b (same sweeps, reversed axis)."""
    seg = _shared_segments(pts := as_points(points))
    return _candidate(pts, {}, *_anchored_tree(pts, b, a, seg), "Tb", (a, b))


def _monotone_path(points: Sequence[Sequence[float]], iu: int, iv: int) -> Tree:
    pu, pv = points[iu], points[iv]
    ux, uy = pv[0] - pu[0], pv[1] - pu[1]
    proj = [(p[0] - pu[0]) * ux + (p[1] - pu[1]) * uy for p in points]
    order = sorted(range(len(points)), key=proj.__getitem__)  # stable: ties by index
    return Tree(len(points), tuple(zip(order, order[1:])))


def solve_ncst(points: Sequence[Sequence[float]], prune: bool = True) -> SolveReport:
    """0.519-approximation for the longest noncrossing spanning tree.

    Candidates: the n stars, a monotone path on collinear input (where
    stars self-overlap), and T_a and T_b per guess pair.  They span by
    construction, and one exact crossing check per edge pair discards the
    rest: is_noncrossing's scan for stars and the path, and for an
    anchored tree its middle sweep's visibility probes and a scan of the
    edges placed before that sweep.
    Pruning skips guesses shorter than d * diameter, which the stars cover.
    Ties keep the earliest candidate in the order stars (by center), path,
    every T_a, then every T_b (each by lexicographic guess).  Each call
    works out every point pair once: one table of n^2 distances for the
    guess filter and the lengths, and one segment per pair, on first use,
    for all the anchored trees.  It also checks each distinct candidate tree
    once: one dict maps each tree's sorted edges to its verdict, so an
    anchored tree equal to a star, or to an earlier anchored tree, takes
    that verdict.  The dict holds one edge tuple per distinct tree the call
    builds, n - 1 pairs each, and lives for the call.  Raises ValueError
    when (n - 1) * diameter overflows a double.
    """
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points")
    pts = as_points(points)
    floats = _floats(pts)
    (iu, iv), diam, _ = _farthest_pair(pts, range(n), floats)
    if diam == 0.0:
        raise ValueError("all points coincide")
    _check_length_bound(n - 1, diam)

    rows = [_dist_row(pts, p, floats) for p in pts]  # rows[i][j] is dist(pts[i], pts[j])
    threshold = ncst_params(1.0).d * diam * (1.0 - 1e-12)
    guesses = [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if (ab := rows[i][j]) != 0.0 and not (prune and ab < threshold)
    ]
    # iu and iv differ by value, since diam > 0
    collinear = all(orientation(pts[iu], pts[iv], p) == 0 for p in pts)
    seg = _shared_segments(pts)  # one per point pair for every anchored tree
    candidate = partial(_candidate, pts, {})  # one verdict per distinct tree
    candidates = chain(
        (candidate(star(pts, c), None, "star", center=c) for c in range(n)),
        [candidate(_monotone_path(pts, iu, iv), None, "path")] if collinear else [],
        (candidate(*_anchored_tree(pts, i, j, seg), "Ta", (i, j)) for i, j in guesses),
        (candidate(*_anchored_tree(pts, j, i, seg), "Tb", (i, j)) for i, j in guesses),
    )
    winner, winner_len = None, -1.0
    for cand in candidates:  # in tie order: only a strictly longer tree wins
        if cand.noncrossing:
            length = math.fsum(rows[i][j] for i, j in cand.tree.edges)  # as tree_length
            if length > winner_len:
                winner, winner_len = cand, length
    if winner is None:
        raise ValueError("no valid noncrossing candidate (degenerate input)")

    upper = (n - 1) * diam
    metrics = {
        "diameter": diam,
        "diametral_pair": [iu, iv],
        "guesses_tried": len(guesses),
        "pruned": prune,
        "ratio_to_upper": winner_len / upper,
    }
    if winner.center is not None:
        metrics["center"] = winner.center
    return SolveReport(
        algorithm="ncst",
        candidate=winner.tag,
        points=tuple(pts),
        tree=winner.tree,
        length=winner_len,
        upper_bound=upper,
        guess=winner.guess,
        metrics=metrics,
    )
