"""Longest noncrossing spanning tree: the 0.519-approximation.

The solver guesses the longest edge (a, b) of an optimal tree by trying all
point pairs.  Guess-independent candidates are the n spanning stars (plus a
monotone path when the input is collinear, where stars self-overlap); each
guess adds two anchored trees T_a and T_b built in three sweeps (far-strip
points to the anchor, near-strip points into angular wedges, middle-strip
points greedily to visible wedge endpoints).  Every builder makes a spanning
tree by construction, so is_noncrossing's exact crossing check validates
each candidate, and the reported tree is always a noncrossing spanning tree.
A solve checks every star in one loop and, in a second, a later candidate
(as raw edges) only when it is strictly longer than the best valid tree so
far, since no other can win.  An anchored tree works out per guess only
the frame, the strips, the angles and the sweeps; each point's distances
and offsets and each pair's segment come from one source per solve, and
a Tree is made only for a candidate that is checked.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import chain, repeat
from operator import add, mul, sub
from typing import Callable, NamedTuple, Sequence

from .geometry import (
    _check_length_bound, _dist_row, _farthest_pair, _first_crossing, _floats, _segment,
    as_points, orientation,
)
from .report import SolveReport
from .trees import Tree, is_noncrossing, star

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


def _rows(points: Sequence[Sequence[float]]) -> tuple[Callable, Callable, Callable]:
    # The one per-solve source of the strip split, the anchored trees and
    # solve_ncst's distance table, each part built once, on first use.
    # row(i): the distances |p_i p_k|, as by dist, so row(i)[k] == row(k)[i];
    # offsets(i): the coordinate offsets p_k - p_i, as two lists, taken by
    # a solve only for the points that root a tree; segment(i, j): the
    # segment p_i p_j, keyed by (min, max), since the crossing kernel's
    # exact verdict ignores endpoint order
    floats = _floats(points)
    xs, ys = [p[0] for p in points], [p[1] for p in points]

    @cache
    def row(i: int) -> list[float]:
        return _dist_row(points, points[i], floats)

    @cache
    def offsets(i: int) -> tuple[list[float], list[float]]:
        return list(map(sub, xs, repeat(xs[i]))), list(map(sub, ys, repeat(ys[i])))

    pair = cache(lambda i, j: _segment(points[i], points[j]))
    return row, offsets, lambda i, j: pair(i, j) if i < j else pair(j, i)


def _strip_split(
    points: Sequence[Sequence[float]], a: int, b: int, offsets: Callable[[int], tuple],
) -> tuple:
    """|ab|, every point's coordinates in the frame of the guess, measured
    from a (x along the unit vector from a to b, y across it), and the
    indices of the points in each strip, in index order: left for
    x < omega*|ab|, right for x > (1 - omega)*|ab|, middle between, the
    strip lines included.  offsets is the per-solve offset source (see
    _rows), and |ab| is dist's value.  Below _STRIP_MIN_AB the frame is
    that of the offsets from a scaled by a power of two, so that the strip
    lines stay apart.  The one check of a guess: raises ValueError when a
    or b is out of range or |ab| is 0.0, saying "coincide" only when the
    two points are equal by value."""
    for k in (a, b):
        if not 0 <= k < len(points):
            raise ValueError(f"guess index {k} out of range for {len(points)} points")
    dx, dy = offsets(a)
    ab = unit = math.hypot(dx[b], dy[b])
    if ab == 0.0:  # equal points, or distinct ones whose dist rounds to 0.0
        raise ValueError("guess points coincide" if points[a] == points[b]
                         else "guess points are too close to separate in doubles")
    if ab < _STRIP_MIN_AB:
        e = min(math.frexp(max(map(abs, chain(dx, dy))))[1], 0)
        dx, dy = [math.ldexp(c, -e) for c in dx], [math.ldexp(c, -e) for c in dy]
        unit = math.hypot(dx[b], dy[b])
    ux, uy = dx[b] / unit, dy[b] / unit
    l1, l2 = STRIP_OMEGA * unit, (1.0 - STRIP_OMEGA) * unit
    xs = list(map(add, map(mul, dx, repeat(ux)), map(mul, dy, repeat(uy))))
    ys = list(map(sub, map(mul, dy, repeat(ux)), map(mul, dx, repeat(uy))))
    strips = left, middle, right = [], [], []
    for k, x in enumerate(xs):
        (left if x < l1 else right if x > l2 else middle).append(k)
    return ab, xs, ys, strips


def classify_points(points: Sequence[Sequence[float]], a: int, b: int) -> RegionClassifier:
    """Label every point against the regions of the guess (a, b).

    Coordinates, taken through as_points, must be diameter-scaled (diameter
    1): the lens L uses disks of radius 1 around a and b.  Strip membership
    projects onto the ab direction; points on a strip line count as middle.
    """
    points = as_points(points)
    row, offsets, _ = _rows(points)
    ab, _, _, strips = _strip_split(points, a, b, offsets)
    params = ncst_params(ab)
    strip = {k: name for name, part in zip(("left", "middle", "right"), strips) for k in part}
    labels = tuple(
        ncst_label(da, db, strip[k], params)
        for k, (da, db) in enumerate(zip(row(a), row(b)))
    )
    n = len(points)
    alpha = sum(1 for lab in labels if lab.in_L and not lab.in_E2) / n
    beta = sum(1 for lab in labels if lab.in_M) / n
    beta_prime = len(strips[1]) / n
    return RegionClassifier(params, labels, alpha, beta, beta_prime)


@dataclass(frozen=True)
class NcstCandidate:
    """One candidate tree: a star, the collinear fallback path, or an
    anchored tree for a guess, with the verdict of its crossing check.
    _candidate makes each one it checks; a failed construction carries
    tree=None."""

    tree: Tree | None
    tag: str  # "star" | "path" | "Ta" | "Tb"
    guess: tuple[int, int] | None
    noncrossing: bool
    center: int | None = None


def _candidate(
    points: Sequence[Sequence[float]], tree: Tree | list[tuple[int, int]] | None, tag: str,
    guess: tuple[int, int] | None = None, center: int | None = None,
) -> NcstCandidate:
    # Builders span by construction, so is_noncrossing is the one check; a
    # failed construction or a zero-length edge (equal points) rejects.  The
    # path and an anchored tree come as raw edges, and their Tree is made here.
    if isinstance(tree, list):
        tree = Tree(len(points), tuple(tree))
    try:
        ok = tree is not None and is_noncrossing(tree, points)[0]
    except ValueError:
        ok = False
    return NcstCandidate(tree, tag, guess, ok, center)


def _anchored_tree(
    points: Sequence[Sequence[float]], root: int, far: int, row: Callable[[int], list[float]],
    offsets: Callable[[int], tuple], segment: Callable[[int, int], tuple],
) -> list[tuple[int, int]] | None:
    """The edges of the three-sweep construction anchored at `root` with
    mate `far`, or None.

    Sweep 1 connects every right-strip point (beyond the far strip line) to
    the root; these spokes, in angular order, partition the plane into
    wedges.  Sweep 2 sends each left-strip point to the spoke endpoint of
    its wedge (points on the axis count as below it).  Sweep 3 walks the
    middle-strip points in increasing angle and attaches each to the
    farthest visible wedge endpoint, falling back to the nearest visible
    tree vertex; an unattachable point aborts the construction.  Only the
    frame, the strips, the angles and the sweeps are worked out per guess:
    every distance (the sort keys of the spokes, of a middle point's wedge
    endpoints and of its fallback), the root's offsets and every segment
    come from the per-solve source row, offsets and segment (see _rows),
    which a solve shares across its trees.  The edges come back as built,
    unsorted, so that a caller makes a Tree only for a tree it checks.
    """
    _, xs, ys, (left, middle, right) = _strip_split(points, root, far, offsets)
    # Reached when |ab| is subnormal and a point lies 1/2 or more away:
    # _strip_split keeps the frame, and the strip lines round together.
    if far not in right:
        return None
    # the root, at x = 0, is left of the near strip line, or on it when the
    # strip lines round together
    (left if root in left else middle).remove(root)
    # every point's angle about the root from the direction of far, in [-pi, pi)
    theta = list(map(math.atan2, ys, xs))
    if math.pi in theta:
        theta = [-math.pi if th == math.pi else th for th in theta]

    dr = row(root)
    spokes = sorted(right, key=lambda k: (theta[k], dr[k]))
    # a list of floats for bisect_right to compare directly, since a key=
    # call per step measured slower on ncst-degenerate
    spoke_angles = [theta[k] for k in spokes]
    edges = [(root, k) for k in spokes]

    def wedge_index(phi: float) -> int:
        return max(bisect_right(spoke_angles, phi) - 1, 0)

    for k in left:  # each joins its own wedge's spoke, whatever the order
        edges.append((spokes[wedge_index(theta[k])], k))

    # built only for middle points, which two-cluster input lacks
    segs = [segment(i, j) for i, j in edges] if middle else []

    def visible(k: int, w: int) -> bool:
        s = segment(k, w)
        return s[0] != s[1] and _first_crossing(s, segs) < 0

    for k in sorted(middle, key=theta.__getitem__):
        dk = row(k)
        i = wedge_index(theta[k])
        cands = {spokes[i], root}
        if i + 1 < len(spokes) and theta[k] >= spoke_angles[0]:
            cands.add(spokes[i + 1])
        ordered = sorted(cands, key=lambda w: (-dk[w], w))
        target = next((w for w in ordered if visible(k, w)), None)
        if target is None:
            # every tree vertex: the root and the new end of each edge
            fallback = sorted([root, *(w for _, w in edges)], key=lambda w: (dk[w], w))
            target = next((w for w in fallback if visible(k, w)), None)
        if target is None:
            return None
        edges.append((target, k))
        segs.append(segment(target, k))
    return edges


def build_Ta(points: Sequence[Sequence[float]], a: int, b: int) -> NcstCandidate:
    """Anchored tree for guess (a, b) rooted at a, over as_points(points)."""
    pts = as_points(points)
    return _candidate(pts, _anchored_tree(pts, a, b, *_rows(pts)), "Ta", (a, b))


def build_Tb(points: Sequence[Sequence[float]], a: int, b: int) -> NcstCandidate:
    """Mirror construction rooted at b (same sweeps, reversed axis)."""
    pts = as_points(points)
    return _candidate(pts, _anchored_tree(pts, b, a, *_rows(pts)), "Tb", (a, b))


def _monotone_path(points: Sequence[Sequence[float]], iu: int, iv: int) -> list[tuple[int, int]]:
    pu, pv = points[iu], points[iv]
    ux, uy = pv[0] - pu[0], pv[1] - pu[1]
    proj = [(p[0] - pu[0]) * ux + (p[1] - pu[1]) * uy for p in points]
    order = sorted(range(len(points)), key=proj.__getitem__)  # stable: ties by index
    return list(zip(order, order[1:]))


def solve_ncst(points: Sequence[Sequence[float]], prune: bool = True) -> SolveReport:
    """0.519-approximation for the longest noncrossing spanning tree.

    Candidates: the n stars, a monotone path on collinear input (where
    stars self-overlap), and T_a and T_b per guess pair.  They span by
    construction, and is_noncrossing's exact crossing check discards the
    rest.  A first loop checks every star; a second takes the later
    candidates as raw edges and checks one only when its length is strictly
    greater than the best valid tree's so far: no other can win.
    Pruning skips guesses shorter than d * diameter, which the stars cover.
    Ties keep the earliest candidate in the order stars (by center), path,
    every T_a, then every T_b (each by lexicographic guess).  Each call
    works out every point pair once, from the per-solve source _rows: one
    table of n^2 distances for the guess filter, the lengths and the sort
    keys, and one segment per pair, on first use, for the anchored trees.
    A candidate's length is the math.fsum of its edges' table entries (a
    star's is its center's row), so an anchored tree's Tree is made only
    when the gate checks it.  Raises ValueError when (n - 1) * diameter
    overflows a double, or when no candidate is valid, naming the first
    pair of equal points if there is one.
    """
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points")
    pts = as_points(points)
    (iu, iv), diam, _ = _farthest_pair(pts, range(n))
    if diam == 0.0:
        raise ValueError("all points coincide" if len(set(pts)) == 1
                         else "all points are too close to separate in doubles")
    _check_length_bound(n - 1, diam)

    row, offsets, segment = _rows(pts)
    rows = list(map(row, range(n)))  # rows[i][j] is dist(pts[i], pts[j])
    threshold = ncst_params(1.0).d * diam * (1.0 - 1e-12)
    guesses = [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if (ab := rows[i][j]) != 0.0 and not (prune and ab < threshold)
    ]
    winner, winner_len = None, -1.0
    # every star is checked whatever its length; gating them too is a ROADMAP item
    for c in range(n):
        cand = _candidate(pts, star(pts, c), "star", center=c)
        if cand.noncrossing and (length := math.fsum(rows[c])) > winner_len:
            winner, winner_len = cand, length
    # iu and iv differ by value, since diam > 0
    collinear = all(orientation(pts[iu], pts[iv], p) == 0 for p in pts)
    later = chain(
        [(_monotone_path(pts, iu, iv), "path", None)] if collinear else [],
        ((_anchored_tree(pts, i, j, row, offsets, segment), "Ta", (i, j)) for i, j in guesses),
        ((_anchored_tree(pts, j, i, row, offsets, segment), "Tb", (i, j)) for i, j in guesses),
    )
    for edges, *kind in later:  # in tie order: only a strictly longer tree wins
        if edges is not None and (length := math.fsum(rows[i][j] for i, j in edges)) > winner_len:
            cand = _candidate(pts, edges, *kind)
            if cand.noncrossing:
                winner, winner_len = cand, length
    if winner is None:
        pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if pts[i] == pts[j]), None)
        where = f"; points {pair[0]} and {pair[1]} coincide" if pair else ""
        raise ValueError(f"no valid noncrossing candidate (degenerate input{where})")

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
