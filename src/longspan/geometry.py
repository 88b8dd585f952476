"""Planar primitives: distances, exact orientation, segment crossing and
diametral pairs.

Everything here is a pure function; no shared mutable state.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from itertools import repeat
from numbers import Integral, Rational, Real
from typing import Iterable, NamedTuple, Sequence

LEFT = 1
RIGHT = -1
COLLINEAR = 0

# Static filter bound for the 2x2 orientation determinant evaluated in
# doubles (Shewchuk's errbound A).  |det| above this bound guarantees the
# floating-point sign is correct; below it we fall back to exact integers.
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53

# Shewchuk's bound assumes no product underflows, so the filter is trusted
# only when detsum is at least this large.  Then _ORIENT_ERRBOUND * detsum
# (>= 2^-1011) is a normal double and carries only relative rounding error,
# and a product that is subnormal (< 2^-1022, absolute error <= 2^-1075) is
# below 2^-62 of detsum: the other product is normal and dominates, so det
# has that product's sign, which the filter reports.  Smaller detsums,
# including products that underflowed to zero, take the exact path.
_ORIENT_MIN_DETSUM = 2.0 ** -960


class Point(NamedTuple):
    x: float
    y: float


def as_points(points: Iterable[Sequence[float]]) -> list[Point]:
    """The input as a list of Points, reusing input Points of two Python floats.

    Integer scalars such as numpy's become Python ints, whose products
    cannot wrap, and other floats such as numpy float32 and float64 become
    Python floats, exactly; Fractions stay as they are.  When a float meets
    an int or Fraction that no double holds, every float becomes the
    Fraction of its exact value, so that every coordinate difference is
    exact: Python would round the int or Fraction to a double before
    subtracting.  Raises ValueError naming the first point with a NaN or
    infinite coordinate, or an int beyond the double range: the predicates
    are exact only on finite doubles.
    """
    pts = []
    floats = inexact = False
    try:
        for k, p in enumerate(points):
            keep = isinstance(p, Point) and type(p.x) is type(p.y) is float
            pts.append(p if keep else Point(_scalar(p[0]), _scalar(p[1])))
            x, y = pts[-1]
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"point {k} has a non-finite coordinate ({x!r}, {y!r})")
            if type(x) is float and type(y) is float:
                floats = True
                continue
            for c in (x, y):
                if isinstance(c, float):
                    floats = True
                elif float(c) != c:
                    inexact = True
    except OverflowError:  # an int beyond the double range
        raise ValueError(f"point {k} has a coordinate beyond the double range") from None
    if floats and inexact:
        pts = [Point(*(Fraction(c) if isinstance(c, float) else c for c in p)) for p in pts]
    return pts


def _scalar(c: float) -> float:
    if isinstance(c, Integral):
        return operator.index(c)
    if isinstance(c, Real) and not isinstance(c, Rational) and float(c) == c:
        return float(c)
    return c


def dist(p: Sequence[float], q: Sequence[float]) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _dist_row(
    points: Sequence[Sequence[float]], origin: Sequence[float], floats: bool
) -> list[float]:
    # dist(p, origin) for every point p.  When every coordinate of the points
    # and of origin is a Python float, math.dist builds the row in C: on
    # doubles it takes the same absolute differences through the same norm
    # as math.hypot, so each distance is bit-identical.  Other input keeps
    # hypot of the differences: an int or Fraction difference is exact
    # before hypot rounds it, while math.dist would round each coordinate.
    if floats:
        return list(map(math.dist, points, repeat(origin)))
    ox, oy = origin[0], origin[1]
    return [math.hypot(x - ox, y - oy) for x, y in points]


def orientation(p: Sequence[float], q: Sequence[float], r: Sequence[float]) -> int:
    """Sign of the signed area of triangle (p, q, r).

    Returns LEFT (+1) when r lies left of the directed line p->q, RIGHT (-1)
    when it lies right, COLLINEAR (0) otherwise.  The sign is exact for all
    finite coordinates, subnormal and huge ones included, so the crossing
    tests built on top are combinatorially reliable:

    - a floating-point filter decides when the determinant is clear of its
      rounding error and its products are clear of the underflow range;
    - everything else is decided in exact integer arithmetic.

    Coordinates must be finite; the public solvers reject NaN and infinities
    at their entry points.  Raw numpy int64 or float32 coordinates must go
    through as_points first: the float filter would multiply them in 64-bit
    integers, which wrap past about 2^31.5, or in single precision.  So
    must a float mixed with an int or Fraction that no double holds: Python
    would round the int or Fraction before subtracting, and the filter
    could trust a wrong sign; as_points makes such floats Fractions.
    """
    qx, qy = q[0] - p[0], q[1] - p[1]
    rx, ry = r[0] - p[0], r[1] - p[1]
    detleft = qx * ry
    detright = qy * rx
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    try:
        if abs(det) > _ORIENT_ERRBOUND * detsum and detsum >= _ORIENT_MIN_DETSUM:
            return LEFT if det > 0.0 else RIGHT
    except OverflowError:  # an int or Fraction detsum beyond the double range
        pass
    px, py, qx, qy, rx, ry = _common_integers((p[0], p[1], q[0], q[1], r[0], r[1]))
    exact = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    if exact > 0:
        return LEFT
    if exact < 0:
        return RIGHT
    return COLLINEAR


def _common_integers(coords: Sequence[float]) -> list[int]:
    # Each coordinate is num/den; scaling all by their common denominator
    # keeps every determinant's sign.  Inlined, the comprehension would make
    # den a closure cell of orientation, a cost on every call.
    ratios = []
    for c in coords:
        try:
            ratios.append(c.as_integer_ratio())
        except AttributeError:  # integer scalars without it, such as numpy's
            ratios.append((operator.index(c), 1))
    den = math.lcm(*(d for _, d in ratios))
    return [num * (den // d) for num, d in ratios]


def segments_cross(s1: Sequence, s2: Sequence) -> bool:
    """Whether two segments cross.

    A crossing is an intersection at a point interior to at least one of the
    two segments.  Meeting at a shared endpoint does not count; a collinear
    overlap of positive length does.  Symmetric in its arguments and in each
    segment's endpoint order.  The one-pair case of the filtered kernel that
    validates trees, so every crossing decision of the library is this one.
    Its endpoints go through as_points together, so numpy or mixed input is exact.

    Raises ValueError for zero-length segments and non-finite coordinates.
    """
    a, b, c, d = as_points((*s1, *s2))
    s, t = _segment(a, b), _segment(c, d)
    if s[0] == s[1] or t[0] == t[1]:
        raise ValueError("degenerate segment")
    return _first_crossing(s, (t,)) == 0


def _segment(p: Sequence[float], q: Sequence[float]) -> tuple:
    # Segment pq in the form _first_crossing takes: the endpoints as tuples,
    # then the closed bounding box (min x, max x, min y, max y).
    p, q = tuple(p), tuple(q)
    return p, q, min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1])


def _first_crossing(s: tuple, segs: Sequence[tuple], start: int = 0) -> int:
    # The first position m >= start whose segment in segs crosses s, or -1;
    # all in _segment's form, none of length zero: the library's one
    # crossing rule, with segments_cross its one-pair case.  Each sign is
    # first orientation's float filter inline, whose bound holds for any
    # base vertex, so a sure sign is exact.  On sure signs, disjoint boxes,
    # or c and d strictly on one side of line ab (a and b of cd), do not
    # meet; a straddle both ways crosses; far ends off one line through a
    # shared endpoint (by value) do not cross.  The rest take exact signs.
    a, b, x0, x1, y0, y1 = s
    (ax, ay), (bx, by) = a, b
    abx, aby = bx - ax, by - ay
    err, tiny = _ORIENT_ERRBOUND, _ORIENT_MIN_DETSUM
    for m in range(start, len(segs)):
        c, d, u0, u1, v0, v1 = segs[m]
        if not (u0 <= x1 and x0 <= u1 and v0 <= y1 and y0 <= v1):
            continue
        (cx, cy), (dx, dy) = c, d
        far = (d if cx == ax and cy == ay or cx == bx and cy == by
               else c if dx == ax and dy == ay or dx == bx and dy == by else None)
        try:
            if far is not None:
                left, right = abx * (far[1] - ay), aby * (far[0] - ax)
                o, so = left - right, abs(left) + abs(right)
                if abs(o) > err * so and so >= tiny:
                    continue
            else:
                left, right = abx * (cy - ay), aby * (cx - ax)
                oc, sc = left - right, abs(left) + abs(right)
                left, right = abx * (dy - ay), aby * (dx - ax)
                od, sd = left - right, abs(left) + abs(right)
                if abs(oc) > err * sc and sc >= tiny and abs(od) > err * sd and sd >= tiny:
                    if (oc > 0) == (od > 0):
                        continue
                    cdx, cdy = dx - cx, dy - cy
                    left, right = cdx * (ay - cy), cdy * (ax - cx)
                    oa, sa = left - right, abs(left) + abs(right)
                    left, right = cdx * (by - cy), cdy * (bx - cx)
                    ob, sb = left - right, abs(left) + abs(right)
                    if abs(oa) > err * sa and sa >= tiny and abs(ob) > err * sb and sb >= tiny:
                        if (oa > 0) != (ob > 0):
                            return m
                        continue
        except OverflowError:  # an int or Fraction detsum beyond the double range
            pass
        if far is None:
            d1, d2 = orientation(c, d, a), orientation(c, d, b)
            d3, d4 = orientation(a, b, c), orientation(a, b, d)
            if d1 * d2 < 0 and d3 * d4 < 0:
                return m  # a proper crossing, interior to both
            if d1 or d2:
                # Non-collinear lines meet at most once, and no endpoint is
                # shared, so any other contact is an endpoint of one segment
                # inside the other.
                if (d1 == 0 and u0 <= ax <= u1 and v0 <= ay <= v1
                        or d2 == 0 and u0 <= bx <= u1 and v0 <= by <= v1
                        or d3 == 0 and x0 <= cx <= x1 and y0 <= cy <= y1
                        or d4 == 0 and x0 <= dx <= x1 and y0 <= dy <= y1):
                    return m
                continue
        elif orientation(a, b, far) != COLLINEAR:
            continue
        # Both segments lie on one line, so they cross when they overlap with
        # positive length (two that share an endpoint, when they lie on one
        # side of it).  A line with |dx| >= |dy| is x-monotone, so comparing
        # along the dominant axis is exact.
        if (max(x0, u0) < min(x1, u1) if abs(abx) >= abs(aby)
                else max(y0, v0) < min(y1, v1)):
            return m
    return -1


def _bounding_box(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float, float]:
    # (min x, max x, min y, max y) of finite coordinates.  Raises ValueError
    # when an axis's extent or the box's diagonal overflows a double, since
    # then a distance between two of the points can be infinite.
    box = min(xs), max(xs), min(ys), max(ys)
    extents = []
    for axis, lo, hi in (("x", box[0], box[1]), ("y", box[2], box[3])):
        try:
            extent = float(hi - lo)
        except OverflowError:  # an exact int or Fraction difference
            extent = math.inf
        if extent == math.inf:
            raise ValueError(f"the {axis} extent of the points overflows a double")
        extents.append(extent)
    if math.hypot(*extents) == math.inf:
        raise ValueError("the diagonal of the points' x and y extents overflows a double")
    return box


def _check_length_bound(edges: int, longest: float) -> None:
    # Raises ValueError unless any `edges` lengths of at most `longest` add
    # up to a finite double: adding them one by one rounds up by at most
    # about (edges - 1) * 2^-53 relative, and the slack is over twice that.
    if edges * longest * (1.0 + edges * 2.0**-52) == math.inf:
        raise ValueError(f"the tree length bound {edges} * {longest!r} overflows a double")


def _farthest_pair(
    points: Sequence[Sequence[float]], colors: Sequence[int], floats: bool | None = None
) -> tuple[tuple[int, int] | None, float, dict[int, list[float]]]:
    # The first pair in index order, of two colors, with the largest dist,
    # or None when there is none; that dist, or -1.0 without a pair; and
    # the unmasked distance row of each origin of the two farthest-point
    # sweeps, by index, so that a caller needing those rows does not build
    # them again.  The points are as_points output or a NeighborhoodSet's,
    # so their coordinates are finite Python scalars with exact differences.
    # floats is whether every coordinate is a Python float (see _dist_row):
    # a set passes the verdict it holds, and point lists leave the scan to
    # read it off the coordinate columns.
    # Only points that can end such a pair enter the quadratic scan.  For
    # r_k = |p_k g| and R = max r_k, the triangle inequality gives
    # |p_i p_j| <= r_i + R, so a pair whose dist reaches the dist L of some
    # pair of two colors has r_i + R >= L and r_j + R >= L, up to rounding.
    # A coordinate difference, in dist or against g, is off by at most
    # 2^-51 times the largest magnitude M of a coordinate on its axis: ints
    # and Fractions are rounded to doubles before they meet the float g, and
    # the subtraction rounds.  Hypot and the sum add relative errors of a
    # few 2^-53 and, for subnormal results, 2^-1074 per hypot.  The slack,
    # 2^-40 relative, 2^-45 (Mx + My) and 2^-1060 absolute, covers that
    # many times over.  A dist that overflows needs r_i + R near the
    # largest double, hence the cap on L; an r that overflows makes every
    # r_k + R infinite, so all points are kept.
    sweeps: dict[int, list[float]] = {}
    if not points:
        return None, -1.0, sweeps
    xs, ys = zip(*points)
    if floats is None:
        floats = set(map(type, xs + ys)) == {float}
    x0, x1, y0, y1 = (0.5 * v for v in _bounding_box(xs, ys))
    gx, gy = x0 + x1, y0 + y1
    mxy = max(abs(x0), abs(x1)) + max(abs(y0), abs(y1))  # (Mx + My) / 2
    r = _dist_row(points, (gx, gy), floats)
    big = max(r)
    t = r.index(big)  # L: two farthest-point sweeps over the other colors
    for _ in range(2):
        c = colors[t]
        row = sweeps[t] = _dist_row(points, points[t], floats)
        far = max(row)
        last = len(row) - 1 - row[::-1].index(far)  # the last farthest point
        if colors[last] == c:  # it has t's color: leave that color out
            row = [d if ck != c else -1.0 for d, ck in zip(row, colors)]
            far = max(row)
            if far < 0.0:
                return None, -1.0, sweeps
            last = len(row) - 1 - row[::-1].index(far)
        t = last
    cut = min(far, sys.float_info.max) * (1.0 - 2.0**-40) - 2.0**-44 * mxy - 2.0**-1060
    keep = [k for k in range(len(points)) if r[k] + big >= cut]
    # only a strictly larger distance replaces the pair: ties keep the first
    best = -1.0
    pair = None
    for a, i in enumerate(keep):
        p, c = points[i], colors[i]
        for j in keep[a + 1:]:
            if colors[j] != c:
                dij = dist(p, points[j])
                if dij > best:
                    best = dij
                    pair = (i, j)
    return pair, best, sweeps


def diametral_pair(points: Sequence[Sequence[float]]) -> tuple[int, int]:
    """Index pair (i, j), i < j, attaining the maximum pairwise distance.

    Ties break to the lexicographically smallest pair.  Quadratic when all
    points lie on one circle, near-linear on spread-out input.  Raises
    ValueError naming the first point with a NaN or infinite coordinate, or
    the axis whose extent overflows a double (or the diagonal, when the
    two extents together overflow).
    """
    if len(points) < 2:
        raise ValueError("too few points")
    return _farthest_pair(as_points(points), range(len(points)))[0]


def bichromatic_diametral_pair(
    points: Sequence[Sequence[float]], colors: Sequence[int]
) -> tuple[int, int]:
    """Farthest pair of points carrying different colors.

    Same scan and tie-break as diametral_pair.  Raises ValueError when all
    points share one color, a coordinate is NaN or infinite, or the
    points' extent overflows a double.
    """
    if len(points) != len(colors):
        raise ValueError("points and colors differ in length")
    pair = _farthest_pair(as_points(points), colors)[0]
    if pair is None:
        raise ValueError("no bichromatic pair")
    return pair
