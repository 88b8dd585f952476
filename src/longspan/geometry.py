"""Planar primitives: distances, exact orientation, segment crossing,
diametral pairs, disk/ellipse membership and circle intersections.

Everything here is a pure function; no shared mutable state.
"""

from __future__ import annotations

import math
import operator
import sys
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

_TANGENT_RTOL = 1e-12


class Point(NamedTuple):
    x: float
    y: float


class Segment(NamedTuple):
    a: Point
    b: Point


def as_points(points: Iterable[Sequence[float]]) -> list[Point]:
    """The input as a list of Points, reusing those that already are.

    Integer scalars such as numpy's become Python ints, whose products
    cannot wrap, and narrower floats such as numpy float32 become Python
    floats, which is exact; Fractions stay as they are.  Raises ValueError
    naming the first point with a NaN or infinite coordinate, or an int
    beyond the double range: the predicates are exact only on finite doubles.
    """
    pts = [p if isinstance(p, Point) else Point(_scalar(p[0]), _scalar(p[1])) for p in points]
    _check_finite(pts)
    return pts


def _scalar(c: float) -> float:
    if isinstance(c, Integral):
        return operator.index(c)
    if isinstance(c, Real) and not isinstance(c, (float, Rational)) and float(c) == c:
        return float(c)
    return c


def _check_finite(points: Iterable[Sequence[float]]) -> None:
    try:
        for k, (x, y) in enumerate(points):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"point {k} has a non-finite coordinate ({x!r}, {y!r})")
    except OverflowError:  # an int beyond the double range
        raise ValueError(f"point {k} has a coordinate beyond the double range") from None


def dist(p: Sequence[float], q: Sequence[float]) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def orientation(p: Sequence[float], q: Sequence[float], r: Sequence[float]) -> int:
    """Sign of the signed area of triangle (p, q, r).

    Returns LEFT (+1) when r lies left of the directed line p->q, RIGHT (-1)
    when it lies right, COLLINEAR (0) otherwise.  The sign is exact for all
    finite coordinates, subnormal and huge ones included, so the crossing
    tests built on top are combinatorially reliable:

    - a floating-point filter decides when the determinant is clear of its
      rounding error and its products are clear of the underflow range;
    - a triple with two equal points (by value), or with a zero coordinate
      difference in each product, is COLLINEAR without further arithmetic;
    - everything else is decided in exact integer arithmetic.

    Coordinates must be finite; the public solvers reject NaN and infinities
    at their entry points.  Raw numpy int64 or float32 coordinates must go
    through as_points first: the float filter would multiply them in 64-bit
    integers, which wrap past about 2^31.5, or in single precision.
    """
    qx, qy = q[0] - p[0], q[1] - p[1]
    rx, ry = r[0] - p[0], r[1] - p[1]
    detleft = qx * ry
    detright = qy * rx
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if abs(det) > _ORIENT_ERRBOUND * detsum and detsum >= _ORIENT_MIN_DETSUM:
        return LEFT if det > 0.0 else RIGHT
    # A difference of finite doubles is zero only when the coordinates are
    # equal, so these two tests are exact.  The first covers p == q and
    # p == r; the second q == r, whose float det is 0 with detsum > 0.
    if (qx == 0.0 or ry == 0.0) and (qy == 0.0 or rx == 0.0):
        return COLLINEAR
    if q[0] == r[0] and q[1] == r[1]:
        return COLLINEAR
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


def _within_box(a: Sequence[float], b: Sequence[float], x: Sequence[float]) -> bool:
    # x is assumed collinear with segment ab; closed bounding-box test
    return (
        min(a[0], b[0]) <= x[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= x[1] <= max(a[1], b[1])
    )


def segments_cross(s1: Segment | Sequence, s2: Segment | Sequence) -> bool:
    """Whether two segments cross.

    A crossing is an intersection at a point interior to at least one of the
    two segments.  Meeting at a shared endpoint does not count; a collinear
    overlap of positive length does.  Symmetric in its arguments and in each
    segment's endpoint order.

    Segments xy and xz that share an endpoint x (by value) take one
    orientation: they cross exactly when y, x and z are collinear and y and
    z lie on the same side of x, which the dominant axis of xy decides.  Any
    other pair takes four orientations.

    Raises ValueError for zero-length segments.
    """
    a, b = s1
    c, d = s2
    a, b, c, d = tuple(a), tuple(b), tuple(c), tuple(d)
    if a == b or c == d:
        raise ValueError("degenerate segment")
    if a == c or a == d or b == c or b == d:
        x, y = (a, b) if a == c or a == d else (b, a)
        z = d if x == c else c
        # Lines through x meet only at x, so only an overlap along one line
        # crosses.  On a line with |dx| >= |dy| no two points share an x
        # coordinate, so z, on line xy and not x, differs from x on the
        # dominant axis of xy, and the comparisons are exact.
        if orientation(x, y, z) != COLLINEAR:
            return False
        axis = 0 if abs(y[0] - x[0]) >= abs(y[1] - x[1]) else 1
        return (y[axis] > x[axis]) == (z[axis] > x[axis])
    d1 = orientation(c, d, a)
    d2 = orientation(c, d, b)
    d3 = orientation(a, b, c)
    d4 = orientation(a, b, d)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True  # proper crossing, interior to both
    if d1 == 0 and d2 == 0:
        # all four points collinear; a line with |dx| >= |dy| is x-monotone,
        # so comparing along the dominant axis is exact
        axis = 0 if abs(b[0] - a[0]) >= abs(b[1] - a[1]) else 1
        lo1, hi1 = sorted((a[axis], b[axis]))
        lo2, hi2 = sorted((c[axis], d[axis]))
        return max(lo1, lo2) < min(hi1, hi2)
    # Non-collinear lines meet at most once, and no endpoint is shared, so
    # any remaining contact is an endpoint of one segment inside the other.
    return (
        (d1 == 0 and _within_box(c, d, a))
        or (d2 == 0 and _within_box(c, d, b))
        or (d3 == 0 and _within_box(a, b, c))
        or (d4 == 0 and _within_box(a, b, d))
    )


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
    points: Sequence[Sequence[float]], colors: Sequence[int]
) -> tuple[int, int] | None:
    # The first pair in index order, of two colors, with the largest dist;
    # None when there is none.  Only points that can end such a pair enter
    # the quadratic scan.  For r_k = |p_k g| and R = max r_k, the triangle
    # inequality gives |p_i p_j| <= r_i + R, so a pair whose dist reaches
    # the dist L of some pair of two colors has r_i + R >= L and
    # r_j + R >= L, up to rounding.  A coordinate difference, in dist or
    # against g, is off by at most 2^-51 times the largest magnitude M of a
    # coordinate on its axis: ints and Fractions are rounded to doubles
    # before they meet the float g, and the subtraction rounds.  Other
    # scalars, such as numpy's, are first converted as by as_points: int64
    # differences would wrap and float32 ones round in single precision.
    # Hypot and the sum add relative errors of a few 2^-53 and, for
    # subnormal results, 2^-1074 per hypot.  The slack, 2^-40 relative,
    # 2^-45 (Mx + My) and 2^-1060 absolute, covers that many times over.  A
    # dist that overflows needs r_i + R near the largest double, hence the
    # cap on L; an r that overflows makes every r_k + R infinite, so all
    # points are kept.
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if not set(map(type, xs + ys)) <= {float, int}:
        xs, ys = list(map(_scalar, xs)), list(map(_scalar, ys))
        points = list(zip(xs, ys))
    try:
        finite = all(map(math.isfinite, xs + ys))
    except OverflowError:
        finite = False
    if not finite:
        _check_finite(zip(xs, ys))
    if not xs:
        return None
    x0, x1, y0, y1 = (0.5 * v for v in _bounding_box(xs, ys))
    gx, gy = x0 + x1, y0 + y1
    mxy = max(abs(x0), abs(x1)) + max(abs(y0), abs(y1))  # (Mx + My) / 2
    r = [math.hypot(x - gx, y - gy) for x, y in zip(xs, ys)]
    big = max(r)
    t = r.index(big)  # L: two farthest-point sweeps over the other colors
    for _ in range(2):
        p, c = points[t], colors[t]
        far, t = max(((dist(p, q), k) for k, q in enumerate(points) if colors[k] != c),
                     default=(None, t))
        if far is None:
            return None
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
    return pair


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
    return _farthest_pair(points, range(len(points)))


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
    pair = _farthest_pair(points, colors)
    if pair is None:
        raise ValueError("no bichromatic pair")
    return pair


def in_disk(p: Sequence[float], center: Sequence[float], r: float) -> bool:
    """Closed-disk membership."""
    return dist(p, center) <= r


def in_ellipse(
    p: Sequence[float], f1: Sequence[float], f2: Sequence[float], total: float
) -> bool:
    """Whether |p f1| + |p f2| <= total (closed ellipse with the given foci).

    Raises ValueError when total is smaller than the focal distance.
    """
    if total < dist(f1, f2):
        raise ValueError("empty ellipse")
    return dist(p, f1) + dist(p, f2) <= total


def circle_circle_intersections(
    c1: Sequence[float], r1: float, c2: Sequence[float], r2: float
) -> list[Point]:
    """Intersection points of two circle boundaries, sorted by y descending.

    Empty when the circles are disjoint, nested, or concentric; a single
    point when tangent within relative tolerance 1e-12.
    """
    if r1 <= 0 or r2 <= 0:
        raise ValueError("radius must be positive")
    d = dist(c1, c2)
    if d == 0.0:
        return []
    scale = max(r1, r2, d)
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    tol = _TANGENT_RTOL * scale * scale
    if h2 < -tol:
        return []
    ux = (c2[0] - c1[0]) / d
    uy = (c2[1] - c1[1]) / d
    mx = c1[0] + a * ux
    my = c1[1] + a * uy
    if h2 <= tol:
        return [Point(mx, my)]
    h = math.sqrt(h2)
    pts = [Point(mx - h * uy, my + h * ux), Point(mx + h * uy, my - h * ux)]
    pts.sort(key=lambda p: (-p.y, p.x))
    return pts
