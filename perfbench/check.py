"""Output checks and input descriptors that share no code with longspan.

Every combinatorial test here runs on exact integers: all coordinates of an
instance are scaled by one common power of two, which is exact for finite
doubles.  Nothing is imported from ``longspan.geometry`` or
``longspan.trees``, so a later change to the library's predicates cannot
make a wrong tree pass.
"""

from __future__ import annotations

import math

NCST_FLOOR = 0.519
STNB_FLOOR = 0.524
LENGTH_RTOL = 1e-9


def exact_coords(points) -> list[tuple[int, int]]:
    """Integer coordinates proportional to the given doubles, exactly."""
    ratios = [(float(p[0]).as_integer_ratio(), float(p[1]).as_integer_ratio()) for p in points]
    scale = max(max(rx[1], ry[1]) for rx, ry in ratios)  # powers of two
    return [(nx * (scale // dx), ny * (scale // dy)) for (nx, dx), (ny, dy) in ratios]


def orient(p, q, r) -> int:
    det = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (det > 0) - (det < 0)


def segments_cross(a, b, c, d) -> bool:
    """Whether segments ab and cd meet anywhere but at one common endpoint.

    A collinear overlap of positive length counts; so does an endpoint of one
    segment lying inside the other.
    """
    if (
        max(a[0], b[0]) < min(c[0], d[0])
        or max(c[0], d[0]) < min(a[0], b[0])
        or max(a[1], b[1]) < min(c[1], d[1])
        or max(c[1], d[1]) < min(a[1], b[1])
    ):
        return False
    o1, o2 = orient(a, b, c), orient(a, b, d)
    if o1 == 0 and o2 == 0:
        ux, uy = b[0] - a[0], b[1] - a[1]
        tc = (c[0] - a[0]) * ux + (c[1] - a[1]) * uy
        td = (d[0] - a[0]) * ux + (d[1] - a[1]) * uy
        return min(ux * ux + uy * uy, max(tc, td)) > max(0, min(tc, td))
    if o1 * o2 > 0 or orient(c, d, a) * orient(c, d, b) > 0:
        return False
    # The lines are distinct and the segments meet in exactly one point; it
    # is harmless only when it is an endpoint of both.
    return not ({a, b} & {c, d})


def tree_problem(n: int, edges, coords, noncrossing: bool) -> str | None:
    """First reason the edge list is not a (noncrossing) spanning tree."""
    if len(edges) != n - 1:
        return f"{len(edges)} edges for {n} vertices"
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            return f"bad edge ({i}, {j})"
        ri, rj = find(i), find(j)
        if ri == rj:
            return f"cycle through ({i}, {j})"
        parent[ri] = rj
        if coords[i] == coords[j]:
            return f"zero-length edge ({i}, {j})"
    if noncrossing:
        segs = [(coords[i], coords[j]) for i, j in edges]
        for k in range(len(segs)):
            for m in range(k + 1, len(segs)):
                if segments_cross(*segs[k], *segs[m]):
                    return f"edges {edges[k]} and {edges[m]} cross"
    return None


def length_of(edges, points) -> float:
    return sum(math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1]) for i, j in edges)


def length_problem(reported: float, edges, points) -> str | None:
    own = length_of(edges, points)
    if abs(own - reported) > LENGTH_RTOL * max(1.0, abs(own)):
        return f"reported length {reported!r}, recomputed {own!r}"
    return None


def check_ncst(points, report) -> str | None:
    """Check a noncrossing solver report against its input points."""
    if [tuple(p) for p in report.points] != [tuple(p) for p in points]:
        return "report points differ from the input"
    edges = report.tree.edges
    return tree_problem(len(points), edges, exact_coords(points), True) or length_problem(
        report.length, edges, points
    )


def flatten(nbs) -> tuple[list, list[range]]:
    """Vertices of every neighborhood in order, and each one's index range."""
    flat, ranges = [], []
    for nb in nbs.neighborhoods:
        start = len(flat)
        for ring in nb.polygons:
            flat.extend(tuple(p) for p in ring)
        ranges.append(range(start, len(flat)))
    return flat, ranges


def check_stnb(nbs, representatives, rep_points, edges, length) -> str | None:
    """Check one representative per neighborhood and a spanning tree on them."""
    flat, ranges = flatten(nbs)
    colors = [nb.color for nb in nbs.neighborhoods]
    if sorted(representatives) != sorted(colors):
        return "representatives do not cover each color once"
    for k, color in enumerate(colors):
        v = representatives[color]
        if v not in ranges[k]:
            return f"representative {v} is not a vertex of color {color}"
        if tuple(rep_points[k]) != flat[v]:
            return f"point {k} is not representative {v}"
    return tree_problem(len(colors), edges, exact_coords(rep_points), False) or length_problem(
        length, edges, rep_points
    )


def ratio_problem(approx: float, optimum: float, floor: float, reported: float) -> str | None:
    """Check a certified ratio against the oracle's optimum and the floor."""
    if optimum <= 0.0:
        return "oracle length is not positive"
    ratio = approx / optimum
    if ratio > 1.0 + LENGTH_RTOL:
        return f"approximation {approx!r} beats the oracle {optimum!r}"
    if ratio < floor:
        return f"ratio {ratio:.6f} below the floor {floor}"
    if abs(reported - ratio) > LENGTH_RTOL:
        return f"oracle_ratio reported {reported!r}, expected {ratio!r}"
    return None


# --- input descriptors -------------------------------------------------------


def has_collinear_triple(points) -> bool:
    """Whether three points of distinct indices lie exactly on one line."""
    c = exact_coords(points)
    n = len(c)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if orient(c[i], c[j], c[k]) == 0:
                    return True
    return False


def hull_share(points) -> float:
    """Share of the points that sit on a corner of their convex hull."""
    c = exact_coords(points)
    uniq = sorted(set(c))
    if len(uniq) < 3:
        return 1.0

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    corners = set(chain(uniq)) | set(chain(reversed(uniq)))
    return sum(1 for p in c if p in corners) / len(c)
