"""Spanning trees over indexed planar points: validation, exact Min-ST and
Max-ST (dense Prim), stars, and the three-point Steiner (Fermat) solver used
to certify the sqrt(3)/2 lower bound on triple connection costs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from operator import neg
from typing import Callable, Sequence

from .geometry import Point, _dist_row, _first_crossing, _floats, _segment, as_points, dist


@dataclass(frozen=True, slots=True)
class Tree:
    """A graph over vertices 0..n-1 given as an edge list.

    Edges are normalized to (min, max) pairs and sorted; duplicates and
    self-loops are preserved so that validate_spanning_tree can report them.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple(sorted([(i, j) if i <= j else (j, i) for i, j in self.edges]))
        object.__setattr__(self, "edges", norm)


def tree_length(tree: Tree, points: Sequence[Sequence[float]]) -> float:
    """Total Euclidean length of the tree's edges, correctly rounded by
    math.fsum, so independent of edge order.  The points are taken as given:
    raw numpy int64 or mixed input needs as_points first, as for orientation."""
    n = len(points)
    for i, j in tree.edges:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"edge ({i}, {j}) out of range for {n} points")
    return math.fsum(dist(points[i], points[j]) for i, j in tree.edges)


def validate_spanning_tree(tree: Tree, points: Sequence | None = None) -> str | None:
    """First structural violation of the spanning-tree contract, or None.

    Checks, in order: vertex-count match, edge ranges, self-loops, duplicate
    edges, cycles, connectivity.
    """
    n = tree.n
    if points is not None and len(points) != n:
        return f"vertex count mismatch: tree has {n}, got {len(points)} points"
    seen = set()
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in tree.edges:
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i}, {j}) out of range"
        if i == j:
            return f"self-loop at vertex {i}"
        if (i, j) in seen:
            return f"duplicate edge ({i}, {j})"
        seen.add((i, j))
        ri, rj = find(i), find(j)
        if ri == rj:
            return f"cycle through edge ({i}, {j})"
        parent[ri] = rj
    if n > 0 and len(tree.edges) != n - 1:
        return "not spanning"
    return None


def is_noncrossing(
    tree: Tree, points: Sequence[Sequence[float]]
) -> tuple[bool, tuple[tuple[int, int], tuple[int, int]] | None]:
    """Quadratic pairwise crossing scan over the tree's edges.

    Returns (True, None) or (False, first crossing edge pair).  Edges that
    share an endpoint index still get tested: collinear overlaps through a
    shared vertex count as crossings.  It builds one segment per edge and
    scans each against the later ones by the crossing kernel, whose one-pair
    case is segments_cross, so the verdict and the first crossing pair are
    those of the full pairwise segments_cross scan.  A tree with two or more
    edges and a zero-length one raises ValueError first.  The points are
    taken as given, as by tree_length.
    """
    edges = tree.edges
    segs = [_segment(points[i], points[j]) for i, j in edges]
    for (i, j), s in zip(edges, segs):
        if s[0] == s[1] and len(edges) > 1:
            raise ValueError(f"zero-length edge ({i}, {j})")
    for k, s in enumerate(segs):
        if (m := _first_crossing(s, segs, k + 1)) >= 0:
            return False, (edges[k], edges[m])
    return True, None


def _shared_segments(points: Sequence[Sequence[float]]) -> Callable[[int, int], tuple]:
    # A segment source that builds each pair's segment once, keyed by
    # (min, max): the crossing kernel's exact verdict ignores endpoint order.
    pair = cache(lambda i, j: _segment(points[i], points[j]))
    return lambda i, j: pair(i, j) if i < j else pair(j, i)


def _prim(
    row: Callable[[int], Sequence[float]], vertices: Sequence[int], root: int,
    first: int | None,
) -> tuple[list[int], float]:
    """Dense Prim maximizing over the weights row(i)[j] among vertices.

    Positions 0..k-1 index `vertices`; the tree grows from position root,
    and with `first` given that position is attached to the root before any
    other.  Keys and picks compare strictly, so ties go to the smallest
    position.  Returns (parent, total): parent[t] is the position t hangs
    from (parent[root] == root), total the sum of the picked weights in
    pick order.  row is called once per pick.
    """
    key = list(map(row(vertices[root]).__getitem__, vertices))
    parent = [root] * len(vertices)
    rest = [t for t in range(len(vertices)) if t != root]
    pick = first
    if pick is None and rest:
        pick = max(rest, key=key.__getitem__)
    total = 0.0
    while rest:
        total += key[pick]
        rest.remove(pick)
        w = row(vertices[pick])
        best = -1
        # one pass: raise the keys through pick, then take the next argmax
        for t in rest:
            x = w[vertices[t]]
            if x > key[t]:
                key[t] = x
                parent[t] = pick
            if best < 0 or key[t] > key[best]:
                best = t
        pick = best
    return parent, total


def _max_tree(
    points: Sequence[Sequence[float]], root: int = 0, first: int | None = None,
    negate: bool = False,
) -> Tree:
    points = as_points(points)
    n = len(points)
    if n == 0:
        raise ValueError("empty point set")
    floats = _floats(points)

    def row(i: int) -> list[float]:
        # one row per pick keeps memory O(n); the row is dist's for any
        # input, and negation is exact, so maximizing -dist minimizes
        d = _dist_row(points, points[i], floats)
        return list(map(neg, d)) if negate else d

    parent, _ = _prim(row, range(n), root, first)
    return Tree(n, tuple((parent[t], t) for t in range(n) if t != root))


def min_spanning_tree(points: Sequence[Sequence[float]]) -> Tree:
    """Exact Euclidean minimum spanning tree (dense Prim, O(n^2)).

    Deterministic: ties in keys and vertex selection break to the smallest
    index.
    """
    return _max_tree(points, negate=True)


def max_spanning_tree(points: Sequence[Sequence[float]]) -> Tree:
    """Exact Euclidean maximum spanning tree (dense Prim, O(n^2))."""
    return _max_tree(points)


def max_spanning_tree_through(
    points: Sequence[Sequence[float]], i: int, j: int
) -> Tree:
    """Maximum spanning tree constrained to contain the edge (i, j).

    Equivalent to contracting the edge and running Prim from the merged
    vertex, which is exact for edge-forced spanning trees.
    """
    n = len(points)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError("invalid forced edge")
    return _max_tree(points, i, j)


def star(points: Sequence[Sequence[float]], center: int) -> Tree:
    """Star connecting the center to every other vertex; reads only len(points)."""
    n = len(points)
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range for {n} points")
    return Tree(n, tuple((center, k) for k in range(n) if k != center))


def best_star(points: Sequence[Sequence[float]]) -> tuple[Tree, int]:
    """The longest star over all centers; ties break to the smallest center.
    The points are taken as given, as by tree_length."""
    if len(points) == 0:
        raise ValueError("empty point set")
    center = max(range(len(points)), key=lambda c: tree_length(star(points, c), points))
    return star(points, center), center


@dataclass(frozen=True)
class Fermat3Result:
    """Steiner minimal tree of a point triple.

    When every triangle angle is below 120 degrees the junction is the
    interior Torricelli point and the three edges meet at 120 degrees;
    otherwise the junction degenerates to the wide-angle vertex, recorded in
    degenerate_at_vertex.
    """

    steiner_point: Point
    smt_length: float
    degenerate_at_vertex: int | None


def fermat_point(
    a: Sequence[float], b: Sequence[float], c: Sequence[float]
) -> Fermat3Result:
    """Steiner minimal tree of {a, b, c}.

    Analytic test first: a vertex with angle >= 120 degrees is itself the
    junction and the SMT is its two incident sides.  Otherwise the junction
    is the Torricelli point, in closed form: its barycentric weight at the
    vertex with angle A and opposite side a is a / sin(A + 60 degrees), or
    2abc / (2 * area + sqrt(3) * dot), where dot is the inner product of the
    two sides at that vertex; 2abc is common to all three and drops out.
    """
    pts = as_points((a, b, c))
    # collapsed triples: answer is the distance between the distinct pair
    for v in range(3):
        u, w = (v + 1) % 3, (v + 2) % 3
        if pts[u] == pts[w]:
            return Fermat3Result(pts[u], dist(pts[u], pts[v]), u)
    # offsets from pts[0] scaled by a power of two, which is exact while
    # they stay normal doubles, so that the products below neither overflow
    # nor underflow whatever the size of the triangle
    off = [(p.x - pts[0].x, p.y - pts[0].y) for p in pts]
    e = math.frexp(max(abs(t) for o in off for t in o))[1]
    rel = [(math.ldexp(dx, -e), math.ldexp(dy, -e)) for dx, dy in off]
    den = []
    for v in range(3):
        u, w = (v + 1) % 3, (v + 2) % 3
        ux, uy = rel[u][0] - rel[v][0], rel[u][1] - rel[v][1]
        wx, wy = rel[w][0] - rel[v][0], rel[w][1] - rel[v][1]
        dot = ux * wx + uy * wy
        # 2 * area + sqrt(3) * dot == |vu| |vw| * 2 sin(angle + 60 degrees)
        denom = abs(ux * wy - uy * wx) + math.sqrt(3.0) * dot
        if dot <= -0.5 * math.hypot(ux, uy) * math.hypot(wx, wy) or denom <= 0.0:
            # angle at v is >= 120 degrees
            length = dist(pts[v], pts[u]) + dist(pts[v], pts[w])
            return Fermat3Result(pts[v], length, v)
        den.append(denom)
    # the weights 1 / den[v], multiplied through by den[0] * den[1] * den[2];
    # sums go left to right, as sum() did before Python 3.12 compensated it
    wts = (den[1] * den[2], den[0] * den[2], den[0] * den[1])
    wsum = wts[0] + wts[1] + wts[2]
    sx = (wts[0] * rel[0][0] + wts[1] * rel[1][0] + wts[2] * rel[2][0]) / wsum
    sy = (wts[0] * rel[0][1] + wts[1] * rel[1][1] + wts[2] * rel[2][1]) / wsum
    sp = Point(pts[0].x + math.ldexp(sx, e), pts[0].y + math.ldexp(sy, e))
    return Fermat3Result(sp, dist(sp, pts[0]) + dist(sp, pts[1]) + dist(sp, pts[2]), None)
