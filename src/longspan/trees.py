"""Spanning trees over indexed planar points: validation, exact Min-ST and
Max-ST (dense Prim), stars, and the three-point Steiner (Fermat) solver used
to certify the sqrt(3)/2 lower bound on triple connection costs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import Point, dist, segments_cross


@dataclass(frozen=True, slots=True)
class Tree:
    """A graph over vertices 0..n-1 given as an edge list.

    Edges are normalized to (min, max) pairs and sorted; duplicates and
    self-loops are preserved so that validate_spanning_tree can report them.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple(sorted((min(i, j), max(i, j)) for i, j in self.edges))
        object.__setattr__(self, "edges", norm)


def tree_length(tree: Tree, points: Sequence[Sequence[float]]) -> float:
    """Total Euclidean length of the tree's edges."""
    n = len(points)
    total = 0.0
    for i, j in tree.edges:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"edge ({i}, {j}) out of range for {n} points")
        total += dist(points[i], points[j])
    return total


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
    shared vertex count as crossings.  Zero-length edges raise ValueError.
    """
    edges = tree.edges
    for k in range(len(edges)):
        i, j = edges[k]
        s1 = (points[i], points[j])
        for m in range(k + 1, len(edges)):
            p, q = edges[m]
            if segments_cross(s1, (points[p], points[q])):
                return False, (edges[k], edges[m])
    return True, None


def _prim(points: Sequence[Sequence[float]], maximize: bool) -> Tree:
    n = len(points)
    if n == 0:
        raise ValueError("empty point set")
    if n == 1:
        return Tree(1, ())
    in_tree = [False] * n
    in_tree[0] = True
    key = [dist(points[0], points[k]) for k in range(n)]
    parent = [0] * n
    edges = []
    better = (lambda a, b: a > b) if maximize else (lambda a, b: a < b)
    for _ in range(n - 1):
        pick = -1
        for k in range(n):
            if in_tree[k]:
                continue
            if pick < 0 or better(key[k], key[pick]):
                pick = k
        in_tree[pick] = True
        edges.append((parent[pick], pick))
        for k in range(n):
            if in_tree[k]:
                continue
            w = dist(points[pick], points[k])
            if better(w, key[k]):
                key[k] = w
                parent[k] = pick
    return Tree(n, tuple(edges))


def min_spanning_tree(points: Sequence[Sequence[float]]) -> Tree:
    """Exact Euclidean minimum spanning tree (dense Prim, O(n^2)).

    Deterministic: ties in keys and vertex selection break to the smallest
    index.
    """
    return _prim(points, maximize=False)


def max_spanning_tree(points: Sequence[Sequence[float]]) -> Tree:
    """Exact Euclidean maximum spanning tree (Prim on negated weights)."""
    return _prim(points, maximize=True)


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
    if n == 2:
        return Tree(2, ((i, j),))
    in_tree = [False] * n
    in_tree[i] = in_tree[j] = True
    key = [0.0] * n
    parent = [i] * n
    for k in range(n):
        if in_tree[k]:
            continue
        key[k] = dist(points[i], points[k])
        dj = dist(points[j], points[k])
        if dj > key[k]:
            key[k] = dj
            parent[k] = j
    edges = [(i, j)]
    for _ in range(n - 2):
        pick = -1
        for k in range(n):
            if in_tree[k]:
                continue
            if pick < 0 or key[k] > key[pick]:
                pick = k
        in_tree[pick] = True
        edges.append((parent[pick], pick))
        for k in range(n):
            if in_tree[k]:
                continue
            w = dist(points[pick], points[k])
            if w > key[k]:
                key[k] = w
                parent[k] = pick
    return Tree(n, tuple(edges))


def star(points: Sequence[Sequence[float]], center: int) -> Tree:
    """Star connecting the center to every other vertex."""
    n = len(points)
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range for {n} points")
    return Tree(n, tuple((center, k) for k in range(n) if k != center))


def best_star(points: Sequence[Sequence[float]]) -> tuple[Tree, int]:
    """The longest star over all centers; ties break to the smallest center."""
    if not points:
        raise ValueError("empty point set")
    best_tree = star(points, 0)
    best_len = tree_length(best_tree, points)
    best_center = 0
    for c in range(1, len(points)):
        t = star(points, c)
        length = tree_length(t, points)
        if length > best_len:
            best_tree, best_len, best_center = t, length, c
    return best_tree, best_center


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


_WEISZFELD_MAX_ITER = 200_000
_WEISZFELD_STEP_RTOL = 1e-13


def fermat_point(
    a: Sequence[float], b: Sequence[float], c: Sequence[float]
) -> Fermat3Result:
    """Steiner minimal tree of {a, b, c}.

    Analytic test first: a vertex with angle >= 120 degrees is itself the
    junction and the SMT is its two incident sides.  Otherwise the interior
    junction is found by Weiszfeld iteration (relative step threshold 1e-13,
    with a nudge restart if an iterate lands exactly on an input point).
    """
    pts = [Point(a[0], a[1]), Point(b[0], b[1]), Point(c[0], c[1])]
    # collapsed triples: answer is the distance between the distinct pair
    for v in range(3):
        u, w = (v + 1) % 3, (v + 2) % 3
        if pts[u] == pts[w]:
            return Fermat3Result(pts[u], dist(pts[u], pts[v]), u)
    for v in range(3):
        u, w = (v + 1) % 3, (v + 2) % 3
        ux, uy = pts[u].x - pts[v].x, pts[u].y - pts[v].y
        wx, wy = pts[w].x - pts[v].x, pts[w].y - pts[v].y
        dot = ux * wx + uy * wy
        if dot <= -0.5 * math.hypot(ux, uy) * math.hypot(wx, wy):
            # angle at v is >= 120 degrees
            length = dist(pts[v], pts[u]) + dist(pts[v], pts[w])
            return Fermat3Result(pts[v], length, v)
    scale = max(dist(pts[i], pts[j]) for i in range(3) for j in range(i + 1, 3))
    x = ((pts[0].x + pts[1].x + pts[2].x) / 3.0, (pts[0].y + pts[1].y + pts[2].y) / 3.0)
    centroid = x
    for _ in range(_WEISZFELD_MAX_ITER):
        ds = [dist(x, p) for p in pts]
        if min(ds) == 0.0:
            # stalled on an input vertex: nudge toward the centroid
            k = ds.index(0.0)
            x = (
                pts[k].x + 1e-9 * scale * (centroid[0] - pts[k].x + 1.0),
                pts[k].y + 1e-9 * scale * (centroid[1] - pts[k].y + 1.0),
            )
            continue
        wsum = sum(1.0 / d for d in ds)
        nx = sum(p.x / d for p, d in zip(pts, ds)) / wsum
        ny = sum(p.y / d for p, d in zip(pts, ds)) / wsum
        step = math.hypot(nx - x[0], ny - x[1])
        x = (nx, ny)
        if step <= _WEISZFELD_STEP_RTOL * scale:
            break
    sp = Point(x[0], x[1])
    return Fermat3Result(sp, sum(dist(sp, p) for p in pts), None)
