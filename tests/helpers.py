"""Independent reference computations used as test oracles.

Nothing here calls the code paths under test: labeled trees come from
Prüfer decoding, crossing-free optima from filtered full enumeration, and
Fermat points from a grid search with local refinement.  The one exception,
solve_ncst_reference, composes solve_ncst from its public builders, so that
any work solve_ncst shares between candidates must leave its report as is.
f1_reference is the 0.519 derivation's nested radical, which constants.f1
replaces by its closed form; both read their parameters from ncst_params.
"""

from __future__ import annotations

import itertools
import math


def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    u = [v for v in range(n) if degree[v] == 1]
    edges.append((u[0], u[1]))
    return edges


def all_labeled_trees(n: int):
    """Every labeled tree on n vertices (n^(n-2) of them), via Prüfer."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


def edge_length_sum(edges, pts) -> float:
    return sum(
        math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) for i, j in edges
    )


def orientation_reference(p, q, r) -> int:
    """Sign of the orientation determinant, computed in exact rationals
    only (no floating-point filter, no shortcuts)."""
    from fractions import Fraction

    px, py, qx, qy, rx, ry = map(Fraction, (*p, *q, *r))
    det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (det > 0) - (det < 0)


def farthest_pair_reference(points, colors):
    """The first index pair (i, j), i < j, of two colors whose hypot
    distance is strictly the largest, by scanning all pairs; None when
    there is no pair of two colors."""
    best, pair = -1.0, None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if colors[i] != colors[j]:
                d = math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])
                if d > best:
                    best, pair = d, (i, j)
    return pair


def segments_cross_reference(s1, s2) -> bool:
    """Same crossing semantics, written independently via parametric
    intersection with exact rational arithmetic."""
    from fractions import Fraction

    (ax, ay), (bx, by) = (map(Fraction, s1[0]), map(Fraction, s1[1]))
    (cx, cy), (dx, dy) = (map(Fraction, s2[0]), map(Fraction, s2[1]))
    ax, ay, bx, by, cx, cy, dx, dy = ax, ay, bx, by, cx, cy, dx, dy
    r = (bx - ax, by - ay)
    s = (dx - cx, dy - cy)
    denom = r[0] * s[1] - r[1] * s[0]
    qp = (cx - ax, cy - ay)
    if denom == 0:
        if qp[0] * r[1] - qp[1] * r[0] != 0:
            return False  # parallel, not collinear
        rr = r[0] * r[0] + r[1] * r[1]
        t0 = (qp[0] * r[0] + qp[1] * r[1]) / rr
        t1 = t0 + (s[0] * r[0] + s[1] * r[1]) / rr
        lo, hi = min(t0, t1), max(t0, t1)
        return max(lo, Fraction(0)) < min(hi, Fraction(1))  # positive overlap only
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    if not (0 <= t <= 1 and 0 <= u <= 1):
        return False
    interior = (0 < t < 1) or (0 < u < 1)
    return interior


def crossing_scan_reference(s, segs, start=0) -> int:
    """The crossing kernel's contract, pair by pair: the first position
    m >= start whose segment in segs crosses s by segments_cross_reference,
    or -1.  Segments are tuples that start with their two endpoints."""
    for m in range(start, len(segs)):
        if segments_cross_reference(s[:2], segs[m][:2]):
            return m
    return -1


def first_crossing_reference(edges, pts):
    """The first edge pair (k < m in list order) that crosses by
    segments_cross_reference, testing every pair; None when none does."""
    for k in range(len(edges)):
        i, j = edges[k]
        for m in range(k + 1, len(edges)):
            p, q = edges[m]
            if segments_cross_reference((pts[i], pts[j]), (pts[p], pts[q])):
                return edges[k], edges[m]
    return None


def max_noncrossing_tree_bruteforce(pts) -> float:
    """Optimal noncrossing spanning tree length by full labeled-tree
    enumeration (exponential; n <= 7 or so)."""
    best = -1.0
    for edges in all_labeled_trees(len(pts)):
        if first_crossing_reference(edges, pts) is None:
            best = max(best, edge_length_sum(edges, pts))
    return best


def fermat_grid_oracle(a, b, c, steps: int = 60, rounds: int = 10) -> float:
    """Minimal total distance to three points by grid search with local
    refinement around the best cell."""

    def total(x, y):
        return (
            math.hypot(x - a[0], y - a[1])
            + math.hypot(x - b[0], y - b[1])
            + math.hypot(x - c[0], y - c[1])
        )

    xmin = min(a[0], b[0], c[0])
    xmax = max(a[0], b[0], c[0])
    ymin = min(a[1], b[1], c[1])
    ymax = max(a[1], b[1], c[1])
    best = (None, float("inf"))
    for _ in range(rounds):
        dx = (xmax - xmin) / steps or 1e-15
        dy = (ymax - ymin) / steps or 1e-15
        for i in range(steps + 1):
            for j in range(steps + 1):
                x, y = xmin + i * dx, ymin + j * dy
                v = total(x, y)
                if v < best[1]:
                    best = ((x, y), v)
        (bx, by), _ = best
        xmin, xmax = bx - 2 * dx, bx + 2 * dx
        ymin, ymax = by - 2 * dy, by + 2 * dy
    return best[1]


def farthest_vertex_reference(nbs, color, origin) -> int:
    """The first vertex of the given color with the largest hypot distance
    from origin, one vertex at a time."""
    best = None
    for v, p in enumerate(nbs.points):
        d = math.hypot(p[0] - origin[0], p[1] - origin[1])
        if nbs.colors[v] == color and (best is None or d > best[0]):
            best = d, v
    return best[1]


def solve_stnb_reference(nbs) -> dict:
    """The 0.524 algorithm written vertex by vertex: the pair (a, b) from
    farthest_pair_reference, each farthest vertex from
    farthest_vertex_reference, the S3 centre from one hypot per vertex, and
    all four candidates S1, S2, S3, D built as trees, each length the
    math.fsum of its edges' hypot distances.  Returns the report's fields
    (the tree as its sorted edge list)."""
    points, colors = nbs.points, nbs.colors
    order = [nb.color for nb in nbs.neighborhoods]

    def d(p, q):
        return math.hypot(p[0] - q[0], p[1] - q[1])

    def farthest(color, origin):
        return farthest_vertex_reference(nbs, color, origin)

    def candidate(name, reps, edges):
        edges = sorted((min(i, j), max(i, j)) for i, j in edges)
        pts = [points[reps[c]] for c in order]
        length = math.fsum(d(pts[i], pts[j]) for i, j in edges)
        return {"candidate": name, "edges": edges, "representatives": reps, "points": pts,
                "length": length}

    def star(center, name):
        kc = order.index(colors[center])
        reps = {colors[center]: center}
        reps.update({c: farthest(c, points[center]) for c in order if c != colors[center]})
        return candidate(name, reps, [(kc, k) for k in range(len(order)) if k != kc])

    a, b = farthest_pair_reference(points, colors)
    pa, pb = points[a], points[b]
    c = 0
    for v in range(len(points)):
        if d(points[v], pa) + d(points[v], pb) > d(points[c], pa) + d(points[c], pb):
            c = v
    ka, kb = order.index(colors[a]), order.index(colors[b])
    reps, edges = {colors[a]: a, colors[b]: b}, [(ka, kb)]
    for k, color in enumerate(order):
        if k not in (ka, kb):
            p, q = farthest(color, pa), farthest(color, pb)
            far_a = d(points[p], pa) >= d(points[q], pb)
            reps[color] = p if far_a else q
            edges.append((ka if far_a else kb, k))
    cands = [star(farthest(colors[a], pa), "S1"), star(farthest(colors[b], pb), "S2"),
             star(c, "S3"), candidate("D", reps, edges)]
    winner = cands[0]
    for cand in cands[1:]:
        if cand["length"] > winner["length"]:
            winner = cand
    ab = d(pa, pb)
    upper = (len(order) - 1) * ab
    return dict(winner, upper_bound=upper, metrics={
        "ab_pair": [a, b],
        "ab_length": ab,
        "ratio_to_upper": winner["length"] / upper if upper > 0 else None,
        "candidate_lengths": {cand["candidate"]: cand["length"] for cand in cands},
    })


def solve_ncst_reference(pts, prune: bool = True) -> dict:
    """solve_ncst from its public builders, one candidate at a time: every
    star, the monotone path on collinear input, and build_Ta and build_Tb
    for every guess, each checked by is_noncrossing (a ValueError rejects
    it) and its length the math.fsum of its edges' hypot distances.  The
    first strictly longest candidate wins, in the order stars by center,
    path, every T_a, every T_b.  The diametral pair comes from
    farthest_pair_reference and collinearity from orientation_reference;
    the path orders the points by their exact projection onto that pair,
    ties by index.  Returns the report's fields and the guesses; raises
    ValueError when no candidate is valid."""
    from fractions import Fraction

    from longspan import Tree, build_Ta, build_Tb, is_noncrossing, ncst_params, star

    n = len(pts)
    iu, iv = farthest_pair_reference(pts, range(n))
    diam = math.hypot(pts[iu][0] - pts[iv][0], pts[iu][1] - pts[iv][1])
    threshold = ncst_params(1.0).d * diam * (1.0 - 1e-12)
    guesses = []
    for i in range(n):
        for j in range(i + 1, n):
            ab = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            if ab != 0.0 and not (prune and ab < threshold):
                guesses.append((i, j))
    cands = [("star", None, star(pts, c), c) for c in range(n)]
    if all(orientation_reference(pts[iu], pts[iv], p) == 0 for p in pts):
        (ux, uy), (vx, vy) = (map(Fraction, pts[iu]), map(Fraction, pts[iv]))
        proj = [(Fraction(x) - ux) * (vx - ux) + (Fraction(y) - uy) * (vy - uy) for x, y in pts]
        order = sorted(range(n), key=proj.__getitem__)
        cands.append(("path", None, Tree(n, tuple(zip(order, order[1:]))), None))
    cands += [("Ta", g, build_Ta(pts, *g).tree, None) for g in guesses]
    cands += [("Tb", g, build_Tb(pts, *g).tree, None) for g in guesses]
    best = None
    for tag, guess, tree, center in cands:
        if tree is None:
            continue
        try:
            ok = is_noncrossing(tree, pts)[0]
        except ValueError:
            ok = False
        length = math.fsum(
            math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) for i, j in tree.edges
        )
        if ok and (best is None or length > best[0]):
            best = length, tag, guess, tree, center
    if best is None:
        raise ValueError("no valid noncrossing candidate")
    length, tag, guess, tree, center = best
    metrics = {"diameter": diam, "diametral_pair": [iu, iv], "guesses_tried": len(guesses),
               "pruned": prune, "ratio_to_upper": length / ((n - 1) * diam)}
    if center is not None:
        metrics["center"] = center
    return {"candidate": tag, "guess": guess, "edges": tree.edges, "length": length,
            "metrics": metrics, "guesses": guesses}


def f1_reference(ab_len: float) -> float:
    """The middle-region edge cap f1 as the 0.519 derivation writes it: the
    nested radical c1b at the top of the inner ellipse E2, whose focal sum
    is gamma, plus (1 - |ab|) c1b / ((1 - omega) |ab|)."""
    from longspan import ncst_params

    params = ncst_params(min(ab_len, 1.0))
    g = params.gamma
    c1b = math.sqrt(
        (1.0 - params.omega) ** 2 * ab_len * ab_len
        + ((g * g - ab_len * ab_len) / (g * g))
        * ((g / 2.0) ** 2 - (ab_len / 2.0 - params.omega * ab_len) ** 2)
    )
    return c1b + (1.0 - ab_len) * c1b / ((1.0 - params.omega) * ab_len)
