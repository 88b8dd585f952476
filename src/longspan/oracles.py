"""Exact brute-force reference solvers, usable at desk scale only.

exact_ncst enumerates noncrossing spanning trees over a descending edge
list with branch-and-bound pruning; exact_stnb enumerates representative
assignments and solves each with exact Prim.  Guards are hard errors: a
silently truncated oracle would invalidate every ratio it certifies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .geometry import (
    _check_length_bound, _dist_row, _farthest_pair, _first_crossing, _segment, as_points, dist,
)
from .neighborhoods import NeighborhoodSet, StnbSolution, _stnb_solution
from .report import SolveReport
from .trees import Tree, _prim, tree_length


def exact_ncst(
    points: Sequence[Sequence[float]], max_n: int = 9, prune: bool = True
) -> Tree:
    """A maximum-length noncrossing spanning tree, found exactly.

    Depth-first search over all edges sorted by length descending, keeping
    partial forests acyclic and pairwise noncrossing.  With prune=True an
    optimistic bound (current length plus the longest still-available edges)
    cuts hopeless branches; the bound carries a small relative slack so
    pruned and unpruned runs return identical trees at any coordinate scale.
    Ties break to the lexicographically smallest edge list.  Input whose
    extent overflows a double is rejected, as by diametral_pair, and so is
    input where (n - 1) times the longest distance overflows.
    """
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points")
    if n > max_n:
        raise ValueError("instance too large for oracle")
    pts = as_points(points)
    _check_length_bound(n - 1, _farthest_pair(pts, range(n))[1])

    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            d = dist(pts[i], pts[j])
            if d > 0.0:
                edges.append((d, i, j))
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))
    m = len(edges)
    prefix = list(itertools.accumulate((e[0] for e in edges), initial=0.0))

    segs = [_segment(pts[i], pts[j]) for _, i, j in edges]
    cross_mask = [0] * m
    for x in range(m):
        y = x
        while (y := _first_crossing(segs[x], segs, y + 1)) >= 0:
            cross_mask[x] |= 1 << y
            cross_mask[y] |= 1 << x

    target = n - 1
    slack = 1e-9 * prefix[min(target, m)]
    best_len = -1.0
    best_edges: tuple[tuple[int, int], ...] | None = None

    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    def dfs(k: int, length: float, chosen_mask: int, chosen: tuple[int, ...]) -> None:
        nonlocal best_len, best_edges
        if len(chosen) == target:
            tree_edges = tuple(sorted((edges[x][1], edges[x][2]) for x in chosen))
            if length > best_len or (length == best_len and tree_edges < best_edges):
                best_len, best_edges = length, tree_edges
            return
        need = target - len(chosen)
        if m - k < need:
            return
        if prune and length + (prefix[k + need] - prefix[k]) < best_len - slack:
            return
        d, i, j = edges[k]
        ri, rj = find(i), find(j)
        if ri != rj and not (cross_mask[k] & chosen_mask):
            parent[ri] = rj
            dfs(k + 1, length + d, chosen_mask | (1 << k), chosen + (k,))
            parent[ri] = ri
        dfs(k + 1, length, chosen_mask, chosen)

    dfs(0, 0.0, 0, ())
    if best_edges is None:
        raise ValueError("no noncrossing spanning tree found")
    return Tree(n, best_edges)


def exact_stnb(nbs: NeighborhoodSet, max_assignments: int = 10**6) -> StnbSolution:
    """The optimal representative assignment, by full enumeration.

    Every combination of one vertex per neighborhood is scored with an exact
    maximum spanning tree; the guard errors out (rather than truncating)
    when the assignment space exceeds max_assignments.  Input whose extent
    overflows a double, or where (n - 1) times the bichromatic diameter
    does, is rejected with solve_stnb's message.
    """
    space = 1
    for r in nbs.ranges:
        space *= len(r)
        if space > max_assignments:
            raise ValueError("instance too large for oracle")

    _check_length_bound(nbs.n - 1, _farthest_pair(nbs.points, nbs.colors, nbs.floats)[1])
    dmat = [_dist_row(nbs.points, p, nbs.floats) for p in nbs.points]
    best_len = -1.0
    best_assign: tuple[int, ...] | None = None
    for assign in itertools.product(*nbs.ranges):
        parent, length = _prim(dmat.__getitem__, assign, 0, None)
        if length > best_len:
            best_len, best_assign, best_parent = length, assign, parent

    return _stnb_solution(nbs, best_assign, [(best_parent[t], t) for t in range(1, nbs.n)], "oracle")


@dataclass(frozen=True)
class RatioRecord:
    """Approximation quality of one solution against the exact oracle; the
    cheap certificate (n-1) * diameter is the solution's own upper_bound."""

    approx_length: float
    oracle_length: float
    ratio: float


def oracle_ratio(
    instance: Sequence[Sequence[float]] | NeighborhoodSet,
    approx: SolveReport,
    oracle_length: float | None = None,
) -> RatioRecord:
    """Score an approximate solution against the matching exact oracle.

    Runs the oracle itself, with its default size guard, when oracle_length
    is not supplied.  Raises
    ValueError when the solution does not fit the instance or a point has a
    NaN or infinite coordinate.
    """
    nb = isinstance(instance, NeighborhoodSet)
    if approx.tree.n != (instance.n if nb else len(instance)):
        raise ValueError("solution does not match instance")
    pts = None if nb else as_points(instance)  # checked even when oracle_length is given
    if oracle_length is None:
        oracle_length = exact_stnb(instance).length if nb else tree_length(exact_ncst(pts), pts)
    return RatioRecord(
        approx_length=approx.length,
        oracle_length=oracle_length,
        ratio=approx.length / oracle_length if oracle_length > 0 else float("inf"),
    )
