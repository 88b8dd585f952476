import math
import random

import pytest

from longspan.instances import GenSpec, generate
from longspan.neighborhoods import Neighborhood, NeighborhoodSet
from longspan.noncrossing import solve_ncst
from longspan.oracles import exact_ncst, exact_stnb, oracle_ratio
from longspan.trees import (
    is_noncrossing,
    max_spanning_tree,
    tree_length,
    validate_spanning_tree,
)

from helpers import (
    all_labeled_trees,
    edge_length_sum,
    max_noncrossing_tree_bruteforce,
)


def test_exact_ncst_two_and_three_points():
    assert exact_ncst([(0, 0), (3, 1)]).edges == ((0, 1),)
    # any tree on three points is noncrossing: the two longest sides win
    pts = [(0, 0), (4, 0), (1, 2)]
    t = exact_ncst(pts)
    sides = sorted(
        (math.dist(pts[i], pts[j]) for i in range(3) for j in range(i + 1, 3)),
        reverse=True,
    )
    assert tree_length(t, pts) == pytest.approx(sides[0] + sides[1], abs=1e-12)


def test_exact_ncst_unit_square():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    t = exact_ncst(pts)
    # the two diagonals cross, so the optimum is one diagonal plus two sides
    assert tree_length(t, pts) == pytest.approx(2 + math.sqrt(2), abs=1e-12)
    assert is_noncrossing(t, pts)[0]
    assert tree_length(t, pts) == pytest.approx(
        max_noncrossing_tree_bruteforce(pts), abs=1e-12
    )


def test_exact_ncst_guard():
    pts = [(k, k % 3) for k in range(12)]
    with pytest.raises(ValueError, match="too large"):
        exact_ncst(pts)
    exact_ncst(pts, max_n=12)  # override allows it


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_ncst_rejects_non_finite_points(bad):
    pts = [(0, 0), (bad, 0), (1, 1)]
    with pytest.raises(ValueError, match="point 1 has a non-finite coordinate"):
        exact_ncst(pts)


def test_exact_ncst_matches_unpruned_enumeration():
    rng = random.Random(41)
    for _ in range(12):
        n = rng.randrange(3, 7)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        fast = exact_ncst(pts, prune=True)
        slow = exact_ncst(pts, prune=False)
        assert fast.edges == slow.edges
        assert tree_length(fast, pts) == pytest.approx(
            max_noncrossing_tree_bruteforce(pts), abs=1e-9
        )


def test_exact_ncst_below_crossing_relaxation():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randrange(4, 8)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        t = exact_ncst(pts)
        assert validate_spanning_tree(t, pts) is None
        assert is_noncrossing(t, pts)[0]
        assert tree_length(t, pts) <= tree_length(max_spanning_tree(pts), pts) + 1e-12


def test_exact_stnb_singletons_equal_max_spanning_tree():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randrange(2, 7)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        nbs = NeighborhoodSet(
            [Neighborhood(k + 1, ((p,),)) for k, p in enumerate(pts)]
        )
        sol = exact_stnb(nbs)
        assert sol.length == pytest.approx(
            tree_length(max_spanning_tree(pts), pts), abs=1e-12
        )
        assert sol.candidate == "oracle"


def test_exact_stnb_counterexample_prefers_far_vertex():
    n, eps = 6, 1.0 / 6.0
    nbs = generate(GenSpec(kind="diam_counterexample", n=n, seed=1, epsilon=eps))
    sol = exact_stnb(nbs)
    # the optimum selects the far vertex (3 - 2eps, 0) of the first region
    assert sol.representatives[1] == 1
    assert sol.length >= (1 - 2 * eps) + (2 - 3 * eps) * (n - 2) - 1e-9


def test_exact_stnb_symmetric_tie():
    nbs = NeighborhoodSet(
        [
            Neighborhood(1, (((0.0, 0.0),), ((2.0, 0.0),))),
            Neighborhood(2, (((1.0, 0.0),),)),
        ]
    )
    sol = exact_stnb(nbs)
    assert sol.length == pytest.approx(1.0, abs=1e-12)
    assert sol.representatives[1] == 0  # first assignment wins the tie


def test_exact_stnb_guard():
    nbs = NeighborhoodSet(
        [
            Neighborhood(1, ((((0.0, 0.0)), (1.0, 1.0), (2.0, 0.5)),)),
            Neighborhood(2, (((0.5, 0.5), (1.5, 0.0), (2.5, 1.0)),)),
        ]
    )
    with pytest.raises(ValueError, match="too large"):
        exact_stnb(nbs, max_assignments=8)


def test_exact_stnb_assignment_enumeration_matches_bruteforce():
    rng = random.Random(44)
    nbs = generate(
        GenSpec(kind="random_neighborhoods", n=3, seed=5, vertices_per_nb=3)
    )
    best = -1.0
    import itertools

    for assign in itertools.product(*nbs.ranges):
        pts = [nbs.points[v] for v in assign]
        for edges in all_labeled_trees(len(pts)):
            best = max(best, edge_length_sum(edges, pts))
    assert exact_stnb(nbs).length == pytest.approx(best, abs=1e-12)


def test_oracle_ratio_records():
    pts = list(generate(GenSpec(kind="uniform_square", n=6, seed=77)))
    rep = solve_ncst(pts)
    rec = oracle_ratio(pts, rep)
    assert rec.ratio == pytest.approx(rep.length / rec.oracle_length)
    assert rec.ratio >= 0.519
    assert rep.metrics["ratio_to_upper"] <= rec.ratio + 1e-12
    assert rep.upper_bound >= rec.oracle_length - 1e-12

    rep_same = solve_ncst(pts)
    rec = oracle_ratio(pts, rep_same, oracle_length=rep_same.length)
    assert rec.ratio == pytest.approx(1.0)


def test_oracle_ratio_with_given_length_rejects_non_finite_points():
    pts = list(generate(GenSpec(kind="uniform_square", n=6, seed=77)))
    rep = solve_ncst(pts)
    pts[4] = (math.nan, 0.5)
    with pytest.raises(ValueError, match="point 4 has a non-finite coordinate"):
        oracle_ratio(pts, rep, oracle_length=rep.length)


def test_two_cluster_star_ratio_near_half():
    # with two tight clusters the best star is half the Max-ST plus O(1/n)
    from longspan.trees import best_star

    pts = generate(GenSpec(kind="two_cluster", n=8, seed=3, epsilon=1e-6))
    st, _ = best_star(pts)
    ratio = tree_length(st, pts) / tree_length(max_spanning_tree(pts), pts)
    assert 0.5 - 1e-9 <= ratio <= 0.5 + 3.0 / 8


def test_oracle_ratio_mismatch():
    pts = list(generate(GenSpec(kind="uniform_square", n=6, seed=78)))
    rep = solve_ncst(pts)
    with pytest.raises(ValueError, match="does not match"):
        oracle_ratio(pts + [(0.5, 0.5)], rep)
