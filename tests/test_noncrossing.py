import math
import random

import pytest

from longspan.geometry import dist
from longspan.instances import GenSpec, generate
from longspan.noncrossing import (
    build_Ta,
    build_Tb,
    classify_points,
    ncst_params,
    solve_ncst,
)
from longspan.oracles import exact_ncst
from longspan.trees import is_noncrossing, tree_length, validate_spanning_tree

from helpers import max_noncrossing_tree_bruteforce


def test_ncst_params_values():
    p = ncst_params(1.0)
    assert p.d == pytest.approx(0.9633911368015414, abs=1e-12)
    assert p.alpha_hat == pytest.approx(0.133809, abs=1e-6)
    assert p.lam == pytest.approx(1.79787, abs=1e-5)
    assert p.lam == pytest.approx(2 * math.sqrt(3) * 0.519, abs=1e-12)
    assert p.gamma == pytest.approx(1.2840, abs=1e-3)

    pd = ncst_params(p.d)
    assert pd.lam == pytest.approx(1.83448, abs=1e-5)

    with pytest.raises(ValueError):
        ncst_params(0.0)
    with pytest.raises(ValueError):
        ncst_params(1.1)


def test_ncst_params_identities():
    for ab in (0.97, 0.99, 1.0):
        p = ncst_params(ab)
        # gamma is chosen so the anchored-star average meets the ratio exactly
        assert (ab + p.alpha_hat * (p.gamma - ab)) / (2 * ab) == pytest.approx(
            p.delta, abs=1e-12
        )
    p = ncst_params(1.0)
    assert (2 - 3 * p.omega + (p.omega - 1) * (p.alpha_hat + p.beta_hat)) / 2 == (
        pytest.approx(p.delta, abs=1e-12)
    )


def test_classify_points_hand_checked():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.8), (0.5, 0.0), (0.5, 0.9)]
    cls = classify_points(pts, 0, 1)
    p = cls.params
    # (0.5, 0.8): inside L, focal sum 2*sqrt(0.89) > lam, hence in Q
    assert 2 * math.sqrt(0.89) > p.lam
    assert cls.labels[2].in_L and cls.labels[2].in_Q
    # a itself: left strip, inside the outer ellipse, not in Q
    assert cls.labels[0].strip == "left" and not cls.labels[0].in_Q
    # the midpoint: middle strip, inside E2 (sum 1 < gamma), hence in M
    assert p.gamma > 1.0
    assert cls.labels[3].strip == "middle" and cls.labels[3].in_E2 and cls.labels[3].in_M
    # (0.5, 0.9) is outside the radius-1 lens (distance sqrt(1.06) > 1), so
    # it cannot be in Q even though its focal sum exceeds lam
    assert math.sqrt(1.06) > 1.0
    assert not cls.labels[4].in_L and not cls.labels[4].in_Q


def test_classify_points_fractions():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.8), (0.5, 0.0)]
    cls = classify_points(pts, 0, 1)
    assert cls.alpha == pytest.approx(0.25)  # only (0.5, 0.8) escapes E2
    assert cls.beta == pytest.approx(0.25)  # only the midpoint is in M
    assert cls.beta_prime == pytest.approx(0.5)  # both middle-strip points
    assert cls.beta_prime <= cls.alpha + cls.beta + 1e-12


def test_strip_boundaries_count_as_middle():
    p = ncst_params(1.0)
    pts = [(0.0, 0.0), (1.0, 0.0), (p.omega, 0.1), (1 - p.omega, -0.1)]
    cls = classify_points(pts, 0, 1)
    assert cls.labels[2].strip == "middle"
    assert cls.labels[3].strip == "middle"


def test_build_Ta_all_points_right_is_star_at_a():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.9, 0.1), (0.95, -0.2)]
    cand = build_Ta(pts, 0, 1)
    assert cand.noncrossing
    assert cand.tree.edges == ((0, 1), (0, 2), (0, 3))


def test_build_Ta_left_point_joins_its_wedge_spoke():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.05, 0.02), (0.9, 0.3)]
    cand = build_Ta(pts, 0, 1)
    assert cand.noncrossing
    assert validate_spanning_tree(cand.tree, pts) is None
    assert is_noncrossing(cand.tree, pts)[0]
    # the left point lies above the spoke to (0.9, 0.3), so it attaches there
    assert (2, 3) in cand.tree.edges


def test_build_Ta_middle_points_attach_to_anchor_or_mate():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.3, 0.2), (0.5, -0.1), (0.7, 0.15)]
    cand = build_Ta(pts, 0, 1)
    assert cand.noncrossing
    assert validate_spanning_tree(cand.tree, pts) is None
    for i, j in cand.tree.edges:
        k = j if i in (0, 1) else i
        if k in (2, 3, 4):
            lo = min(dist(pts[k], pts[0]), dist(pts[k], pts[1]))
            assert dist(pts[i], pts[j]) >= lo - 1e-12


def test_build_Tb_mirrors_Ta():
    rng = random.Random(31)
    pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(7)]
    ta = build_Ta(pts, 2, 5)
    tb = build_Tb(pts, 2, 5)
    mirrored = build_Ta(pts, 5, 2)
    assert tb.tree.edges == mirrored.tree.edges
    assert ta.guess == tb.guess == (2, 5)


def test_solve_ncst_two_points():
    rep = solve_ncst([(0, 0), (2, 1)])
    assert rep.tree.edges == ((0, 1),)
    assert rep.length == pytest.approx(math.hypot(2, 1))


def test_solve_ncst_collinear_inputs():
    # three collinear points: the star at the middle point is the path
    rep = solve_ncst([(0, 0), (1, 0), (2, 0)])
    assert rep.length == pytest.approx(2.0)
    assert is_noncrossing(rep.tree, [(0, 0), (1, 0), (2, 0)])[0]
    # four collinear points: every star self-overlaps, the path substitutes
    pts = [(0, 0), (1, 0), (2, 0), (3, 0)]
    rep = solve_ncst(pts)
    assert rep.candidate == "path"
    assert rep.tree.edges == ((0, 1), (1, 2), (2, 3))
    assert rep.length == pytest.approx(3.0)


def test_solve_ncst_two_cluster_reaches_half():
    eps = 1e-4
    pts = generate(GenSpec(kind="two_cluster", n=20, seed=9, epsilon=eps))
    rep = solve_ncst(pts)
    assert rep.length >= (20 / 2) * (1 - 2 * eps)
    assert validate_spanning_tree(rep.tree, pts) is None
    assert is_noncrossing(rep.tree, pts)[0]


def test_solve_ncst_beats_ratio_vs_bruteforce_oracle():
    for k in range(10):
        spec = GenSpec(kind="uniform_square", n=5 + k % 2, seed=1000 + k)
        pts = generate(spec)
        rep = solve_ncst(pts)
        assert validate_spanning_tree(rep.tree, pts) is None
        assert is_noncrossing(rep.tree, pts)[0]
        opt = max_noncrossing_tree_bruteforce(pts)
        assert rep.length >= 0.519 * opt - 1e-12
        assert rep.length <= opt + 1e-9


def test_solve_ncst_output_dominates_stars():
    rng = random.Random(33)
    for _ in range(8):
        n = rng.randrange(4, 9)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        rep = solve_ncst(pts)
        diam = max(
            dist(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n)
        )
        assert rep.length >= (n / 2) * diam - 1e-9


def test_solve_ncst_scaling_leaves_winner_unchanged():
    rng = random.Random(34)
    pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(8)]
    rep = solve_ncst(pts)
    scaled = [(3.7 * x, 3.7 * y) for x, y in pts]
    rep_s = solve_ncst(scaled)
    assert rep_s.candidate == rep.candidate
    assert rep_s.guess == rep.guess
    assert rep_s.tree.edges == rep.tree.edges
    assert rep_s.length == pytest.approx(3.7 * rep.length, rel=1e-12)


def test_solve_ncst_and_exact_ncst_are_scale_invariant():
    # coordinates are multiples of 2^-20 in [0, 1), so scaling by 2^k is
    # exact and every pairwise distance stays a normal double for k >= -1000;
    # below k = -480 the orientation products underflow and the exact path
    # decides every sign
    rng = random.Random(36)
    pts = [(rng.randrange(1 << 20) / (1 << 20), rng.randrange(1 << 20) / (1 << 20))
           for _ in range(12)]
    base = solve_ncst(pts)
    base_exact = exact_ncst(pts, max_n=12)
    for k in sorted(set(range(-1000, 501, 250)) | {-540, -481, -480}):
        scaled = [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in pts]
        rep = solve_ncst(scaled)
        assert (rep.tree.edges, rep.candidate, rep.guess) == (
            base.tree.edges, base.candidate, base.guess), k
        assert exact_ncst(scaled, max_n=12).edges == base_exact.edges, k


def test_solve_ncst_prune_matches_noprune():
    rng = random.Random(35)
    for _ in range(6):
        n = rng.randrange(4, 8)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        a = solve_ncst(pts, prune=True)
        b = solve_ncst(pts, prune=False)
        assert a.length <= b.length + 1e-12  # extra guesses can only help
        assert b.length >= a.length - 1e-12


def test_solve_ncst_keeps_the_first_of_tied_candidates():
    # the four stars of the unit square all have length 2 + sqrt(2)
    rep = solve_ncst([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert (rep.candidate, rep.length, rep.metrics["center"]) == ("star", 3.414213562373095, 0)
    # a dyadic mirror-symmetric set: every T_a comes before every T_b, so
    # Ta (1, 4) wins here, where taking T_a and T_b guess by guess would
    # pick Tb (0, 5)
    pts = [(0.25, -0.5), (0.75, -0.5), (0.1875, 0.0), (0.8125, 0.0), (0.0, 0.25),
           (1.0, 0.25), (0.375, -0.25), (0.625, -0.25)]
    rep = solve_ncst(pts)
    assert (rep.candidate, rep.guess) == ("Ta", (1, 4))


def test_solve_ncst_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        solve_ncst([(0, 0)])
    with pytest.raises(ValueError, match="coincide"):
        solve_ncst([(1, 1), (1, 1)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solve_ncst_rejects_non_finite_points(bad):
    pts = [(0, 0), (1, 0), (0.5, bad), (bad, 1)]
    with pytest.raises(ValueError, match="point 2 has a non-finite coordinate"):
        solve_ncst(pts)


def test_solve_ncst_takes_duplicate_points():
    # the anchored trees' fallback used to try a zero-length edge to a vertex
    # at the point's own coordinates and raise "degenerate segment"
    with pytest.raises(ValueError, match="no valid noncrossing candidate"):
        solve_ncst([(2, 1), (1, 1), (1, 1), (1, 0), (1, 1)])
    solved = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randrange(4, 16)
        pts = [(rng.random(), rng.random()) for _ in range(n - 1)]
        pts.insert(rng.randrange(n), pts[rng.randrange(n - 1)])
        try:
            rep = solve_ncst(pts)
        except ValueError as exc:
            assert "no valid noncrossing candidate" in str(exc)
            continue
        assert validate_spanning_tree(rep.tree, pts) is None
        assert is_noncrossing(rep.tree, pts)[0]
        solved += 1
    assert solved > 0


def test_anchored_tree_phase_edge_floors():
    # red edges reach past the far strip line, blue edges span both strips
    rng = random.Random(36)
    p = ncst_params(1.0)
    for _ in range(20):
        n = rng.randrange(4, 10)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        a, b = rng.sample(range(n), 2)
        cand = build_Ta(pts, a, b)
        if not cand.noncrossing:
            continue
        ab = dist(pts[a], pts[b])
        ux = (pts[b][0] - pts[a][0]) / ab
        uy = (pts[b][1] - pts[a][1]) / ab

        def xproj(k):
            return (pts[k][0] - pts[a][0]) * ux + (pts[k][1] - pts[a][1]) * uy

        for i, j in cand.tree.edges:
            if a in (i, j):
                other = j if i == a else i
                if xproj(other) > (1 - p.omega) * ab:  # red spoke
                    assert dist(pts[i], pts[j]) >= (1 - p.omega) * ab - 1e-12
            else:
                lo = min(xproj(i), xproj(j))
                hi = max(xproj(i), xproj(j))
                if lo < p.omega * ab and hi > (1 - p.omega) * ab:  # blue edge
                    assert dist(pts[i], pts[j]) >= (1 - 2 * p.omega) * ab - 1e-12


def test_star_covers_q_point_instances():
    # when the optimal tree's longest edge is long and some point escapes the
    # outer ellipse, the best star alone already reaches delta * (n-1) * diam
    from longspan.oracles import exact_ncst
    from longspan.trees import best_star

    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.85), (0.45, 0.1), (0.55, 0.15)]
    from longspan.geometry import diametral_pair

    iu, iv = diametral_pair(pts)
    diam = dist(pts[iu], pts[iv])
    opt = exact_ncst(pts)
    a, b = max(opt.edges, key=lambda e: dist(pts[e[0]], pts[e[1]]))
    ab = dist(pts[a], pts[b])
    assert ab >= ncst_params(1.0).d * diam  # long-guess precondition holds
    scaled = [(x / diam, y / diam) for x, y in pts]
    cls = classify_points(scaled, a, b)
    assert any(lab.in_Q for lab in cls.labels)  # Q-point precondition holds
    st, _ = best_star(pts)
    n = len(pts)
    assert tree_length(st, pts) >= 0.519 * (n - 1) * diam - 1e-9
    rep = solve_ncst(pts)
    assert rep.length >= 0.519 * tree_length(opt, pts) - 1e-12

