import functools
import math
import operator
import random
from fractions import Fraction

import pytest

from longspan import geometry, trees
from longspan.geometry import dist, orientation
from longspan.instances import GenSpec, generate
from longspan.trees import (
    Tree,
    best_star,
    fermat_point,
    is_noncrossing,
    max_spanning_tree,
    max_spanning_tree_through,
    min_spanning_tree,
    star,
    tree_length,
    validate_spanning_tree,
)

from helpers import (
    all_labeled_trees, edge_length_sum, fermat_grid_oracle, first_crossing_reference, prufer_decode,
)


def test_tree_length_examples():
    pts = [(0, 0), (1, 0), (2, 0)]
    assert tree_length(Tree(3, ((0, 1), (1, 2))), pts) == 2.0
    assert tree_length(Tree(3, ((0, 1), (0, 2))), [(0, 0), (1, 0), (0, 1)]) == 2.0
    assert tree_length(Tree(1, ()), [(5, 5)]) == 0.0
    with pytest.raises(IndexError):
        tree_length(Tree(3, ((0, 3),)), pts)


def test_tree_normalizes_edges():
    t = Tree(3, ((2, 0), (1, 0)))
    assert t.edges == ((0, 1), (0, 2))


def test_validate_spanning_tree_examples():
    pts = [(0, 0), (1, 0), (0, 1)]
    assert validate_spanning_tree(star(pts, 0), pts) is None
    assert "duplicate edge" in validate_spanning_tree(Tree(3, ((0, 1), (0, 1))), pts)
    assert "not spanning" in validate_spanning_tree(Tree(3, ((0, 1),)), pts)
    assert "cycle" in validate_spanning_tree(Tree(3, ((0, 1), (1, 2), (0, 2))), pts)
    assert "self-loop" in validate_spanning_tree(Tree(3, ((1, 1), (0, 2))), pts)
    assert "out of range" in validate_spanning_tree(Tree(3, ((0, 5), (0, 1))), pts)
    assert validate_spanning_tree(star(pts, 0), pts[:2]) == (
        "vertex count mismatch: tree has 3, got 2 points")


def test_is_noncrossing_examples():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    ok, pair = is_noncrossing(star(pts, 0), pts)
    assert ok and pair is None
    ok, pair = is_noncrossing(Tree(4, ((0, 2), (1, 3), (0, 1))), pts)
    assert not ok
    assert set(pair) == {(0, 2), (1, 3)}
    ok, _ = is_noncrossing(Tree(4, ((0, 1), (1, 2), (2, 3))), pts)
    assert ok


def test_is_noncrossing_catches_collinear_star_overlap():
    pts = [(0, 0), (1, 0), (2, 0)]
    ok, pair = is_noncrossing(star(pts, 0), pts)
    assert not ok  # edges (0,1) and (0,2) overlap along the x-axis
    ok, _ = is_noncrossing(Tree(3, ((0, 1), (1, 2))), pts)
    assert ok


def test_is_noncrossing_rejects_zero_length_edges_up_front():
    # the scan used to stop at the crossing pair before reaching (4, 4)
    pts = [(0, 0), (2, 2), (0, 2), (2, 0), (5, 5)]
    for edges in (((0, 1), (2, 3), (4, 4)), ((0, 4), (1, 2), (4, 4))):
        with pytest.raises(ValueError, match=r"zero-length edge \(4, 4\)"):
            is_noncrossing(Tree(5, edges), pts)


def test_is_noncrossing_matches_brute_reference_scan():
    rng = random.Random(6)
    # points on a line up to rounding, every other one moved by one ulp
    line = [(x / 7, 0.3 * (x / 7) + 0.1) for x in range(16)]
    families = {
        "int lattice": LATTICE_4X4,
        "float": [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16)],
        "2^-540": [(x * 2.0**-540, y * 2.0**-540) for x, y in LATTICE_4X4],
        "2^500": [(x * 2.0**500, y * 2.0**500) for x, y in LATTICE_4X4],
        "near-collinear": [
            (x, math.nextafter(y, (-1) ** (k // 2) * math.inf) if k % 2 else y)
            for k, (x, y) in enumerate(line)
        ],
    }
    for name, points in families.items():
        trees = [star(points, c) for c in range(16)]
        for _ in range(60):
            k = rng.randint(3, 9)
            seq = tuple(rng.randrange(k) for _ in range(k - 2))
            trees.append(Tree(k, tuple(prufer_decode(seq, k))))
        verdicts = set()
        for tree in trees:
            pts = rng.sample(points, tree.n) if tree.n < 16 else points
            pair = first_crossing_reference(tree.edges, pts)
            verdicts.add(pair is None)
            assert is_noncrossing(tree, pts) == (pair is None, pair), name
        assert verdicts == {True, False}, name


def test_is_noncrossing_decides_star_pairs_on_float_signs(monkeypatch):
    # spokes of a star share the centre, and on uniform points the filter
    # certifies their far ends off one line through it; a spoke pair that
    # it cannot certify makes one exact orientation call
    calls = 0

    def counting(p, q, r):
        nonlocal calls
        calls += 1
        return orientation(p, q, r)

    monkeypatch.setattr(geometry, "orientation", counting)
    pts = generate(GenSpec("uniform_square", 32, 12))
    for c in range(0, 32, 4):
        tree = star(pts, c)
        assert first_crossing_reference(tree.edges, pts) is None
        assert is_noncrossing(tree, pts) == (True, None)
    # the kernel decides at least 90% of the 8 x 465 spoke pairs itself
    assert calls <= 0.1 * 8 * (31 * 30 // 2)


def test_min_spanning_tree_examples():
    t = min_spanning_tree([(0, 0), (1, 0), (2, 0)])
    assert t.edges == ((0, 1), (1, 2))
    assert tree_length(t, [(0, 0), (1, 0), (2, 0)]) == 2.0

    eq = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
    assert tree_length(min_spanning_tree(eq), eq) == pytest.approx(2.0, abs=1e-12)

    assert min_spanning_tree([(3, 3)]).edges == ()
    with pytest.raises(ValueError):
        min_spanning_tree([])


def test_max_spanning_tree_examples():
    pts = [(0, 0), (1, 0), (2, 0)]
    t = max_spanning_tree(pts)
    assert tree_length(t, pts) == 3.0
    assert (0, 2) in t.edges

    assert max_spanning_tree([(0, 0), (2, 1)]).edges == ((0, 1),)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [min_spanning_tree, max_spanning_tree, lambda pts: max_spanning_tree_through(pts, 0, 2)],
)
def test_spanning_trees_reject_non_finite_points(build, bad):
    with pytest.raises(ValueError, match="point 1 has a non-finite coordinate"):
        build([(0, 0), (bad, 0), (1, 0)])


def test_spanning_trees_against_full_enumeration():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randrange(2, 6)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        lengths = [edge_length_sum(edges, pts) for edges in all_labeled_trees(n)]
        lo = tree_length(min_spanning_tree(pts), pts)
        hi = tree_length(max_spanning_tree(pts), pts)
        assert lo == pytest.approx(min(lengths), abs=1e-12)
        assert hi == pytest.approx(max(lengths), abs=1e-12)
        assert all(lo - 1e-12 <= v <= hi + 1e-12 for v in lengths)


def test_max_spanning_tree_five_random_points_vs_oracle():
    rng = random.Random(12)
    pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(5)]
    best = max(edge_length_sum(e, pts) for e in all_labeled_trees(5))
    assert tree_length(max_spanning_tree(pts), pts) == pytest.approx(best, abs=1e-12)


def test_min_spanning_tree_is_noncrossing():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(3, 12)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        t = min_spanning_tree(pts)
        assert validate_spanning_tree(t, pts) is None
        assert is_noncrossing(t, pts)[0]


def test_max_spanning_tree_through_forces_edge():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randrange(3, 7)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        i, j = 0, n - 1
        t = max_spanning_tree_through(pts, i, j)
        assert validate_spanning_tree(t, pts) is None
        assert (min(i, j), max(i, j)) in t.edges
        best = max(
            edge_length_sum(e, pts)
            for e in all_labeled_trees(n)
            if (min(i, j), max(i, j)) in e
        )
        assert tree_length(t, pts) == pytest.approx(best, abs=1e-12)
    for forced in ((1, 1), (-1, 0), (0, n)):
        with pytest.raises(ValueError, match="invalid forced edge"):
            max_spanning_tree_through(pts, *forced)


def test_spanning_trees_take_the_float_row_on_floats(monkeypatch):
    # all-float input builds its Prim rows with math.dist and other input on
    # the exact-difference path; the trees equal those built on the
    # exact-difference path throughout.  Floats beside ints near 2^60 that
    # no double holds are made Fractions, so those sets take it too.
    rng = random.Random(30)
    corpus = []
    for _ in range(60):
        n = rng.randrange(2, 12)
        corpus += [
            [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)],
            [(rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(n)],
            [(Fraction(rng.randrange(-9, 10), 7), Fraction(rng.randrange(-9, 10), 3))
             for _ in range(n)],
            [(rng.choice((float, int))(2**60 + rng.randrange(0, 1024, 64)), rng.randrange(3))
             for _ in range(n)],
        ]
    builds = (min_spanning_tree, max_spanning_tree,
              lambda pts: max_spanning_tree_through(pts, 0, len(pts) - 1))
    dist_row, verdicts = geometry._dist_row, []

    def exact_row(points, origin, floats):
        return dist_row(points, origin, False)

    def spy(points, origin, floats):
        verdicts.append(floats)
        return dist_row(points, origin, floats)

    for pts in corpus:
        with monkeypatch.context() as m:
            m.setattr(trees, "_dist_row", exact_row)
            want = [build(pts).edges for build in builds]
        verdicts.clear()
        with monkeypatch.context() as m:
            m.setattr(trees, "_dist_row", spy)
            assert [build(pts).edges for build in builds] == want
        assert set(verdicts) == {all(type(c) is float for p in pts for c in p)}


LATTICE_4X4 = [(x, y) for y in range(4) for x in range(4)]
HEXAGON = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def test_spanning_tree_tie_breaks_are_pinned():
    # inputs full of equal distances; the edge lists are the smallest-index
    # tie-breaks of dense Prim, recorded once and kept fixed
    assert min_spanning_tree(LATTICE_4X4).edges == (
        (0, 1), (0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 7), (4, 8),
        (5, 9), (6, 10), (7, 11), (8, 12), (9, 13), (10, 14), (11, 15),
    )
    assert max_spanning_tree(LATTICE_4X4).edges == (
        (0, 10), (0, 11), (0, 14), (0, 15), (1, 15), (2, 12), (2, 15), (3, 8),
        (3, 9), (3, 12), (3, 13), (4, 15), (5, 15), (6, 12), (7, 12),
    )
    assert max_spanning_tree_through(LATTICE_4X4, 1, 14).edges == (
        (0, 10), (0, 11), (0, 14), (0, 15), (1, 14), (2, 12), (2, 15), (3, 8),
        (3, 9), (3, 12), (3, 13), (4, 15), (5, 15), (6, 12), (7, 12),
    )
    assert min_spanning_tree(HEXAGON).edges == ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4))
    assert max_spanning_tree(HEXAGON).edges == ((0, 3), (0, 4), (1, 4), (2, 5), (3, 5))
    assert max_spanning_tree_through(HEXAGON, 5, 0).edges == (
        (0, 3), (0, 4), (0, 5), (1, 4), (2, 5),
    )


def test_star_examples():
    pts = [(0, 0), (1, 0), (0, 1)]
    assert star(pts, 0).edges == ((0, 1), (0, 2))
    assert star([(7, 7)], 0).edges == ()
    t = star([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    assert len(t.edges) == 3 and all(2 in e for e in t.edges)
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=f"center {bad} out of range for 3 points"):
            star(pts, bad)


def test_best_star_examples():
    pts = [(0, 0), (1, 0), (2, 0)]
    t, center = best_star(pts)
    assert center == 0  # ties with center 2 break to the smaller index
    assert tree_length(t, pts) == 3.0

    t, _ = best_star([(4, 2)])
    assert t.edges == ()


def test_best_star_takes_a_numpy_array():
    np = pytest.importorskip("numpy")
    pts = generate(GenSpec("uniform_square", 9, 2))
    assert best_star(np.array(pts)) == best_star(pts)
    with pytest.raises(ValueError, match="empty point set"):
        best_star(np.empty((0, 2)))


def test_best_star_on_two_clusters_is_about_half():
    from longspan.instances import GenSpec, generate

    pts = generate(GenSpec(kind="two_cluster", n=20, seed=5, epsilon=1e-6))
    t, _ = best_star(pts)
    assert tree_length(t, pts) == pytest.approx(10.0, abs=0.01)


def test_best_star_at_least_half_of_max_spanning_tree():
    rng = random.Random(15)
    for _ in range(50):
        n = rng.randrange(2, 12)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        t, _ = best_star(pts)
        assert tree_length(t, pts) >= 0.5 * tree_length(max_spanning_tree(pts), pts) - 1e-12


def test_two_star_lower_bound():
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randrange(2, 10)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        p, q = rng.randrange(n), rng.randrange(n)
        if p == q:
            continue
        sp = tree_length(star(pts, p), pts)
        sq = tree_length(star(pts, q), pts)
        assert max(sp, sq) >= (n / 2) * dist(pts[p], pts[q]) - 1e-9


def test_fermat_point_equilateral():
    eq = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
    res = fermat_point(*eq)
    assert res.degenerate_at_vertex is None
    assert res.smt_length == pytest.approx(math.sqrt(3), abs=1e-9)
    mst = tree_length(min_spanning_tree(eq), eq)
    assert res.smt_length / mst == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
    assert res.steiner_point == pytest.approx((0.5, math.sqrt(3) / 6), abs=1e-9)


def test_fermat_point_collinear_degenerates_at_middle():
    res = fermat_point((0, 0), (1, 0), (2, 0))
    assert res.degenerate_at_vertex == 1
    assert res.steiner_point == (1.0, 0.0)
    assert res.smt_length == 2.0


def test_fermat_point_wide_angle():
    # angle at the origin vertex is 150 degrees
    a, b, c = (0, 0), (1, 0), (-math.cos(math.pi / 6), math.sin(math.pi / 6))
    res = fermat_point(a, b, c)
    assert res.degenerate_at_vertex == 0
    assert res.smt_length == pytest.approx(1.0 + 1.0, abs=1e-12)
    # 120 degrees at a to within rounding: the angle test reads it as just
    # below 120, but the Torricelli weight's denominator rounds to zero
    a = (0.12509285189282648, 0.011226797702000413)
    b = (0.5003815499362818, 0.26173738905935684)
    c = (-0.3477179930692871, 0.244661392057025)
    res = fermat_point(a, b, c)
    assert res.degenerate_at_vertex == 0
    assert res.smt_length == dist(a, b) + dist(a, c)


def test_fermat_point_collapsed_triples():
    res = fermat_point((1, 1), (1, 1), (4, 5))
    assert res.smt_length == pytest.approx(5.0, abs=1e-12)
    res = fermat_point((2, 2), (2, 2), (2, 2))
    assert res.smt_length == 0.0


def test_fermat_point_is_scale_invariant():
    # coordinates are multiples of 2^-20 in [-1, 1), so scaling by 2^k is
    # exact and every nonzero coordinate difference stays a normal double
    # for k >= -1000; at both ends products of raw differences would
    # underflow or overflow
    rng = random.Random(19)
    tris = [
        [(rng.randrange(-1 << 20, 1 << 20) / (1 << 20),
          rng.randrange(-1 << 20, 1 << 20) / (1 << 20)) for _ in range(3)]
        for _ in range(200)
    ]
    for tri in tris:
        base = fermat_point(*tri)
        for k in range(-1000, 1001, 125):
            scaled = [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in tri]
            res = fermat_point(*scaled)
            assert res.degenerate_at_vertex == base.degenerate_at_vertex, (tri, k)
            assert math.ldexp(res.smt_length, -k) == pytest.approx(
                base.smt_length, rel=1e-15), (tri, k)
            sp = tuple(math.ldexp(t, -k) for t in res.steiner_point)
            assert sp == pytest.approx(tuple(base.steiner_point), rel=1e-15, abs=1e-15)
    # equilateral triples with sides 1e-160 and 1e300, at and off the origin
    base = fermat_point((0, 0), (1, 0), (0.5, 0.866))
    for s, (ox, oy) in ((1e-160, (0, 0)), (1e-160, (3e-158, -7e-158)),
                        (1e300, (0, 0)), (1e300, (-2e301, 5e300))):
        res = fermat_point((ox, oy), (ox + s, oy), (ox + 0.5 * s, oy + 0.866 * s))
        assert res.degenerate_at_vertex is None
        assert res.smt_length / s == pytest.approx(base.smt_length, rel=1e-12), s


def test_fermat_point_adds_left_to_right():
    # From Python 3.12 on, sum() over floats is compensated.  fermat_point
    # adds its weights, weighted offsets and lengths left to right instead,
    # as reduce(operator.add) does, so its values are 3.10's and 3.11's on
    # every interpreter.  The weights follow the docstring's closed form.
    add = functools.partial(functools.reduce, operator.add)
    rng = random.Random(19)
    interior = 0
    for _ in range(2000):
        tri = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        res = fermat_point(*tri)
        sp = res.steiner_point
        assert res.smt_length == add(dist(sp, p) for p in tri)
        if res.degenerate_at_vertex is not None:
            continue
        interior += 1
        off = [(x - tri[0][0], y - tri[0][1]) for x, y in tri]
        e = math.frexp(max(abs(t) for o in off for t in o))[1]
        rel = [(math.ldexp(x, -e), math.ldexp(y, -e)) for x, y in off]
        den = []
        for v in range(3):
            u, w = (v + 1) % 3, (v + 2) % 3
            ux, uy = rel[u][0] - rel[v][0], rel[u][1] - rel[v][1]
            wx, wy = rel[w][0] - rel[v][0], rel[w][1] - rel[v][1]
            den.append(abs(ux * wy - uy * wx) + math.sqrt(3.0) * (ux * wx + uy * wy))
        wts = (den[1] * den[2], den[0] * den[2], den[0] * den[1])
        for axis in (0, 1):
            weighted = add(wt * r[axis] for wt, r in zip(wts, rel)) / add(wts)
            assert sp[axis] == tri[0][axis] + math.ldexp(weighted, e)
    assert interior > 1000


def test_fermat_point_matches_grid_oracle():
    rng = random.Random(17)
    for _ in range(15):
        a, b, c = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)]
        res = fermat_point(a, b, c)
        assert res.smt_length == pytest.approx(
            fermat_grid_oracle(a, b, c), abs=1e-6
        )


def test_fermat_point_steiner_ratio_bounds_and_meeting_angles():
    rng = random.Random(18)
    for _ in range(10_000):
        tri = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)]
        res = fermat_point(*tri)
        mst = tree_length(min_spanning_tree(tri), tri)
        assert res.smt_length <= mst + 1e-9
        assert res.smt_length >= (math.sqrt(3) / 2) * mst - 1e-9
        # any extra point connecting the triple cannot beat the Steiner tree
        p = (rng.uniform(0, 1), rng.uniform(0, 1))
        assert sum(dist(p, v) for v in tri) >= res.smt_length - 1e-9
        if res.degenerate_at_vertex is None:
            sp = res.steiner_point
            angles = []
            for k in range(3):
                u, w = tri[k], tri[(k + 1) % 3]
                v1 = (u[0] - sp.x, u[1] - sp.y)
                v2 = (w[0] - sp.x, w[1] - sp.y)
                cosang = (v1[0] * v2[0] + v1[1] * v2[1]) / (
                    math.hypot(*v1) * math.hypot(*v2)
                )
                angles.append(math.acos(max(-1.0, min(1.0, cosang))))
            for ang in angles:
                assert abs(ang - 2 * math.pi / 3) < 1e-6
