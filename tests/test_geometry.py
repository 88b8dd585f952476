import math
import random
from fractions import Fraction

import pytest

from longspan import geometry, neighborhoods, noncrossing, oracles
from longspan.geometry import (
    COLLINEAR,
    LEFT,
    RIGHT,
    Point,
    _first_crossing,
    _segment,
    as_points,
    bichromatic_diametral_pair,
    diametral_pair,
    dist,
    orientation,
    segments_cross,
)
from longspan.instances import GenSpec, generate
from longspan.neighborhoods import Neighborhood, NeighborhoodSet, solve_stnb
from longspan.noncrossing import solve_ncst
from longspan.oracles import exact_ncst, exact_stnb
from longspan.trees import tree_length

from helpers import farthest_pair_reference, orientation_reference, segments_cross_reference


def test_dist_examples():
    assert dist((0, 0), (3, 4)) == 5.0
    assert dist((1, 1), (1, 1)) == 0.0
    assert dist((0, 0), (1, 1)) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_orientation_examples():
    assert orientation((0, 0), (1, 0), (0, 1)) == LEFT
    assert orientation((0, 0), (1, 0), (2, 0)) == COLLINEAR
    assert orientation((0, 0), (1, 0), (1, -1)) == RIGHT
    # rational coordinates that the float filter cannot decide
    thirds = [(Fraction(k, 3), Fraction(2 * k, 3)) for k in range(3)]
    assert orientation(*thirds) == COLLINEAR
    above = (Fraction(2, 3), Fraction(4, 3) + Fraction(1, 10**30))
    assert orientation(thirds[0], thirds[1], above) == LEFT


def test_orientation_takes_numpy_integer_coordinates():
    np = pytest.importorskip("numpy")
    p, q, r = np.array([[0, 0], [1, 1], [2, 2]])
    assert orientation(p, q, r) == COLLINEAR


def test_as_points_turns_numpy_integers_into_ints():
    np = pytest.importorskip("numpy")
    # as int64 the float filter's products wrap; as_points makes them ints
    wide = np.array([[0, 0], [2**32, 1], [1, 2**32]])
    assert orientation(*as_points(wide)) == LEFT
    assert all(type(c) is int for p in as_points(wide) for c in p)


def test_as_points_turns_numpy_floats_into_floats():
    np = pytest.importorskip("numpy")
    # in float32 the filter's products round to the wrong sign; exact: LEFT
    tri = np.array([[float.fromhex("0x1.6c3262p-2"), -float.fromhex("0x1.2e4e48p-1")],
                    [float.fromhex("0x1.c38f36p-1"), float.fromhex("0x1.866f48p-2")],
                    [float.fromhex("0x1.567dbp+0"), float.fromhex("0x1.3919a4p+0")]],
                   dtype=np.float32)
    pts = as_points(tri)
    assert all(type(c) is float for p in pts for c in p)
    assert [tuple(p) for p in pts] == [tuple(map(float, p)) for p in tri]
    assert orientation(*pts) == orientation_reference(*pts) == LEFT
    exact = as_points([(Fraction(1, 3), 7), (2**70 + 1, 0)])
    assert type(exact[0].x) is Fraction and exact[1].x == 2**70 + 1


def test_as_points_converts_points_that_hold_numpy_scalars():
    np = pytest.importorskip("numpy")
    # a Point of int64 coordinates was kept as it was, and the float
    # filter's products wrapped; only Points of two Python floats are kept
    rng = random.Random(29)
    for _ in range(300):
        k = rng.randrange(30, 62)
        tri = [(rng.randrange(2**k), rng.randrange(2**k)) for _ in range(3)]
        pts = as_points([Point(np.int64(x), np.int64(y)) for x, y in tri])
        assert all(type(c) is int for p in pts for c in p)
        assert orientation(*pts) == orientation_reference(*tri), tri
    halves = as_points([Point(np.float64(0.5), np.float32(1.5))])
    assert [type(c) for c in halves[0]] == [float, float]
    floats = [Point(0.5, 1.0), Point(-2.0, 3.25)]
    assert all(p is q for p, q in zip(as_points(floats), floats))


def test_coordinates_beyond_the_double_range_are_rejected():
    pts = [(0, 0), (10**400, 0), (1, 1)]
    for scan in (as_points, diametral_pair, lambda p: bichromatic_diametral_pair(p, [0, 1, 0])):
        with pytest.raises(ValueError, match="point 1 has a coordinate beyond the double range"):
            scan(pts)


def test_finite_input_whose_extent_overflows_is_rejected():
    # |x extent| = 2e308: every solver used to report infinite lengths
    pts = [(-1e308, 0), (1e308, 0), (0, 1), (0, -1), (5e307, 3)]
    nbs = NeighborhoodSet([Neighborhood(k, ((p,),)) for k, p in enumerate(pts)])
    for solve in (solve_ncst, exact_ncst, diametral_pair, lambda _: solve_stnb(nbs),
                  lambda _: exact_stnb(nbs)):
        with pytest.raises(ValueError, match="the x extent of the points overflows a double"):
            solve(pts)
    with pytest.raises(ValueError, match="the y extent"):
        bichromatic_diametral_pair([(0, -10**308), (0, 10**308)], [0, 1])
    with pytest.raises(ValueError, match="diagonal"):
        diametral_pair([(0, 0), (1.5e308, 1.5e308)])
    assert diametral_pair([(0, 0), (1.2e308, 0), (0, 1.2e308)]) == (1, 2)
    # just inside the limit, distances up to 1.7e308 are still scanned
    rng = random.Random(3)
    for _ in range(20):
        pts = [(rng.uniform(-0.6, 0.6) * 1e308, rng.uniform(-0.6, 0.6) * 1e308)
               for _ in range(rng.randrange(2, 30))]
        assert diametral_pair(pts) == farthest_pair_reference(pts, range(len(pts)))


OVERFLOWING_SUM = [(-0.6e308, 0), (0.6e308, 0), (0, 0.6e308), (0, -0.6e308), (0.3e308, 0.1e308)]


def _point_neighborhoods(pts):
    return NeighborhoodSet([Neighborhood(k, ((p,),)) for k, p in enumerate(pts)])


@pytest.mark.parametrize("length", [
    lambda pts: solve_ncst(pts).length,
    lambda pts: solve_stnb(_point_neighborhoods(pts)).length,
    lambda pts: tree_length(exact_ncst(pts), pts),
    lambda pts: exact_stnb(_point_neighborhoods(pts)).length,
], ids=["solve_ncst", "solve_stnb", "exact_ncst", "exact_stnb"])
def test_finite_input_whose_length_bound_overflows_is_rejected(length):
    # every distance fits a double, but (n - 1) * diameter = 4.8e308 does not
    with pytest.raises(ValueError, match=r"length bound 4 \* 1\.2e\+308 overflows a double"):
        length(OVERFLOWING_SUM)
    # scaled by 0.37, (n - 1) * diameter = 1.776e308 is just inside the limit
    assert math.isfinite(length([(0.37 * x, 0.37 * y) for x, y in OVERFLOWING_SUM]))


def test_orientation_exactness_on_near_degenerate_input():
    # p + t * (q - p) with doubles usually lands off the line; the exact
    # fallback must still produce consistent signs for on-line constructions
    p, q = (0.1, 0.1), (0.9, 0.500000000001)
    for t in (0.25, 0.5, 0.75):
        r = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
        s = orientation(p, q, r)
        assert s in (LEFT, RIGHT, COLLINEAR)
        assert s == -orientation(q, p, r)
    # exactly representable collinear points, widely separated magnitudes
    assert orientation((0, 0), (2**40, 2**40), (2**20, 2**20)) == COLLINEAR


def test_orientation_antisymmetry_and_cyclic_invariance():
    rng = random.Random(1)
    for _ in range(500):
        p, q, r = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        s = orientation(p, q, r)
        assert s == -orientation(p, r, q)
        assert s == orientation(q, r, p) == orientation(r, p, q)


def test_math_dist_matches_dist_on_doubles():
    # the float fast path of the distance rows relies on this identity
    rng = random.Random(53)
    pairs = [((0.0, 0.0), (5e-324, 0.0)), ((-0.0, 5e-324), (5e-324, -0.0)),
             ((1.7e308, -1.7e308), (-1.7e308, 1.7e308)), ((-1e308, 0.0), (1e308, 1e308))]
    for e in (-1074, -1060, -1022, -500, 0, 500, 1000, 1022):
        for _ in range(200):
            pairs.append(tuple((math.ldexp(rng.uniform(-1, 1), e), math.ldexp(rng.uniform(-1, 1), e))
                               for _ in range(2)))
    for p, q in pairs:
        assert math.dist(p, q) == dist(p, q), (p, q)
    points = [p for p, _ in pairs]
    for origin in ((0.0, 0.0), points[5], points[-1]):
        assert geometry._dist_row(points, origin, True) == geometry._dist_row(points, origin, False)


def test_orientation_underflowed_products_are_not_collinear():
    # both products underflow to 0.0 in doubles; the triangle is still left
    assert orientation((0, 0), (1e-300, 0), (0, 1e-300)) == LEFT
    assert orientation((0, 0), (0, 1e-300), (1e-300, 0)) == RIGHT
    tiny = 5e-324  # smallest subnormal
    assert orientation((0, 0), (tiny, 0), (0, tiny)) == LEFT


def _orientation_cases():
    rng = random.Random(7)
    # exponent 0 is ordinary input; the others make the products subnormal
    # or zero (-540, -537, -500), put detsum near the filter's underflow
    # guard (-481, -480, -470), overflow products (+520, +1000), or
    # overflow coordinate differences as well (+1017)
    for e in (0, -1074, -1000, -600, -540, -537, -511, -500, -481, -480, -470,
              -300, 300, 520, 1000, 1017):
        scale = 2.0**e
        for _ in range(40):
            # coordinates with few significant bits, so scaling by 2^e stays
            # exact and exact collinearities survive
            pts = [(rng.randrange(-64, 65) * scale, rng.randrange(-64, 65) * scale)
                   for _ in range(3)]
            yield pts
            p, q, _ = pts
            # near-degenerate: a rounded point on the line pq, and its
            # neighbours one ulp away
            t = rng.random()
            r = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            yield [p, q, r]
            yield [p, q, (math.nextafter(r[0], math.inf), r[1])]
            yield [p, q, (r[0], math.nextafter(r[1], -math.inf))]
            # full-precision coordinates
            yield [(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
                   for _ in range(3)]


def test_orientation_matches_rational_reference():
    for p, q, r in _orientation_cases():
        # repeated points in every position pair, equal by value across
        # sequence types too
        for a, b, c in ((p, q, r), (p, p, r), (p, q, p), (p, q, q), (r, q, r),
                        (p, p, p), (p, q, list(q))):
            if not all(math.isfinite(v) for pt in (a, b, c) for v in pt):
                continue
            assert orientation(a, b, c) == orientation_reference(a, b, c), (a, b, c)


def test_orientation_takes_products_beyond_the_double_range():
    # int and Fraction products beyond the double range cannot meet the
    # float error bound, so the filter leaves them to the exact path
    big, third = 2**600, Fraction(2**600) + Fraction(1, 3)
    for t in (((0, 0), (big, 1), (1, big)), ((0, 0), (big, big), (2 * big, 2 * big)),
              ((big, 0), (0, big), (big // 2, big // 2 + 1)),
              ((third, 0), (0, third), (third, third)),
              ((third, third), (2 * third, 2 * third), (3 * third, 3 * third + Fraction(1, 7)))):
        assert orientation(*t) == orientation_reference(*t), t
    huge = solve_ncst([(0, 0), (2**600, 0), (0, 2**600), (2**599, 2**598)])
    small = solve_ncst([(0, 0), (4, 0), (0, 4), (2, 1)])
    assert (huge.candidate, huge.tree.edges, huge.guess) == (
        small.candidate, small.tree.edges, small.guess) == ("star", ((0, 2), (1, 2), (2, 3)), None)


def _mixed_scalar(rng, base):
    # base + a small offset as an int, a Fraction or a float: at 2^54 and
    # above, the int and the Fraction are mostly not doubles
    off = rng.randrange(-600, 601)
    kind = rng.randrange(4)
    if kind == 0:
        return base + off
    if kind == 1:
        return Fraction(base + off) + Fraction(rng.randrange(7), 7)
    if kind == 2:
        return float(base + off)
    return float(rng.randrange(-3, 4)) + rng.choice((0.0, 0.5))


def test_as_points_makes_mixed_coordinate_differences_exact():
    # 2^60 + 129 rounds to 2^60 + 256 when it meets a float, and the float
    # filter then trusts the sign LEFT; exact, it is RIGHT
    for mid in (2**60 + 129, Fraction(2**60 + 129)):
        tri = [(2.0**60, 0.0), (mid, 1), (2.0**60 + 256, 1.5)]
        assert orientation(*tri) == LEFT
        assert orientation(*as_points(tri)) == orientation_reference(*tri) == RIGHT
    # a float meeting only ints and Fractions that doubles hold stays a float
    assert [type(c) for p in as_points([(0.5, 2**60), (Fraction(3, 4), 1)]) for c in p] == [
        float, int, Fraction, int]
    assert as_points([(0.5, 2**60 + 1)])[0] == (Fraction(1, 2), 2**60 + 1)


def test_orientation_matches_reference_on_mixed_input():
    rng = random.Random(20201007)
    raw_wrong = 0
    for _ in range(3000):
        base = rng.choice((2**54, 2**60, -(2**70)))
        tri = [(_mixed_scalar(rng, base), _mixed_scalar(rng, 0)) for _ in range(3)]
        expected = orientation_reference(*tri)
        assert orientation(*as_points(tri)) == expected, tri
        raw_wrong += orientation(*tri) != expected
    assert raw_wrong > 0  # the sample reaches the filter's rounding gap


def test_solve_ncst_on_mixed_input_matches_its_fraction_twin():
    rng = random.Random(7)
    for _ in range(40):
        pts = [(rng.choice((int, float))(2**60 + rng.randrange(4096)), rng.randrange(-3, 4))
               for _ in range(rng.randrange(5, 9))]
        twin = [(Fraction(x), Fraction(y)) for x, y in pts]
        outcomes = []
        for run in (pts, twin):
            try:
                rep = solve_ncst(run)
                outcomes.append((rep.candidate, rep.tree.edges, rep.guess, rep.length))
            except ValueError as err:  # no noncrossing candidate on either
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1], pts


def test_segments_cross_examples():
    assert segments_cross(((0, 0), (1, 1)), ((0, 1), (1, 0))) is True
    assert segments_cross(((0, 0), (1, 0)), ((1, 0), (1, 1))) is False
    assert segments_cross(((0, 0), (2, 0)), ((1, 0), (3, 0))) is True


def test_segments_cross_touch_and_overlap_cases():
    # T-junction: endpoint interior to the other segment counts
    assert segments_cross(((0, 0), (2, 0)), ((1, 0), (1, 1))) is True
    # collinear, meeting at one shared endpoint: allowed
    assert segments_cross(((0, 0), (1, 0)), ((1, 0), (2, 0))) is False
    # collinear, disjoint
    assert segments_cross(((0, 0), (1, 0)), ((2, 0), (3, 0))) is False
    # containment counts as overlap
    assert segments_cross(((0, 0), (3, 0)), ((1, 0), (2, 0))) is True
    # endpoint of one on the interior of the other, non-collinear
    assert segments_cross(((0, 0), (1, 1)), ((0.5, 0.5), (2, 0))) is True


def test_segments_cross_degenerate_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        segments_cross(((0, 0), (0, 0)), ((1, 0), (2, 0)))


def test_segments_cross_takes_raw_numpy_and_mixed_input():
    # The endpoints go through as_points together: a float near 2^60 next
    # to an int no double holds becomes a Fraction, and a NaN is rejected
    # rather than read as no crossing
    mixed = ((2.0**60 + 256, 3.0), (2.0**60 + 256, 1.0)), ((2**60 + 395, 0), (2**60 + 79, 2))
    assert segments_cross(*mixed) is segments_cross_reference(*mixed) is False
    with pytest.raises(ValueError, match="point 1 has a non-finite coordinate"):
        segments_cross(((0.0, 0.0), (math.nan, 1.0)), ((0.0, 1.0), (1.0, 0.0)))
    # numpy int64 products wrap past about 2^31.5 in the float filter
    np = pytest.importorskip("numpy")
    quad = np.array(
        [[-16460100101378576, 11882780194959754], [995251922450532, 5898235917696768],
         [-13256982043531079, 7591364616873767], [4039858344060570, -4700084434906817]],
        dtype=np.int64,
    )
    s1, s2 = quad[:2], quad[2:]
    want = segments_cross_reference(s1.tolist(), s2.tolist())
    assert segments_cross(s1, s2) is segments_cross(s2, s1) is want


def test_segments_cross_symmetry_properties():
    rng = random.Random(2)
    for _ in range(400):
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(4)]
        # mix in collinear and shared-endpoint configurations
        if rng.random() < 0.3:
            pts[3] = (pts[0][0] + 2 * (pts[1][0] - pts[0][0]),
                      pts[0][1] + 2 * (pts[1][1] - pts[0][1]))
        if rng.random() < 0.2:
            pts[2] = pts[1]
        s1 = (pts[0], pts[1])
        s2 = (pts[2], pts[3])
        if pts[0] == pts[1] or pts[2] == pts[3]:
            continue
        v = segments_cross(s1, s2)
        assert v == segments_cross(s2, s1)
        assert v == segments_cross((pts[1], pts[0]), s2)
        assert v == segments_cross(s1, (pts[3], pts[2]))
        assert v == segments_cross_reference(s1, s2)


@pytest.mark.parametrize("scale", [1.0, 2.0**-540, 2.0**500], ids=["1", "2^-540", "2^500"])
def test_segments_cross_matches_reference_on_lattice_pairs(scale):
    # every pair of segments between points of a 3x3 lattice, the same
    # segment and shared endpoints included, in every endpoint and argument
    # order; at 2^-540 every orientation product underflows
    pts = [(x * scale, y * scale) for x in range(3) for y in range(3)]
    segs = [(p, q) for k, p in enumerate(pts) for q in pts[k + 1:]]
    verdicts = set()
    for k, (a, b) in enumerate(segs):
        for c, d in segs[k:]:
            want = segments_cross_reference((a, b), (c, d))
            verdicts.add(want)
            for s1 in ((a, b), (b, a)):
                for s2 in ((c, d), (d, c)):
                    assert segments_cross(s1, s2) == segments_cross(s2, s1) == want, (s1, s2)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "scale", [1, 1.0, 2.0**-540, 2.0**500, 2.0**-500, Fraction(1, 3), 2**600, Fraction(2**600, 3)],
    ids=["int", "1", "2^-540", "2^500", "2^-500", "Fraction", "int-2^600", "Fraction-2^600"],
)
def test_first_crossing_matches_reference_on_lattice_pairs(scale, monkeypatch):
    # The crossing kernel on every pair of segments between points of a 3x3
    # lattice, the same segment and shared endpoints included, in every
    # endpoint and argument order.  At 2^-540 every orientation product
    # underflows, and at 2^600 every nonzero int or Fraction product lies
    # beyond the double range, so no float sign is sure, and each pair whose
    # boxes meet must reach the exact orientation.
    calls = 0

    def counting(p, q, r):
        nonlocal calls
        calls += 1
        return orientation(p, q, r)

    monkeypatch.setattr(geometry, "orientation", counting)
    pts = [(x * scale, y * scale) for x in range(3) for y in range(3)]
    segs = [(p, q) for k, p in enumerate(pts) for q in pts[k + 1:]]
    verdicts = set()
    meeting = reached = 0
    for a, b in segs:
        for c, d in segs:
            want = segments_cross_reference((a, b), (c, d))
            verdicts.add(want)
            x0, x1, y0, y1 = _segment(a, b)[2:]
            u0, u1, v0, v1 = _segment(c, d)[2:]
            meeting += 4 * (u0 <= x1 and x0 <= u1 and v0 <= y1 and y0 <= v1)
            for s1 in ((a, b), (b, a)):
                for s2 in ((c, d), (d, c)):
                    before = calls
                    assert _first_crossing(_segment(*s1), [_segment(*s2)]) == (0 if want else -1), (s1, s2)
                    reached += calls > before
    assert verdicts == {True, False}
    if scale in (2.0**-540, 2**600, Fraction(2**600, 3)):
        assert reached == meeting
    # a scan reports the first crossing position at or after start
    prepared = [_segment(*s) for s in segs]
    for k, s in enumerate(segs):
        crossing = [m for m, t in enumerate(segs) if segments_cross_reference(s, t)]
        for start in (0, k, k + 1):
            want = next((m for m in crossing if m >= start), -1)
            assert _first_crossing(prepared[k], prepared, start) == want, (s, start)


@pytest.mark.parametrize("scale", [1.0, 2.0**-520], ids=["1", "2^-520"])
def test_first_crossing_matches_reference_near_collinear(scale):
    # r is a rounded point of segment pq, and r moved by one ulp on either
    # axis lies just off line pq, so most signs sit at the filter's edge;
    # e extends pq beyond q, for collinear overlaps and touches.  At 2^-520
    # the orientation products are subnormal and have lost bits.
    rng = random.Random(12)
    verdicts = set()
    for _ in range(300):
        p, q, u = [(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(3)]
        t = rng.random()
        r = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
        e = (q[0] + t * (q[0] - p[0]), q[1] + t * (q[1] - p[1]))
        ulp = [(math.nextafter(r[0], math.inf), r[1]), (r[0], math.nextafter(r[1], -math.inf))]
        ends = [p, q, r, e, u] + ulp
        for _ in range(20):
            a, b, c, d = (rng.choice(ends) for _ in range(4))
            if a == b or c == d:
                continue
            want = segments_cross_reference((a, b), (c, d))
            verdicts.add(want)
            for s1, s2 in (((a, b), (c, d)), ((c, d), (b, a))):
                assert _first_crossing(_segment(*s1), [_segment(*s2)]) == (0 if want else -1), (s1, s2)
    assert verdicts == {True, False}


def test_first_crossing_defers_subnormal_products():
    # c and d, one ulp apart, lie on either side of line ab.  Their
    # orientation products are subnormal and have lost bits: both float
    # determinants come out as +2^-1074, and only the underflow guard
    # (_ORIENT_MIN_DETSUM) keeps the filter from putting c and d on one side.
    # Found by a random search at scale 2^-513.
    a = (2.282186818850848e-155, 3.606783975825266e-155)
    b = (-1.3322988961758188e-155, 7.577164880649156e-156)
    c = (-1.2233732847675704e-155, 8.435755680323596e-156)
    d = (-1.2233732847675702e-155, 8.435755680323596e-156)
    assert segments_cross_reference((a, b), (c, d))
    assert _first_crossing(_segment(a, b), [_segment(c, d)]) == 0


LATTICE_4X4 = [(x, y) for y in range(4) for x in range(4)]
HEXAGON = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def test_diametral_pair_examples():
    assert diametral_pair([(0, 0), (1, 0), (0.2, 0.1)]) == (0, 1)
    assert diametral_pair([(0, 0), (0, 0), (1, 0)]) == (0, 2)
    # unit square, listed counterclockwise: first diagonal wins
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    best = max(
        ((i, j) for i in range(4) for j in range(i + 1, 4)),
        key=lambda ij: dist(square[ij[0]], square[ij[1]]),
    )
    assert diametral_pair(square) == best == (0, 2)
    # inputs full of ties: the first pair in index order wins
    assert diametral_pair(LATTICE_4X4) == (0, 15)
    assert diametral_pair(HEXAGON) == (0, 3)


def test_diametral_pair_matches_exhaustive_scan():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(2, 50)
        pts = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
        i, j = diametral_pair(pts)
        dmax = max(
            dist(pts[a], pts[b]) for a in range(n) for b in range(a + 1, n)
        )
        assert dist(pts[i], pts[j]) == dmax


def _farthest_pair_cases(rng):
    """Point sets of every shape the bound filter must not get wrong."""
    yield LATTICE_4X4
    yield HEXAGON
    for _ in range(40):
        n = rng.randrange(2, 40)
        yield [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        # duplicates
        base = [(rng.randrange(3), rng.randrange(3)) for _ in range(4)]
        yield [rng.choice(base) for _ in range(n)]
        # all collinear
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        yield [(t, a * t + b) for t in (rng.uniform(-1, 1) for _ in range(n))]
        # all on one circle: the filter keeps every point
        angles = (rng.uniform(0, 2 * math.pi) for _ in range(n))
        yield [(0.5 + 0.5 * math.cos(t), 0.5 + 0.5 * math.sin(t)) for t in angles]
        # two clusters 1e-15 across: near-ties everywhere
        yield [(rng.randrange(2) + 1e-15 * rng.random(), 1e-15 * rng.random()) for _ in range(n)]
        # near the largest double: distances and radii may overflow, and
        # then the scans reject the input
        yield [(rng.choice((-1, 1)) * rng.uniform(0.5, 1) * 1.7e308,
                rng.choice((-1, 1)) * rng.uniform(0.5, 1) * 1.7e308) for _ in range(n)]
        # multiples of the smallest subnormal: hypot rounds to 2^-1074
        yield [(rng.randrange(-40, 41) * 5e-324, rng.randrange(-40, 41) * 5e-324)
               for _ in range(n)]
        # scaled by 2^k, subnormal to huge
        k = rng.randrange(-1070, 1001)
        yield [(math.ldexp(rng.uniform(-1, 1), k), math.ldexp(rng.uniform(-1, 1), k))
               for _ in range(n)]
        # ints above 2^53 and Fraction clusters: exact differences in dist,
        # but rounded to doubles against the float centre
        off = rng.choice((2**53, 2**60, -(2**70)))
        yield [(off + rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(n)]
        yield [(1 + Fraction(rng.randrange(-9, 10), 10**20),
                Fraction(rng.randrange(-9, 10), 10**20)) for _ in range(n)]


def test_farthest_pair_scans_match_reference():
    rng = random.Random(20201007)
    for pts in _farthest_pair_cases(rng):
        n = len(pts)
        colors = [rng.randrange(rng.randrange(1, 4)) for _ in range(n)]
        xs, ys = [float(p[0]) for p in pts], [float(p[1]) for p in pts]
        if math.hypot(max(xs) - min(xs), max(ys) - min(ys)) == math.inf:
            # a distance between two of the points may be infinite
            for scan in (diametral_pair, lambda p: bichromatic_diametral_pair(p, colors)):
                with pytest.raises(ValueError, match="overflows a double"):
                    scan(pts)
            continue
        assert diametral_pair(pts) == farthest_pair_reference(pts, range(n))
        expected = farthest_pair_reference(pts, colors)
        if expected is None:
            with pytest.raises(ValueError, match="no bichromatic pair"):
                bichromatic_diametral_pair(pts, colors)
        else:
            assert bichromatic_diametral_pair(pts, colors) == expected
    # the 5x5 lattice with colors in contiguous blocks, as NeighborhoodSet
    # lays them out: many pairs tie for the sweeps' farthest point
    lattice = [(x, y) for x in range(5) for y in range(5)]
    for pts in (lattice, lattice[::-1], [(0.1 * x, 0.1 * y) for x, y in lattice]):
        assert diametral_pair(pts) == farthest_pair_reference(pts, range(25))
        for block in range(1, 25):
            colors = [k // block for k in range(25)]
            assert bichromatic_diametral_pair(pts, colors) == farthest_pair_reference(pts, colors)
    with pytest.raises(ValueError, match="no bichromatic pair"):
        bichromatic_diametral_pair([], [])
    with pytest.raises(ValueError, match="points and colors differ in length"):
        bichromatic_diametral_pair([(0, 0), (1, 0)], [0])


def test_farthest_pair_scans_take_numpy_arrays():
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(5)
    for pts in (rng.random((60, 2)), rng.integers(-1000, 1000, (60, 2)),
                rng.integers(-5, 6, (60, 2)) + np.array([2**60, 0])):
        colors = rng.integers(0, 3, 60)
        assert diametral_pair(pts) == farthest_pair_reference(pts, range(60))
        assert bichromatic_diametral_pair(pts, colors) == farthest_pair_reference(pts, colors)


def test_farthest_pair_scans_convert_numpy_int64_and_float32():
    np = pytest.importorskip("numpy")
    # int64 differences wrap past 2^63, and the float32 differences
    # 16777216.5 and 16777216.75 would both round to 2^24
    cases = (
        (np.int64, [[-2**62 - 2**61, 0], [2**62, 0], [0, 2**62]], (0, 1)),
        (np.float32, [[-4194304.5, 6291456], [12582912, 6291456], [4194304, -2097152.75],
                      [4194304, 14680064]], (2, 3)),
    )
    for dtype, rows, expected in cases:
        arr = np.array(rows, dtype=dtype)
        assert diametral_pair(arr.tolist()) == expected  # Python scalars
        assert diametral_pair(arr) == expected
        assert bichromatic_diametral_pair(arr, range(len(rows))) == expected
    # float64 subclasses float; left unconverted, its differences would
    # overflow with a numpy RuntimeWarning, not the documented ValueError
    huge = np.array([[-1e308, 0], [1e308, 0]])
    with pytest.raises(ValueError, match="x extent of the points overflows a double"):
        diametral_pair(huge)
    with pytest.raises(ValueError, match="x extent of the points overflows a double"):
        solve_ncst(np.vstack([huge, [[0, 1]]]))


def test_farthest_pair_scan_prunes_spread_out_input(monkeypatch):
    nbs = generate(GenSpec("random_neighborhoods", 250, 7, vertices_per_nb=4))
    calls = 0

    def counting_dist(p, q):
        nonlocal calls
        calls += 1
        return dist(p, q)

    monkeypatch.setattr(geometry, "dist", counting_dist)
    pair = bichromatic_diametral_pair(nbs.points, nbs.colors)
    assert pair == farthest_pair_reference(nbs.points, nbs.colors)
    assert calls < len(nbs.points) ** 2 / 20


def test_each_entry_point_converts_its_points_once(monkeypatch):
    # The solvers and oracles convert their input once and scan the
    # converted points; a neighborhood set's points are converted already
    pts = generate(GenSpec("uniform_square", 8, 3))
    nbs = generate(GenSpec("random_neighborhoods", 4, 3, vertices_per_nb=3))
    calls = 0

    def counting_as_points(points):
        nonlocal calls
        calls += 1
        return as_points(points)

    for module in (geometry, noncrossing, oracles, neighborhoods):
        monkeypatch.setattr(module, "as_points", counting_as_points)
    counts = []
    for solve, instance in ((solve_ncst, pts), (exact_ncst, pts), (exact_stnb, nbs), (solve_stnb, nbs)):
        calls = 0
        solve(instance)
        counts.append(calls)
    assert counts == [1, 1, 0, 0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_farthest_pair_scans_reject_non_finite_points(bad):
    for pts, k in (([(bad, 0), (0, 0)], 0), ([(0, 0), (1, 0), (2, bad)], 2), ([(bad, bad)] * 3, 0)):
        with pytest.raises(ValueError, match=f"point {k} has a non-finite coordinate"):
            diametral_pair(pts)
        with pytest.raises(ValueError, match=f"point {k} has a non-finite coordinate"):
            bichromatic_diametral_pair(pts, [0, 1, 0][: len(pts)])


def test_diametral_pair_too_few():
    with pytest.raises(ValueError, match="too few"):
        diametral_pair([(0, 0)])


def test_farthest_pair_scans_take_exact_coordinates_beyond_doubles():
    # as doubles these points coincide, so a filter that rounds them keeps none
    big = [(2**60, 0), (2**60 + 1, 0), (2**60 + 2, 0)]
    assert diametral_pair(big) == (0, 2)
    assert bichromatic_diametral_pair(big, [0, 1, 0]) == (0, 1)
    tiny = [(1 + Fraction(k, 10**20), 0) for k in range(5)]
    assert diametral_pair(tiny) == (0, 4)
    assert bichromatic_diametral_pair(tiny, [0, 0, 1, 1, 0]) == (0, 3)
    # a float beside ints that no double holds: both scans take the exact
    # differences as_points gives, so each equals its all-Fraction twin
    mixed = [(2.0**60, 0.0), (2**60 + 129, 1), (2**60 + 200, 0)]
    twin = [(Fraction(x), Fraction(y)) for x, y in mixed]
    assert diametral_pair(mixed) == diametral_pair(twin) == (0, 2)
    colors = [1, 2, 3]
    assert bichromatic_diametral_pair(mixed, colors) == bichromatic_diametral_pair(twin, colors) == (0, 2)


def test_bichromatic_diametral_pair_examples():
    assert bichromatic_diametral_pair([(0, 0), (5, 0), (1, 0)], [1, 1, 2]) == (1, 2)
    assert bichromatic_diametral_pair([(0, 0), (4, 4)], [1, 2]) == (0, 1)
    with pytest.raises(ValueError, match="no bichromatic pair"):
        bichromatic_diametral_pair([(0, 0), (1, 0)], [1, 1])
    # inputs full of ties: the first bichromatic pair in index order wins
    assert bichromatic_diametral_pair(LATTICE_4X4, [k % 3 for k in range(16)]) == (0, 11)
    assert bichromatic_diametral_pair(HEXAGON, [k % 3 for k in range(6)]) == (0, 4)


def test_bichromatic_pair_on_counterexample_instance():
    nbs = generate(GenSpec(kind="diam_counterexample", n=4, seed=0, epsilon=0.25))
    i, j = bichromatic_diametral_pair(nbs.points, nbs.colors)
    # the unique farthest cross-color pair is (0,0)-(2,0): flattened 0 and 2
    assert (i, j) == (0, 2)
    assert nbs.points[i] == (0.0, 0.0)
    assert nbs.points[j] == (2.0, 0.0)

