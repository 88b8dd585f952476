import math
import random
import re
from fractions import Fraction

import pytest

from longspan import geometry, neighborhoods, oracles
from longspan.geometry import bichromatic_diametral_pair, dist
from longspan.instances import GenSpec, generate, read_neighborhoods, write_neighborhoods
from longspan.neighborhoods import (
    Neighborhood,
    NeighborhoodSet,
    build_double_star,
    farthest_vertex_in,
    longest_spanning_star_nb,
    solve_stnb,
    stnb_params,
    stnb_region_report,
)
from longspan.noncrossing import build_Ta, build_Tb, classify_points
from longspan.oracles import exact_stnb
from longspan.trees import validate_spanning_tree

from helpers import farthest_pair_reference, farthest_vertex_reference, solve_stnb_reference


def _singletons(*pts) -> NeighborhoodSet:
    return NeighborhoodSet(
        [Neighborhood(k + 1, ((p,),)) for k, p in enumerate(pts)]
    )


def _random_nbs(rng, n=None, k=None) -> NeighborhoodSet:
    n = n or rng.randrange(3, 6)
    k = k or rng.randrange(1, 5)
    nbs = []
    for color in range(1, n + 1):
        cx, cy = rng.uniform(0, 1), rng.uniform(0, 1)
        ring = tuple(
            (cx + rng.uniform(-0.1, 0.1), cy + rng.uniform(-0.1, 0.1))
            for _ in range(k)
        )
        nbs.append(Neighborhood(color, (ring,)))
    return NeighborhoodSet(nbs)


def _sized_nbs(rng, sizes) -> NeighborhoodSet:
    # one ring per neighborhood, of the given vertex counts, in the unit square
    return NeighborhoodSet([
        Neighborhood(color, (tuple((rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(k)),))
        for color, k in enumerate(sizes, 1)
    ])


def _circle_nbs(rng, n, k) -> NeighborhoodSet:
    # n arcs of the circle of radius 1/2 around (1/2, 1/2), k vertices
    # each: every vertex is on the convex hull and survives the scan's filter
    nbs = []
    for color in range(1, n + 1):
        mid = rng.uniform(0.0, 2.0 * math.pi)
        angles = sorted(mid + rng.uniform(-0.15, 0.15) for _ in range(k))
        ring = tuple((0.5 + 0.5 * math.cos(t), 0.5 + 0.5 * math.sin(t)) for t in angles)
        nbs.append(Neighborhood(color, (ring,)))
    return NeighborhoodSet(nbs)


def test_neighborhood_set_invariants(tmp_path):
    with pytest.raises(ValueError, match="duplicate color"):
        NeighborhoodSet(
            [Neighborhood(1, (((0, 0),),)), Neighborhood(1, (((1, 0),),))]
        )
    with pytest.raises(ValueError, match="at least two"):
        NeighborhoodSet([Neighborhood(1, (((0, 0),),))])
    with pytest.raises(ValueError, match="polygon vertex"):
        Neighborhood(1, ())
    nbs = _singletons((0, 0), (1, 0))
    assert nbs.n == 2 and len(nbs.points) == 2
    assert nbs.colors == [1, 2]
    # owner and ranges index neighborhoods by position, whatever the colors
    nbs = NeighborhoodSet([
        Neighborhood(7, (((0, 0), (1, 0)), ((2, 2),))),
        Neighborhood(2, (((5, 5),), ((6, 5), (6, 6), (5, 6)))),
        Neighborhood(5, (((9, 0),),)),
    ])
    assert nbs.colors == [7, 7, 7, 2, 2, 2, 2, 5]
    assert nbs.owner == [0, 0, 0, 1, 1, 1, 1, 2]
    assert nbs.ranges == [range(0, 3), range(3, 7), range(7, 8)]
    assert all(nbs.colors[v] == nbs.neighborhoods[nbs.owner[v]].color for v in range(len(nbs.points)))
    # contiguous ranges that cover every vertex, each owned by its position
    assert [v for r in nbs.ranges for v in r] == list(range(len(nbs.points)))
    assert all(nbs.owner[v] == k for k, r in enumerate(nbs.ranges) for v in r)
    for nb, r in zip(nbs.neighborhoods, nbs.ranges):
        assert [nbs.points[v] for v in r] == list(nb.vertices())
    # a color is an int, as the file format writes it, so a set round-trips
    for bad in ("a", 2.0, Fraction(3), None):
        with pytest.raises(ValueError, match=re.escape(f"neighborhood color {bad!r} is not an int")):
            Neighborhood(bad, (((0, 0),),))
    assert type(Neighborhood(True, (((0, 0),),)).color) is int
    big = -(10**40) + 7
    nbs = NeighborhoodSet([Neighborhood(True, (((0, 0),),)), Neighborhood(-4, (((1, 0),),)),
                           Neighborhood(big, (((2, 0),),))])
    write_neighborhoods(tmp_path / "c.nbs", nbs)
    back = read_neighborhoods(tmp_path / "c.nbs")
    assert back.colors == nbs.colors == [1, -4, big]
    assert back.points == nbs.points
    # a color with more digits than str() may write could not be saved
    with pytest.raises(ValueError, match=r"neighborhood color over \d+ digits"):
        Neighborhood(10**5000, (((0, 0),),))


def test_neighborhood_colors_take_numpy_integers():
    np = pytest.importorskip("numpy")
    nb = Neighborhood(np.int64(3), (((0, 0),),))
    assert type(nb.color) is int and nb.color == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solver", [solve_stnb, exact_stnb])
@pytest.mark.parametrize("count", [2, 3])
def test_solvers_reject_non_finite_vertices(bad, solver, count):
    rings = [((0, 0), (1, 0)), ((3, 0), (bad, 2), (4, 1)), ((0, 5),)][:count]
    with pytest.raises(ValueError, match="color 2: point 1 has a non-finite coordinate"):
        solver(NeighborhoodSet([Neighborhood(k + 1, (ring,)) for k, ring in enumerate(rings)]))


def test_stnb_params_identities():
    p = stnb_params()
    assert p.omega == pytest.approx(0.815, abs=1e-3)
    assert p.omega == pytest.approx(0.8151892463321835, abs=1e-12)
    # the parameter choice makes (sqrt(3)/2)(omega+1) equal 3*delta exactly
    assert (math.sqrt(3) / 2) * (p.omega + 1) - 3 * 0.524 == pytest.approx(0, abs=1e-12)
    assert p.ellipse_sum == pytest.approx(p.omega + 1.048, abs=1e-12)


def test_farthest_vertex_in():
    square = Neighborhood(1, (((0, 0), (1, 0), (1, 1), (0, 1)),))
    other = Neighborhood(2, (((5, 5),),))
    nbs = NeighborhoodSet([square, other])
    assert farthest_vertex_in(nbs, 1, (0, 0)) == 2  # vertex (1,1)
    assert farthest_vertex_in(nbs, 2, (0, 0)) == 4  # the singleton itself
    # equidistant vertices: smallest flattened index wins
    pair = Neighborhood(3, (((0, 1), (0, -1)),))
    nbs = NeighborhoodSet([pair, other])
    assert farthest_vertex_in(nbs, 3, (0, 0)) == 0
    with pytest.raises(ValueError, match="^no neighborhood of the 2 has color 7$"):
        farthest_vertex_in(nbs, 7, (0, 0))
    # the origin goes through as_points, so a NaN or infinite one is an
    # error naming it, and a numpy float64 one takes the all-float rows
    for bad in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="^origin has a non-finite coordinate"):
            farthest_vertex_in(nbs, 3, bad)
    with pytest.raises(ValueError, match="^origin has a coordinate beyond the double range"):
        farthest_vertex_in(nbs, 3, (10**400, 0))
    np = pytest.importorskip("numpy")
    origin = (np.float64(0.3), np.float64(0.7))
    assert farthest_vertex_in(nbs, 3, origin) == farthest_vertex_in(nbs, 3, (0.3, 0.7)) == 1


def test_build_double_star_hand_checked_tie():
    nbs = _singletons((0, 0), (1, 0), (0.5, 0.3))
    sol = build_double_star(nbs, 0, 1)
    # |a p3| = |b p3| = sqrt(0.34); the tie attaches to a
    assert sol.tree.edges == ((0, 1), (0, 2))
    assert sol.length == pytest.approx(1 + math.sqrt(0.34), abs=1e-12)
    # exhaustive assignment oracle: no other representative tree with the
    # forced rule beats it (singletons, so the only freedom is the max tree)
    assert sol.length == pytest.approx(exact_stnb(nbs).length, abs=1e-12)


def test_build_double_star_two_neighborhoods():
    nbs = _singletons((0, 0), (1, 0))
    sol = build_double_star(nbs, 0, 1)
    assert sol.tree.edges == ((0, 1),)
    assert sol.length == 1.0


def test_build_double_star_far_side_vertex_attaches_to_a():
    nbs = _singletons((0, 0), (1, 0), (1.4, 0.1))
    sol = build_double_star(nbs, 0, 1)
    assert (0, 2) in sol.tree.edges  # |a p3| > |b p3| forced by geometry


def test_build_double_star_requires_bichromatic_anchors():
    nbs = NeighborhoodSet(
        [Neighborhood(1, (((0, 0), (2, 0)),)), Neighborhood(2, (((1, 1),),))]
    )
    with pytest.raises(ValueError, match="different colors"):
        build_double_star(nbs, 0, 1)


def test_longest_spanning_star_examples():
    # n = 2: the best star over all centers realizes the bichromatic diameter
    nbs = NeighborhoodSet(
        [
            Neighborhood(1, (((0, 0), (0.2, 0.6)),)),
            Neighborhood(2, (((1, 0), (0.9, 0.4)),)),
        ]
    )
    i, j = bichromatic_diametral_pair(nbs.points, nbs.colors)
    diam = dist(nbs.points[i], nbs.points[j])
    best = max(
        longest_spanning_star_nb(nbs, c).length for c in range(len(nbs.points))
    )
    assert best == pytest.approx(diam, abs=1e-12)

    line = _singletons((0, 0), (1, 0), (2, 0))
    assert longest_spanning_star_nb(line, 1).length == pytest.approx(2.0)


def test_solve_stnb_two_neighborhoods_returns_diameter():
    nbs = NeighborhoodSet(
        [
            Neighborhood(1, (((0, 0), (0.5, 0.1)),)),
            Neighborhood(2, (((3, 0), (2.5, 1)),)),
        ]
    )
    rep = solve_stnb(nbs)
    assert rep.length == pytest.approx(3.0, abs=1e-12)
    assert rep.tree.n == 2


def test_solve_stnb_counterexample_instance_beats_ratio():
    nbs = generate(GenSpec(kind="diam_counterexample", n=10, seed=3, epsilon=0.1))
    rep = solve_stnb(nbs)
    opt = exact_stnb(nbs).length
    assert rep.length >= 0.524 * opt - 1e-12
    assert validate_spanning_tree(rep.tree, rep.points) is None


def test_solve_stnb_singletons_vs_oracle():
    rng = random.Random(21)
    pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(5)]
    nbs = _singletons(*pts)
    rep = solve_stnb(nbs)
    assert rep.length >= 0.524 * exact_stnb(nbs).length - 1e-12


def test_solve_stnb_monochromatic_rejected():
    with pytest.raises(ValueError, match="at least two"):
        solve_stnb(NeighborhoodSet([Neighborhood(1, (((0, 0), (1, 0)),))]))


def test_solve_stnb_report_fields():
    nbs = generate(
        GenSpec(kind="random_neighborhoods", n=4, seed=11, vertices_per_nb=3)
    )
    rep = solve_stnb(nbs)
    assert rep.algorithm == "stnb"
    assert rep.candidate in ("S1", "S2", "S3", "D")
    assert rep.upper_bound == pytest.approx(
        (nbs.n - 1) * rep.metrics["ab_length"]
    )
    assert rep.length <= rep.upper_bound + 1e-12
    assert rep.length >= 0.5 * rep.upper_bound - 1e-12
    assert set(rep.representatives) == {nb.color for nb in nbs.neighborhoods}
    # exactly one representative per color, drawn from that neighborhood
    for color, v in rep.representatives.items():
        assert nbs.colors[v] == color


def _stnb_corpus(rng):
    """Neighborhood sets of every shape the candidate layer must not get
    wrong: floats, ints and Fractions, ints mixed with floats, duplicate
    vertices, singletons, two neighborhoods, lattice vertices with many
    equal distances, and arcs of one circle, where the rows of a and b
    are rarely the scan's sweep rows and are built afresh."""
    def nbs_of(rings):
        return NeighborhoodSet([Neighborhood(c + 1, (ring,)) for c, ring in enumerate(rings)])

    def mixed(v):  # v as an int or as a float, at random
        return rng.choice((int, float))(v)

    for _ in range(25):
        yield _random_nbs(rng, n=rng.randrange(2, 9), k=rng.randrange(1, 6))
        yield _singletons(*((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randrange(2, 9))))
        n, side = rng.randrange(2, 9), rng.randrange(2, 6)
        cells = [(x, y) for x in range(side) for y in range(side)]
        yield nbs_of([tuple(rng.choice(cells) for _ in range(rng.randrange(1, 5))) for _ in range(n)])
        yield nbs_of([tuple((rng.randrange(-3, 4) * 10**20, rng.randrange(-3, 4))
                            for _ in range(rng.randrange(1, 4))) for _ in range(n)])
        yield nbs_of([tuple((Fraction(rng.randrange(-9, 10), 7), Fraction(rng.randrange(-9, 10), 3))
                            for _ in range(rng.randrange(1, 4))) for _ in range(n)])
        base = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)]
        yield nbs_of([tuple(rng.choice(base) for _ in range(rng.randrange(1, 4))) for _ in range(n)])
        yield _circle_nbs(rng, n, rng.randrange(1, 6))
        # ints and floats side by side; beyond 2^53 the set holds its
        # floats as Fractions
        for scale in (1, 10**20):
            yield nbs_of([tuple((mixed(rng.randrange(-9, 10) * scale + rng.randrange(3)),
                                 mixed(rng.randrange(-9, 10))) for _ in range(rng.randrange(1, 4)))
                          for _ in range(n)])
    for kind, n, k in (("random_neighborhoods", 40, 4), ("random_neighborhoods", 12, 1),
                       ("diam_counterexample", 10, None)):
        yield generate(GenSpec(kind=kind, n=n, seed=rng.randrange(1000), vertices_per_nb=k,
                               epsilon=0.1 if k is None else None))
    yield _circle_nbs(rng, 60, 4)
    # equal sizes, whose maxima are strided, and unequal ones; 4, 2, 6 add
    # up to 4 x 3, as four-vertex neighborhoods would
    for sizes in ((1,) * 7, (2,) * 5, (4,) * 9, (6,) * 6, (4, 2, 6), (6, 2, 4)):
        yield _sized_nbs(rng, sizes)
    for _ in range(10):
        yield _sized_nbs(rng, [rng.randrange(1, 7) for _ in range(rng.randrange(2, 9))])


def test_solve_stnb_matches_reference():
    for nbs in _stnb_corpus(random.Random(20201007)):
        rep, ref = solve_stnb(nbs), solve_stnb_reference(nbs)
        assert rep.candidate == ref["candidate"]
        assert list(rep.tree.edges) == ref["edges"]
        assert rep.representatives == ref["representatives"]
        assert list(rep.points) == ref["points"]
        assert rep.length == ref["length"]
        assert rep.upper_bound == ref["upper_bound"]
        assert rep.metrics == ref["metrics"]


def _by_color(rep, nbs) -> tuple:
    # the tree's edges as color pairs and each color's representative point
    color = [nb.color for nb in nbs.neighborhoods]
    edges = sorted(tuple(sorted((color[i], color[j]))) for i, j in rep.tree.edges)
    return edges, {c: nbs.points[v] for c, v in rep.representatives.items()}


def _symmetry_nbs(count: int) -> list[NeighborhoodSet]:
    rng = random.Random(26)
    return [generate(GenSpec("random_neighborhoods", rng.randint(2, 30), rng.getrandbits(32),
                             vertices_per_nb=rng.randint(1, 4))) for _ in range(count)]


def test_solve_stnb_is_relabeling_invariant():
    # Shuffled neighborhoods give the same tree and representative points
    # by color, and the same length to the bit: lengths are math.fsum,
    # whatever the edge order.
    rng = random.Random(7)
    for nbs in _symmetry_nbs(40):
        base = solve_stnb(nbs)
        shuffled = NeighborhoodSet(rng.sample(nbs.neighborhoods, nbs.n))
        rep = solve_stnb(shuffled)
        assert _by_color(rep, shuffled) == _by_color(base, nbs)
        assert rep.length == base.length


def test_solve_stnb_is_invariant_under_quarter_turns():
    # (x, y) -> (-y, x) is exact, so each of the three turns keeps the tree,
    # the representatives and the length
    for nbs in _symmetry_nbs(20):
        base = solve_stnb(nbs)
        turned = nbs
        for _ in range(3):
            turned = NeighborhoodSet([
                Neighborhood(nb.color, tuple(tuple((-y, x) for x, y in ring) for ring in nb.polygons))
                for nb in turned.neighborhoods
            ])
            rep = solve_stnb(turned)
            assert (rep.tree.edges, rep.representatives, rep.length) == (
                base.tree.edges, base.representatives, base.length)


def test_row_maxima_match_a_plain_max_per_neighborhood():
    # the row source's per-neighborhood maxima, strided for equal sizes and
    # sliced for unequal ones, against one max per neighborhood
    for nbs in _stnb_corpus(random.Random(21)):
        row = neighborhoods._rows(nbs)
        for v in range(len(nbs.points)):
            r, tops = row(v)
            assert tops == [max(r[u] for u in span) for span in nbs.ranges]


def test_solve_stnb_keeps_exact_differences_of_ints_and_fractions():
    # Offsets from (2^53, 0) in ints, and from (1, 0) in steps of 1e-20 in
    # Fractions: a difference of two coordinates is exact, while rounding
    # each coordinate to a double first, as math.dist does, changes which
    # vertex of the third neighborhood is farthest.  Only all-float input
    # may take the math.dist rows.
    offsets = [[(-2, -3), (-2, 0)], [(-2, -4), (-3, 4)], [(-4, -1), (1, 0)]]
    tiny = Fraction(1, 10**20)
    for x0, step in ((2**53, 1), (Fraction(1), tiny)):
        rings = [[(x0 + dx * step, dy * step) for dx, dy in ring] for ring in offsets]
        exact, rounded = (
            NeighborhoodSet([Neighborhood(k + 1, (tuple((cast(x), cast(y)) for x, y in ring),))
                             for k, ring in enumerate(rings)])
            for cast in (type(x0), float)
        )
        ref = solve_stnb_reference(exact)
        # the two paths tell apart on this set
        assert ref["representatives"] != solve_stnb_reference(rounded)["representatives"]
        rep = solve_stnb(exact)
        assert rep.candidate == ref["candidate"]
        assert list(rep.tree.edges) == ref["edges"]
        assert rep.representatives == ref["representatives"]
        assert rep.length == ref["length"]
        assert rep.metrics == ref["metrics"]
        assert bichromatic_diametral_pair(exact.points, exact.colors) == farthest_pair_reference(
            exact.points, exact.colors)


def test_solve_stnb_builds_each_distance_row_once(monkeypatch):
    # The scan builds three rows: to the bounding-box centre and from its
    # two sweep origins.  When a and b are those origins, solve_stnb takes
    # their rows from the scan and builds only the three star centres' rows;
    # on a circle they are not, and it builds all five of its own.
    spread = generate(GenSpec("random_neighborhoods", 60, 1, vertices_per_nb=4))
    circle = _circle_nbs(random.Random(1), 60, 4)
    dist_row, built = geometry._dist_row, []

    def counting_row(points, origin, floats):
        built.append(origin)
        return dist_row(points, origin, floats)

    for nbs, rows, shared in ((spread, 6, {0, 1}), (circle, 8, set())):
        pair, _, sweeps = geometry._farthest_pair(nbs.points, nbs.colors, nbs.floats)
        assert {k for k in (0, 1) if pair[k] in sweeps} == shared
        with monkeypatch.context() as m:
            for module in (geometry, neighborhoods):
                m.setattr(module, "_dist_row", counting_row)
            built.clear()
            rep = solve_stnb(nbs)
        assert len(built) == rows
        assert rep.metrics == solve_stnb_reference(nbs)["metrics"]


def test_neighborhood_callers_hand_the_scan_the_set_verdict(monkeypatch):
    # solve_stnb, stnb_region_report and exact_stnb give the scan the
    # all-float verdict their set holds, and the scan builds its rows on
    # it with no type pass of its own.  hypot rows equal math.dist rows on
    # floats, so a float set whose verdict reads False gives the same
    # results, and only the verdict's source shows.
    scan, dist_row = geometry._farthest_pair, geometry._dist_row
    handed, built = [], []

    def spy(points, colors, floats=None):
        handed.append(floats)
        return scan(points, colors, floats)

    def counting_row(points, origin, floats):
        built.append(floats)
        return dist_row(points, origin, floats)

    rng = random.Random(22)
    ints = NeighborhoodSet([Neighborhood(c, (((c, 0), (c, c % 3), (0, c)),)) for c in range(1, 5)])
    for nbs in (_random_nbs(rng, n=4, k=3), ints):
        want = [call(nbs) for call in (solve_stnb, stnb_region_report, exact_stnb)]
        for floats in (nbs.floats, False):
            nbs.floats = floats
            with monkeypatch.context() as m:
                for module in (neighborhoods, oracles):
                    m.setattr(module, "_farthest_pair", spy)
                for call, result in zip((solve_stnb, stnb_region_report, exact_stnb), want):
                    handed.clear()
                    assert call(nbs) == result
                    assert handed == [floats]
    nbs = _random_nbs(rng, n=5, k=2)
    monkeypatch.setattr(geometry, "_dist_row", counting_row)
    for floats in (True, False):
        built.clear()
        assert scan(nbs.points, nbs.colors, floats)[:2] == scan(nbs.points, nbs.colors)[:2]
        assert built[:3] == [floats] * 3 and built[3:] == [True] * 3


def test_public_builders_read_the_solver_rows():
    # build_double_star, longest_spanning_star_nb and farthest_vertex_in
    # take their rows from the same source as solve_stnb, so their lengths
    # and choices equal the solver's bit for bit, on float, int, Fraction
    # and mixed sets
    for nbs in _stnb_corpus(random.Random(16)):
        rep = solve_stnb(nbs)
        lengths = rep.metrics["candidate_lengths"]
        pts, colors = nbs.points, nbs.colors
        a, b = rep.metrics["ab_pair"]
        assert build_double_star(nbs, a, b).length == lengths["D"]
        centers = {
            "S1": farthest_vertex_reference(nbs, colors[a], pts[a]),
            "S2": farthest_vertex_reference(nbs, colors[b], pts[b]),
            "S3": max(range(len(pts)), key=lambda v: dist(pts[v], pts[a]) + dist(pts[v], pts[b])),
        }
        for name, c in centers.items():
            assert longest_spanning_star_nb(nbs, c).length == lengths[name]
        for origin in (pts[a], pts[b], pts[centers["S3"]], (Fraction(1, 3), 0.5)):
            for color in {colors[a], colors[b], colors[-1]}:
                assert farthest_vertex_in(nbs, color, origin) == farthest_vertex_reference(
                    nbs, color, origin)


def test_mixed_rings_are_exact_across_rings():
    # a float ring beside rings of ints that no double holds: the set makes
    # its floats Fractions, so the scan, the rows and the oracle see exact
    # differences and agree with the all-Fraction twin
    rings = [(2.0**60, 0.0)], [(2**60 + 129, 1)], [(2**60 + 200, 0)]
    mixed, twin = (
        NeighborhoodSet([Neighborhood(k, (tuple((cast(x), cast(y)) for x, y in ring),))
                         for k, ring in enumerate(rings)])
        for cast in (lambda c: c, Fraction)
    )
    rep, ref = solve_stnb(mixed), solve_stnb(twin)
    assert rep.metrics["ab_pair"] == ref.metrics["ab_pair"] == [0, 2]
    assert rep.metrics["ab_length"] == ref.metrics["ab_length"] == 200.0
    assert rep.length == ref.length
    assert exact_stnb(mixed).length == exact_stnb(twin).length


def test_double_star_dominates_anchor_stars_and_edge_floor():
    rng = random.Random(22)
    for _ in range(60):
        nbs = _random_nbs(rng)
        a, b = bichromatic_diametral_pair(nbs.points, nbs.colors)
        sol = build_double_star(nbs, a, b)
        sa = longest_spanning_star_nb(nbs, a)
        sb = longest_spanning_star_nb(nbs, b)
        assert sol.length >= sa.length - 1e-9
        assert sol.length >= sb.length - 1e-9
        # every edge other than ab is at least half the diameter
        ab = dist(nbs.points[a], nbs.points[b])
        rep_pts = sol.representative_points(nbs)
        ka, kb = nbs.owner[a], nbs.owner[b]
        for i, j in sol.tree.edges:
            if {i, j} == {ka, kb}:
                continue
            assert dist(rep_pts[i], rep_pts[j]) >= ab / 2 - 1e-9


def test_region_report_hand_checked_memberships():
    # a=(0,0), b=(1,0) already canonical; probes placed per the formulas
    nbs = _singletons((0, 0), (1, 0), (0.5, 0.8), (0.5, 0.0))
    report = stnb_region_report(nbs)
    assert (report.a_index, report.b_index) == (0, 1)
    labels = report.labels
    p = report.params
    # (0.5, 0.8): |qa|+|qb| = 2*sqrt(0.89) > omega + 2*delta, inside L1, so in Q
    assert 2 * math.sqrt(0.89) > p.ellipse_sum
    assert labels[2].in_L and labels[2].in_L1 and not labels[2].in_E
    assert labels[2].in_Q
    # the midpoint is in the core lens L'
    assert labels[3].in_Lprime
    # a itself: inside L1 and inside the ellipse, not in Q; its neighborhood
    # is not strictly inside L', so m counts only fully-interior ones
    assert labels[0].in_L1 and labels[0].in_E and not labels[0].in_Q
    assert report.q_nonempty
    assert report.m == 1  # only the midpoint singleton sits inside L'


def test_region_report_puts_the_diametral_pair_in_every_lens():
    # a and b sit at distance |ab| from each other, on the boundary of L, L1
    # and L2; a rotated, rescaled copy put one of them just outside
    for seed in range(300):
        spec = GenSpec(kind="random_neighborhoods", n=3 + seed % 20, seed=seed,
                       vertices_per_nb=1 + seed % 5)
        report = stnb_region_report(generate(spec))
        for k in (report.a_index, report.b_index):
            lab = report.labels[k]
            assert lab.in_L and lab.in_L1 and lab.in_L2, (seed, k)


def test_region_report_rejects_coincident_pair():
    nbs = _singletons((1, 1), (1, 1))
    with pytest.raises(ValueError, match="coincident"):
        stnb_region_report(nbs)


def test_region_report_m_counts_whole_neighborhoods():
    nbs = NeighborhoodSet(
        [
            Neighborhood(1, (((0, 0),),)),
            Neighborhood(2, (((1, 0),),)),
            # one vertex inside L', one outside: not counted
            Neighborhood(3, (((0.5, 0.0), (0.1, 0.1)),)),
            # both vertices strictly inside L': counted
            Neighborhood(4, (((0.48, 0.02), (0.52, -0.02)),)),
        ]
    )
    report = stnb_region_report(nbs)
    assert report.m == 1


def test_q_empty_implies_core_edges_below_cap():
    # sampled check: distances from the core lens L' to the rest of the
    # allowed region (L1 u L2 minus Q) stay below 0.95
    from longspan.instances import SplitMix64

    p = stnb_params()
    rng = SplitMix64(42)
    core, region = [], []
    while len(core) < 400 or len(region) < 400:
        q = (rng.uniform(-1.0, 2.0), rng.uniform(-1.1, 1.1))
        da, db = dist(q, (0, 0)), dist(q, (1, 0))
        if da <= p.core_radius and db <= p.core_radius and len(core) < 400:
            core.append(q)
        in_l12 = (db <= 1 and da <= p.wide_radius) or (da <= 1 and db <= p.wide_radius)
        if in_l12 and da + db <= p.ellipse_sum and len(region) < 400:
            region.append(q)
    worst = max(dist(c, r) for c in core for r in region)
    assert worst <= 0.95
    assert worst <= 0.9464013270375472 + 1e-9  # the exact cap |lf|


def test_public_builders_reject_out_of_range_indices():
    # as trees.star does: a ValueError naming the index and the count, not
    # a tree holding -1 or a bare IndexError (test_farthest_vertex_in
    # covers a color no neighborhood has)
    nbs = generate(GenSpec("random_neighborhoods", 4, 3, vertices_per_nb=3))
    total = len(nbs.points)
    for bad in (-1, total):
        with pytest.raises(ValueError, match=f"center {bad} out of range for {total} vertices"):
            longest_spanning_star_nb(nbs, bad)
        for a, b in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match=f"vertex {bad} out of range for {total} vertices"):
                build_double_star(nbs, a, b)
            guess = f"guess index {bad} out of range for {total} points"
            for guess_check in (build_Ta, build_Tb, classify_points):
                with pytest.raises(ValueError, match=guess):
                    guess_check(nbs.points, a, b)
