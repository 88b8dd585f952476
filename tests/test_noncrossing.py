import itertools
import math
import random
from collections import Counter

import pytest

from longspan import noncrossing, oracles, trees
from longspan.geometry import _segment, diametral_pair, dist, orientation
from longspan.instances import GenSpec, generate
from longspan.noncrossing import (
    _strip_split,
    build_Ta,
    build_Tb,
    classify_points,
    ncst_params,
    solve_ncst,
)
from longspan.oracles import exact_ncst
from longspan.trees import is_noncrossing, star, tree_length, validate_spanning_tree

from helpers import crossing_scan_reference, max_noncrossing_tree_bruteforce, solve_ncst_reference


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


def test_guess_checks_reject_coincident_guesses():
    # _strip_split checks every guess: equal points and a == b raise in the
    # anchored builders as in classify_points
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.5, 0.5)]
    for build in (build_Ta, build_Tb, classify_points):
        for a, b in ((0, 2), (2, 0), (1, 1)):
            with pytest.raises(ValueError, match="guess points coincide"):
                build(pts, a, b)


@pytest.mark.parametrize("build", [build_Ta, build_Tb, classify_points])
def test_guess_functions_reject_non_finite_points_by_index(build):
    with pytest.raises(ValueError, match="point 2 has a non-finite coordinate"):
        build([(0.0, 0.0), (1.0, 0.0), (math.nan, 0.5)], 0, 1)


def test_guess_functions_convert_raw_numpy_input():
    np = pytest.importorskip("numpy")
    # int64 coordinates past about 2^31.5 wrap in the crossing kernel's
    # float filter; the builders take their points through as_points
    rng = random.Random(23)
    for _ in range(20):
        k = rng.randrange(28, 41)
        raw = np.array([(rng.randrange(2**k), rng.randrange(2**k)) for _ in range(7)])
        pts = [(int(x), int(y)) for x, y in raw]
        for a in range(7):
            for b in range(7):
                if pts[a] != pts[b]:
                    assert build_Ta(raw, a, b) == build_Ta(pts, a, b)
                    assert build_Tb(raw, a, b) == build_Tb(pts, a, b)


def test_strip_split_keeps_subnormal_strip_lines_apart():
    # at |ab| = 2^-1074, omega*|ab| and (1 - omega)*|ab| round to 0 and to
    # |ab| itself, which would put b on the far strip line
    assert build_Ta([(0.0, 0.0), (5e-324, 0.0)], 0, 1).tree.edges == ((0, 1),)
    pts = [(0.0, 0.0), (40.0, 0.0), (3.0, 5.0), (20.0, -7.0), (38.0, 9.0), (6.0, -2.0), (33.0, 1.0)]
    tiny = [(math.ldexp(x, -1074), math.ldexp(y, -1074)) for x, y in pts]
    assert _strip_split(tiny, 0, 1)[3] == _strip_split(pts, 0, 1)[3]
    for build in (build_Ta, build_Tb):
        assert build(tiny, 0, 1).tree == build(pts, 0, 1).tree


@pytest.mark.parametrize("x, stars", [(1.0, ((0, 1), (1, 2))), (-1.0, ((0, 1), (0, 2)))])
def test_anchored_trees_abort_when_subnormal_strip_lines_collapse(x, stars):
    # |ab| = 2^-1074 with a point 1 away: _strip_split keeps the points'
    # frame, the strip lines round onto a and b, and the mate lands in the
    # middle strip, so there is no spoke to hang the other points from
    pts = [(0.0, 0.0), (5e-324, 0.0), (x, 0.0)]
    assert _strip_split(pts, 0, 1)[3][1] == "middle"
    for build in (build_Ta, build_Tb):
        cand = build(pts, 0, 1)
        assert (cand.tree, cand.noncrossing) == (None, False)
    rep = solve_ncst(pts, prune=False)
    assert (rep.candidate, rep.tree.edges) == ("star", stars)


def _spanning_families():
    rng = random.Random(14)
    lattice = [(rng.randrange(4), rng.randrange(4)) for _ in range(10)]
    yield "uniform", generate(GenSpec("uniform_square", 10, 14))
    yield "two_cluster", generate(GenSpec("two_cluster", 10, 14, epsilon=1e-6))
    yield "int_lattice", lattice
    yield "duplicates", [(0.5, 0.5), (0.0, 1.0), (0.5, 0.5), (1.0, 0.0), (0.0, 1.0),
                         (0.25, 0.75), (0.5, 0.5), (1.0, 1.0)]
    yield "collinear", [(3 * t, -2 * t) for t in (0, 4, 1, 1, 7, 2, 4, 5)]
    for e in (-540, -1074):
        yield f"lattice-2^{e}", [(math.ldexp(x, e), math.ldexp(y, e)) for x, y in lattice]


@pytest.mark.parametrize("pts", [pytest.param(p, id=k) for k, p in _spanning_families()])
def test_candidate_builders_make_spanning_trees(pts):
    # _candidate leaves the spanning check to construction: every
    # star, every anchored tree that is built, and the monotone path on
    # collinear input must be a spanning tree, for every guess (unpruned)
    n = len(pts)
    trees = [star(pts, c) for c in range(n)]
    iu, iv = diametral_pair(pts)
    if all(orientation(pts[iu], pts[iv], p) == 0 for p in pts):
        trees.append(noncrossing._monotone_path(pts, iu, iv))
    anchored = [build(pts, i, j).tree for i in range(n) for j in range(i + 1, n)
                if dist(pts[i], pts[j]) != 0.0 for build in (build_Ta, build_Tb)]
    assert any(tree is not None for tree in anchored)
    for tree in trees + [tree for tree in anchored if tree is not None]:
        assert validate_spanning_tree(tree, pts) is None, tree


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


@pytest.mark.xfail(
    strict=True, raises=(AssertionError, ValueError),
    reason="known defect: on exactly collinear lattice input most stars overlap themselves, "
    "and pruning drops the guesses that the stars were meant to cover",
)
@pytest.mark.parametrize("pts", [
    # the only valid star, 13.5366 against an optimum of 30.6219 (0.4421)
    pytest.param([(5, 0), (4, 2), (3, 1), (3, 2), (2, 0), (3, 0), (5, 1), (1, 5)], id="ratio-0.4421"),
    # raises "no valid noncrossing candidate"; unpruned, it returns the optimum
    pytest.param([(0, 2), (1, 2), (2, 0), (2, 2), (2, 3), (3, 2)], id="no-candidate"),
])
def test_solve_ncst_reaches_its_floor_on_lattice_sets(pts):
    assert solve_ncst(pts).length >= 0.519 * tree_length(exact_ncst(pts), pts)


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
        assert rep.length == math.ldexp(base.length, k), k
        assert exact_ncst(scaled, max_n=12).edges == base_exact.edges, k


def _symmetry_corpus(count: int) -> list[list]:
    # uniform-square and uniform-disk sets, n = 3-20
    rng = random.Random(26)
    return [generate(GenSpec(kind, rng.randint(3, 20), rng.getrandbits(32)))
            for _ in range(count // 2) for kind in ("uniform_square", "uniform_disk")]


def test_solve_ncst_is_relabeling_invariant():
    # A relabeled set gives the same edges after mapping back, and the same
    # length to the bit: lengths are math.fsum, whatever the edge order.
    rng = random.Random(7)
    for pts in _symmetry_corpus(40):
        base = solve_ncst(pts)
        perm = rng.sample(range(len(pts)), len(pts))  # new point k is pts[perm[k]]
        rep = solve_ncst([pts[k] for k in perm])
        back = trees.Tree(len(pts), tuple((perm[i], perm[j]) for i, j in rep.tree.edges))
        assert back.edges == base.tree.edges, pts
        assert rep.length == base.length, pts


def test_solve_ncst_is_invariant_under_quarter_turns():
    # (x, y) -> (-y, x) is exact, so each of the three turns keeps the tree
    # and the length
    for pts in _symmetry_corpus(20):
        base = solve_ncst(pts)
        turned = pts
        for _ in range(3):
            turned = [(-y, x) for x, y in turned]
            rep = solve_ncst(turned)
            assert (rep.tree.edges, rep.length) == (base.tree.edges, base.length), pts


def _near_collinear(seed: int) -> list[tuple[float, float]]:
    # rounded points of one line, some moved off it by one ulp on an axis
    rng = random.Random(seed)
    p, q = (rng.uniform(-1, 1), rng.uniform(-1, 1)), (rng.uniform(-1, 1), rng.uniform(-1, 1))
    pts = []
    for t in (0.0, 0.125, 0.3, 0.5, 0.7, 0.875, 1.0, 1.5):
        x, y = p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])
        move = rng.randrange(3)
        if move == 1:
            x = math.nextafter(x, math.inf)
        elif move == 2:
            y = math.nextafter(y, -math.inf)
        pts.append((x, y))
    return pts


_LATTICE_3 = [(x, y) for x in range(3) for y in range(3)]


@pytest.mark.parametrize("pts", [
    pytest.param(_LATTICE_3, id="lattice3"),
    pytest.param([(x, y) for x in range(4) for y in range(4)], id="lattice4"),
    pytest.param(generate(GenSpec("two_cluster", 10, 4, epsilon=1e-6)), id="two_cluster"),
    pytest.param(_near_collinear(1), id="near_collinear1"),
    pytest.param(_near_collinear(2), id="near_collinear2"),
    pytest.param([(math.ldexp(x, -540), math.ldexp(y, -540)) for x, y in _LATTICE_3],
                 id="lattice3-2^-540"),
    pytest.param([(math.ldexp(x, 500), math.ldexp(y, 500)) for x, y in _near_collinear(1)],
                 id="near_collinear1-2^500"),
    pytest.param([(math.ldexp(x, -540), math.ldexp(y, -540)) for x, y in _near_collinear(2)],
                 id="near_collinear2-2^-540"),
])
def test_crossing_kernel_callers_match_the_reference_scan(pts, monkeypatch):
    # the anchored trees' visibility test and exact_ncst's crossing masks,
    # through the crossing kernel and through a reference scan built on the
    # exact rational segments_cross_reference
    n = len(pts)
    guesses = [(i, j) for i in range(n) for j in range(i + 1, n) if pts[i] != pts[j]]

    def run():
        trees = [(t.tree, t.noncrossing) for i, j in guesses
                 for t in (build_Ta(pts, i, j), build_Tb(pts, i, j))]
        return trees, exact_ncst(pts, max_n=n).edges if n <= 10 else None

    real = run()
    found = []

    def reference(s, segs, start=0):
        found.append(crossing_scan_reference(s, segs, start))
        return found[-1]

    monkeypatch.setattr(noncrossing, "_first_crossing", reference)
    monkeypatch.setattr(oracles, "_first_crossing", reference)
    assert run() == real
    assert -1 in found and max(found) >= 0  # visible and blocked both occur


def _verdict_corpus():
    rng = random.Random(28)
    lattice = {side: [(x, y) for x in range(side) for y in range(side)] for side in (5, 6)}
    yield "uniform", [(rng.random(), rng.random()) for _ in range(9)]
    for eps in (1e-3, 1e-6):
        yield f"two_cluster-{eps}", generate(GenSpec("two_cluster", 8, 3, epsilon=eps))
    for side, cells in lattice.items():
        sample = rng.sample(cells, 9)
        yield f"lattice{side}", sample
        yield f"lattice{side}/7", [(x / 7, y / 7) for x, y in sample]
    # integer points at distance 5 from the origin
    circle = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]
    yield "cocircular", rng.sample(circle, 9)
    yield "near_collinear", _near_collinear(3)
    yield "duplicates", [rng.choice(lattice[5][:8]) for _ in range(9)]


@pytest.mark.parametrize("name, pts", list(_verdict_corpus()), ids=[k for k, _ in _verdict_corpus()])
def test_anchored_verdict_matches_a_full_scan(name, pts, monkeypatch):
    # An anchored tree's verdict comes from its middle sweep's visibility
    # probes and a scan of the edges placed before that sweep; it must be
    # is_noncrossing's over the whole tree (a zero-length edge rejects), with
    # the crossing kernel and with the exact reference scan in its place.
    def check(pts):
        n, seen = len(pts), Counter()
        for i, j in ((i, j) for i in range(n) for j in range(i + 1, n) if pts[i] != pts[j]):
            for cand in (build_Ta(pts, i, j), build_Tb(pts, i, j)):
                if cand.tree is None:
                    assert not cand.noncrossing
                    continue
                try:
                    want = is_noncrossing(cand.tree, pts)[0]
                except ValueError:
                    want = False
                assert cand.noncrossing == want, (cand.tag, cand.guess)
                seen[want] += 1
        return seen

    for e in (0, 500, -500):
        seen = check([(math.ldexp(x, e), math.ldexp(y, e)) for x, y in pts])
    # the exact reference is scale-free, so it runs at the first scale only
    with monkeypatch.context() as m:
        for module in (noncrossing, trees):
            m.setattr(module, "_first_crossing", crossing_scan_reference)
        check(pts)
    # on the duplicate set every anchored tree joins two equal points to one
    # vertex, and those two edges overlap
    assert seen[True] or name == "duplicates"


def _pair_kernel_spy(pts, monkeypatch) -> Counter:
    # Counts, per unordered pair of point-index edges, the segment pairs that
    # the crossing kernel examines and clears, in noncrossing and in trees.
    # A call that finds a crossing is dropped: a visibility probe of a
    # target that the sweep rejects, or a scan of a crossing tree.
    index = {tuple(p): k for k, p in enumerate(pts)}
    pairs, kernel = Counter(), trees._first_crossing

    def edge(segment):
        return frozenset((index[segment[0]], index[segment[1]]))

    def kernel_spy(s, segs, start=0):
        if (m := kernel(s, segs, start)) < 0:
            pairs.update(frozenset((edge(s), edge(t))) for t in segs[start:])
        return m

    for module in (noncrossing, trees):
        monkeypatch.setattr(module, "_first_crossing", kernel_spy)
    return pairs


def test_anchored_tree_checks_each_edge_pair_once(monkeypatch):
    # across the middle sweep's probes and the scan of the edges placed
    # before it, every edge pair of a noncrossing anchored tree reaches the
    # crossing kernel once
    rng = random.Random(7)
    cells = [(x / 5, y / 5) for x in range(6) for y in range(6)]
    uniform = generate(GenSpec("uniform_square", 32, 1))
    lattice_mix = rng.sample(cells, 8) + [(rng.random(), rng.random()) for _ in range(12)]
    for pts in (uniform, lattice_mix):
        guesses = solve_ncst_reference(pts)["guesses"][:12]
        pairs, middle = _pair_kernel_spy(pts, monkeypatch), 0
        for (i, j), build in itertools.product(guesses, (build_Ta, build_Tb)):
            pairs.clear()
            if (cand := build(pts, i, j)).noncrossing:
                edges = [frozenset(e) for e in cand.tree.edges]
                want = {frozenset((e, f)) for k, e in enumerate(edges) for f in edges[k + 1:]}
                assert pairs == dict.fromkeys(want, 1), (cand.tag, cand.guess)
                middle += "middle" in _strip_split(pts, i, j)[3]
        assert middle > 0
        monkeypatch.undo()


def _prune_corpus():
    rng = random.Random(35)
    for _ in range(60):
        yield [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randrange(4, 11))]
    for seed in range(20):
        yield generate(GenSpec("two_cluster", rng.randrange(4, 11), seed, epsilon=1e-3))
    cells = [(x, y) for x in range(5) for y in range(5)]
    for _ in range(20):
        yield rng.sample(cells, rng.randrange(4, 11))


def test_solve_ncst_prune_matches_noprune():
    # pruning only drops guesses shorter than d * diameter: the unpruned
    # solve can only find a longer tree, and when its winner is a candidate
    # the pruned solve also builds (a star, the path or a long guess), the
    # same candidates come first in the same order, so both pick it
    same = longer = 0
    for pts in _prune_corpus():
        try:
            a = solve_ncst(pts, prune=True)
        except ValueError:
            continue
        b = solve_ncst(pts, prune=False)
        assert b.length >= a.length
        threshold = ncst_params(1.0).d * b.metrics["diameter"] * (1 - 1e-12)
        if b.guess is None or dist(pts[b.guess[0]], pts[b.guess[1]]) >= threshold:
            same += 1
            assert (a.candidate, a.guess, a.tree, a.length) == (
                b.candidate, b.guess, b.tree, b.length)
        longer += b.length > a.length
    assert same >= 20 and longer >= 10  # both sides of the property occur


def _reference_corpus():
    rng = random.Random(22)
    for n in (4, 7, 10, 13, 16):
        yield f"uniform{n}", [(rng.random(), rng.random()) for _ in range(n)]
    for eps in (1e-6, 1e-3):
        for n in (6, 13, 20):
            yield f"two_cluster{n}-{eps}", generate(GenSpec("two_cluster", n, n, epsilon=eps))
    cells = [(x, y) for x in range(5) for y in range(5)]
    for k in (4, 6, 9, 12):
        yield f"lattice{k}", rng.sample(cells, k)
    yield "lattice-row", [(x, 3) for x in rng.sample(range(5), 5)]
    yield "lattice-diagonal", [(x, 4 - x) for x in rng.sample(range(5), 4)]
    for k in (5, 8, 11):
        yield f"duplicates{k}", [rng.choice(cells[:7]) for _ in range(k)]


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("pts", [pytest.param(p, id=k) for k, p in _reference_corpus()])
def test_solve_ncst_matches_its_public_builders(pts, prune):
    # solve_ncst shares distances and segments across its candidates; the
    # reference builds and checks each candidate on its own
    for e in (0, 500, -500):
        scaled = [(math.ldexp(x, e), math.ldexp(y, e)) for x, y in pts] if e else pts
        try:
            want = solve_ncst_reference(scaled, prune)
        except ValueError:
            with pytest.raises(ValueError):
                solve_ncst(scaled, prune)
            continue
        rep = solve_ncst(scaled, prune)
        got = {"candidate": rep.candidate, "guess": rep.guess, "edges": rep.tree.edges,
               "length": rep.length, "metrics": rep.metrics}
        assert got == {k: v for k, v in want.items() if k != "guesses"}, e


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_ncst_works_out_each_point_pair_once(seed, monkeypatch):
    # Every star builds its own segments, and each pair is an edge of two
    # stars, so a pair built more than three times was built twice for the
    # anchored trees.  The guess filter and the lengths read the distance
    # table, so every dist call left is one that the anchored trees make.
    pts = generate(GenSpec("two_cluster", 20, seed, epsilon=1e-6))
    guesses = solve_ncst_reference(pts)["guesses"]
    built, calls = Counter(), []

    def segment_spy(p, q):
        built[frozenset((tuple(p), tuple(q)))] += 1
        return _segment(p, q)

    def dist_spy(p, q):
        calls.append((p, q))
        return dist(p, q)

    for module in (noncrossing, trees):
        monkeypatch.setattr(module, "_segment", segment_spy, raising=False)
        monkeypatch.setattr(module, "dist", dist_spy)
    for i, j in guesses:
        build_Ta(pts, i, j)
        build_Tb(pts, i, j)
    anchored_calls = len(calls)
    built.clear()
    calls.clear()
    rep = solve_ncst(pts)
    assert rep.metrics["guesses_tried"] == len(guesses) == 100
    assert len(built) == 190 and max(built.values()) <= 3
    assert len(calls) == anchored_calls


def test_solve_ncst_scans_each_distinct_candidate_once(monkeypatch):
    # A crossing verdict depends only on the points and the edge set, so one
    # solve scans each distinct candidate tree once, whatever its kind: stars
    # through is_noncrossing, anchored trees through _crossing_scan.
    def check(pts):
        guesses = solve_ncst_reference(pts)["guesses"]
        built = [b(pts, i, j).tree for i, j in guesses for b in (build_Ta, build_Tb)]
        stars = {star(pts, c).edges for c in range(len(pts))}
        anchored = {t.edges for t in built if t is not None}
        scans = {"star": Counter(), "anchored": Counter()}
        # an anchored tree's scan gets only the edges placed before its
        # middle sweep, so each scan is keyed by the tree that placed them
        owner, build = {}, noncrossing._anchored_tree

        def anchored_spy(*args):
            tree, scan = build(*args)
            if tree is not None:
                owner[id(scan[0])] = scan[0], tree.edges
            return tree, scan

        def scan_spy(edges, segment):
            placed, tree_edges = owner[id(edges)]
            assert placed is edges
            scans["anchored"][tree_edges] += 1
            return trees._crossing_scan(edges, segment)

        def is_noncrossing_spy(tree, points):
            scans["star"][tree.edges] += 1
            return trees.is_noncrossing(tree, points)

        with monkeypatch.context() as m:
            m.setattr(noncrossing, "_anchored_tree", anchored_spy)
            m.setattr(noncrossing, "_crossing_scan", scan_spy)
            m.setattr(noncrossing, "is_noncrossing", is_noncrossing_spy)
            solve_ncst(pts)
        assert set(scans["star"]) == stars and set(scans["anchored"]) == anchored - stars
        assert {*scans["star"].values(), *scans["anchored"].values()} == {1}
        return anchored, len(built)

    for seed in (1, 2, 3):
        # two-cluster input repeats anchored trees: 200 built, far fewer distinct
        anchored, built = check(generate(GenSpec("two_cluster", 20, seed, epsilon=1e-6)))
        assert built == 200 > 2 * len(anchored)
    # T_a of (0, 1) is the star at 0, which takes the star's verdict: the
    # check above finds its scan among the stars' and not the anchored trees'
    pts = [(0.0, 0.0), (1.0, 0.0), (0.9, 0.1), (0.95, -0.2)]
    anchored, _ = check(pts)
    assert build_Ta(pts, 0, 1).tree.edges == star(pts, 0).edges and star(pts, 0).edges in anchored


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

