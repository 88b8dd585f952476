"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the recorded empirical minima.
"""

import math
import random

from longspan.constants import f1, lf_length, triple_samples
from longspan.geometry import bichromatic_diametral_pair, dist
from longspan.instances import GenSpec, SplitMix64, generate
from longspan.neighborhoods import (
    Neighborhood,
    NeighborhoodSet,
    build_double_star,
    longest_spanning_star_nb,
    solve_stnb,
    stnb_params,
)
from longspan.noncrossing import ncst_params, solve_ncst
from longspan.oracles import exact_ncst, exact_stnb
from longspan.trees import (
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

D_NC = 1.0 / (2.0 * 0.519)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_constant_reproduction():
    lf = lf_length()
    f1d = f1(D_NC)
    omega3 = stnb_params().omega
    ok = (
        0.9459 <= lf <= 0.9469
        and lf < 0.95
        and 0.913107 <= f1d <= 0.913127
        and f1d < 0.914
        and 0.8147 <= omega3 <= 0.8157
    )
    _verdict(1, ok, f"lf={lf:.6f}, f1(d)={f1d:.6f}, omega={omega3:.6f}")


def test_criterion_2_identity_suite():
    p3 = stnb_params()
    res_steiner = (math.sqrt(3) / 2) * (p3.omega + 1) - 3 * 0.524
    p = ncst_params(1.0)
    res_ab = (2 - 3 * p.omega + (p.omega - 1) * (p.alpha_hat + p.beta_hat)) / 2 - 0.519
    worst_alpha = 0.0
    for k in range(50):
        ab = p.d + (1.0 - p.d) * k / 49
        q = ncst_params(min(ab, 1.0))
        res = (ab + q.alpha_hat * (q.gamma - ab)) / (2 * ab) - 0.519
        worst_alpha = max(worst_alpha, abs(res))
    ok = (
        abs(res_steiner) < 1e-9
        and abs(res_ab) < 1e-9
        and worst_alpha < 1e-9
        and 0.5 / 0.963 > 0.519
    )
    _verdict(
        2,
        ok,
        f"|steiner|={abs(res_steiner):.2e}, |alpha-beta|={abs(res_ab):.2e}, "
        f"worst|alpha|={worst_alpha:.2e}, 0.5/0.963={0.5/0.963:.5f}>0.519",
    )


def test_criterion_3_ratio_guarantee_noncrossing():
    kinds = ("uniform_square", "uniform_disk", "two_cluster")
    worst = 1.0
    count = 0
    ok = True
    detail = ""
    for k in range(200):
        kind = kinds[k % 3]
        n = 5 + (k // 3) % 4
        spec = GenSpec(
            kind=kind,
            n=n,
            seed=30_000 + k,
            epsilon=0.05 if kind == "two_cluster" else None,
        )
        pts = generate(spec)
        rep = solve_ncst(pts)
        if validate_spanning_tree(rep.tree, pts) is not None:
            ok, detail = False, f"invalid tree on {spec}"
            break
        if not is_noncrossing(rep.tree, pts)[0]:
            ok, detail = False, f"crossing tree on {spec}"
            break
        opt = tree_length(exact_ncst(pts), pts)
        ratio = rep.length / opt
        worst = min(worst, ratio)
        count += 1
        if ratio < 0.519:
            ok, detail = False, f"ratio {ratio:.4f} < 0.519 on {spec}"
            break
    if ok:
        detail = f"{count} instances, min ratio {worst:.4f} (floor 0.519)"
    _verdict(3, ok, detail)


def test_criterion_4_ratio_guarantee_neighborhoods():
    worst = 1.0
    count = 0
    ok = True
    detail = ""
    for k in range(200):
        n = 3 + k % 3
        spec = GenSpec(
            kind="random_neighborhoods",
            n=n,
            seed=40_000 + k,
            vertices_per_nb=1 + k % 4,
        )
        nbs = generate(spec)
        rep = solve_stnb(nbs)
        if validate_spanning_tree(rep.tree, rep.points) is not None:
            ok, detail = False, f"invalid tree on {spec}"
            break
        reps = rep.representatives
        if sorted(reps) != sorted(nb.color for nb in nbs.neighborhoods) or any(
            nbs.color_of(v) != color for color, v in reps.items()
        ):
            ok, detail = False, f"bad representatives on {spec}"
            break
        opt = exact_stnb(nbs).length
        ratio = rep.length / opt
        worst = min(worst, ratio)
        count += 1
        if ratio < 0.524:
            ok, detail = False, f"ratio {ratio:.4f} < 0.524 on {spec}"
            break
    if ok:
        detail = f"{count} instances, min ratio {worst:.4f} (floor 0.524)"
    _verdict(4, ok, detail)


def _random_neighborhood_set(rng: random.Random) -> NeighborhoodSet:
    n = rng.randrange(3, 7)
    nbs = []
    for color in range(1, n + 1):
        cx, cy = rng.uniform(0, 1), rng.uniform(0, 1)
        ring = tuple(
            (cx + rng.uniform(-0.2, 0.2), cy + rng.uniform(-0.2, 0.2))
            for _ in range(rng.randrange(1, 5))
        )
        nbs.append(Neighborhood(color, (ring,)))
    return NeighborhoodSet(nbs)


def test_criterion_5_lemma_property_suites():
    rng = random.Random(50)
    ok = True
    details = []

    # double-star dominance and the |ab|/2 edge floor, 500 instances
    floor_worst = float("inf")
    for _ in range(500):
        nbs = _random_neighborhood_set(rng)
        a, b = bichromatic_diametral_pair(nbs.points, nbs.colors)
        dstar = build_double_star(nbs, a, b)
        sa = longest_spanning_star_nb(nbs, a).length
        sb = longest_spanning_star_nb(nbs, b).length
        if dstar.length < max(sa, sb) - 1e-9:
            ok = False
            details.append("double-star dominance violated")
            break
        ab = dist(nbs.points[a], nbs.points[b])
        rep_pts = dstar.representative_points(nbs)
        ka = nbs.position_of_color(nbs.color_of(a))
        kb = nbs.position_of_color(nbs.color_of(b))
        for i, j in dstar.tree.edges:
            if {i, j} != {ka, kb}:
                floor_worst = min(floor_worst, dist(rep_pts[i], rep_pts[j]) - ab / 2)
        if floor_worst < -1e-9:
            ok = False
            details.append("edge floor violated")
            break
    details.append(f"edge-floor margin {floor_worst:.4f}")

    # two-star bound on 10^4 random pairs
    two_star_worst = float("inf")
    for _ in range(10_000):
        n = rng.randrange(2, 12)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        p, q = rng.sample(range(n), 2)
        lhs = max(tree_length(star(pts, p), pts), tree_length(star(pts, q), pts))
        two_star_worst = min(two_star_worst, lhs - (n / 2) * dist(pts[p], pts[q]))
    if two_star_worst < -1e-9:
        ok = False
        details.append("two-star bound violated")
    details.append(f"two-star margin {two_star_worst:.4f}")

    # triple-connection bounds on the shared sampler's stream; Q membership
    # and the margins are written out again here, so every sample is checked
    # independently of the sampler's own region tests
    smix = SplitMix64(51)
    p524 = stnb_params()
    worst_524 = float("inf")
    count = 0
    for a, b, q, p in triple_samples(smix, "neighborhood", 5000):
        da, db = dist(q, (0, 0)), dist(q, (1, 0))
        in_l12 = (db <= 1 and da <= p524.wide_radius) or (
            da <= 1 and db <= p524.wide_radius
        )
        if (a, b) != ((0, 0), (1, 0)) or not in_l12 or da + db <= p524.ellipse_sum:
            ok = False
            details.append(f"0.524 sample {q} outside Q")
            break
        count += 1
        worst_524 = min(
            worst_524, dist(p, (0, 0)) + dist(p, (1, 0)) + dist(p, q) - 3 * 0.524
        )
    if worst_524 <= 0 or count != 5000:
        ok = False
        details.append("0.524 triple bound violated")
    details.append(f"3-delta margin (0.524) {worst_524:.4f}")

    # triple-connection bound in the 0.519 parameterization, ab in [d, 1]
    worst_519 = float("inf")
    count = 0
    for a, b, q, p in triple_samples(smix, "noncrossing", 5000):
        ab = b[0]
        lam = ncst_params(ab).lam
        bpt = (ab, 0.0)
        da, db = dist(q, (0, 0)), dist(q, bpt)
        in_q = da <= 1.0 and db <= 1.0 and da + db > lam
        if (a, b) != ((0, 0), bpt) or not D_NC <= ab <= 1.0 or not in_q:
            ok = False
            details.append(f"0.519 sample {q} outside Q")
            break
        count += 1
        worst_519 = min(
            worst_519, dist(p, (0, 0)) + dist(p, bpt) + dist(p, q) - 3 * 0.519
        )
    if worst_519 <= 0 or count != 5000:
        ok = False
        details.append("0.519 triple bound violated")
    details.append(f"3-delta margin (0.519) {worst_519:.4f}")

    # Steiner-ratio sandwich on 10^4 triples
    fermat_ok = True
    for _ in range(10_000):
        tri = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)]
        smt = fermat_point(*tri).smt_length
        mst = tree_length(min_spanning_tree(tri), tri)
        if not (math.sqrt(3) / 2 * mst - 1e-9 <= smt <= mst + 1e-9):
            fermat_ok = False
            break
    if not fermat_ok:
        ok = False
        details.append("Steiner-ratio sandwich violated")
    details.append("fermat sandwich held on 10^4 triples")

    _verdict(5, ok, "; ".join(details))


def test_criterion_6_adversarial_reproductions():
    # two tight clusters: the best star is within 3/n of half the Max-ST
    n = 100
    pts = generate(GenSpec(kind="two_cluster", n=n, seed=60, epsilon=1e-6))
    star_tree, _ = best_star(pts)
    ratio_star = tree_length(star_tree, pts) / tree_length(
        max_spanning_tree(pts), pts
    )
    ok1 = 0.5 <= ratio_star <= 0.5 + 3.0 / n

    # forcing the bichromatic diameter into the tree caps the ratio near 1/2
    eps = 1.0 / n
    nbs = generate(GenSpec(kind="diam_counterexample", n=n, seed=61, epsilon=eps))
    i, j = bichromatic_diametral_pair(nbs.points, nbs.colors)
    assert (nbs.points[i], nbs.points[j]) == ((0.0, 0.0), (2.0, 0.0))
    # forcing edge p0-p2 pins the first region's representative to p0; all
    # other regions are singletons, so the assignment is fully determined
    rep_pts = [nbs.points[i], nbs.points[j]] + [
        nbs.points[k] for k in range(3, nbs.total_vertices)
    ]
    forced = max_spanning_tree_through(rep_pts, 0, 1)
    forced_len = tree_length(forced, rep_pts)
    opt = exact_stnb(nbs).length
    bound = (n + 1) / (2 * n - 6) + 1e-9
    ok2 = forced_len / opt <= bound

    _verdict(
        6,
        ok1 and ok2,
        f"two-cluster star ratio {ratio_star:.5f} in [0.5, {0.5 + 3.0 / n:.3f}]; "
        f"forced-diameter ratio {forced_len / opt:.5f} <= {bound:.5f}",
    )


def test_criterion_7_oracle_self_consistency():
    rng = random.Random(70)
    ok = True
    detail = ""
    for _ in range(12):
        n = rng.randrange(3, 7)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        fast = exact_ncst(pts, prune=True)
        slow = exact_ncst(pts, prune=False)
        if fast.edges != slow.edges:
            ok, detail = False, "pruned and unpruned oracles disagree"
            break
    if ok:
        for _ in range(10):
            n = rng.randrange(2, 7)
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
            nbs = NeighborhoodSet(
                [Neighborhood(k + 1, ((p,),)) for k, p in enumerate(pts)]
            )
            if abs(
                exact_stnb(nbs).length - tree_length(max_spanning_tree(pts), pts)
            ) > 1e-12:
                ok, detail = False, "singleton oracle differs from Max-ST"
                break
    if ok:
        detail = "pruned == unpruned (n<=6); singleton assignment == Max-ST"
    _verdict(7, ok, detail)
