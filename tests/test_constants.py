from fractions import Fraction

import pytest

from longspan.constants import f1, f2, identity_suite, lf_length, triple_samples
from longspan.geometry import dist
from longspan.instances import SplitMix64
from longspan.noncrossing import ncst_params

from helpers import f1_reference

D = 1.0 / (2.0 * 0.519)


def test_lf_length_reference_value():
    assert lf_length() == pytest.approx(0.9464, abs=5e-4)
    assert lf_length() < 0.95


def test_f1_reference_value_and_cap():
    assert f1(D) == pytest.approx(0.913117, abs=1e-5)
    assert f1(D) < 0.914
    with pytest.raises(ValueError):
        f1(0.9)
    with pytest.raises(ValueError):
        f2(1.2)


def test_triple_samples_rejects_an_unknown_analysis():
    with pytest.raises(ValueError, match="unknown analysis 'bogus'"):
        next(triple_samples(SplitMix64(1), "bogus", 1))


def test_f1_dominates_f2_and_peaks_at_d():
    samples = [D + (1.0 - D) * k / 99 for k in range(100)]
    f1_vals = [f1(ab) for ab in samples]
    f2_vals = [f2(ab) for ab in samples]
    assert all(a > b for a, b in zip(f1_vals, f2_vals))
    assert max(range(100), key=lambda k: f1_vals[k]) == 0  # maximum at ab = d


def test_f1_closed_form_matches_the_derivation():
    for k in range(1001):
        ab = D + (1.0 - D) * k / 1000
        assert abs(f1(ab) - f1_reference(ab)) <= 1e-15, ab


def test_f1_cap_and_identities_hold_in_exact_rationals():
    delta, omega, beta_hat = Fraction(519, 1000), Fraction(4, 25), Fraction(11, 25)
    p = ncst_params(1.0)
    assert (p.delta, p.omega, p.beta_hat) == (float(delta), float(omega), float(beta_hat))
    alpha_hat = (2 * delta + 3 * omega - 2) / (omega - 1) - beta_hat
    k = (2 * delta + alpha_hat - 1) / alpha_hat  # gamma = k * |ab|
    c2 = (1 - omega) ** 2 + (1 - 1 / k**2) * (k**2 / 4 - (Fraction(1, 2) - omega) ** 2)
    assert c2 > 0
    assert -omega / (1 - omega) < 0  # f1's slope over c > 0: f1 is largest at d
    d = 1 / (2 * delta)
    f1d_squared = c2 * (d + (1 - d) / (1 - omega)) ** 2
    assert f1d_squared < Fraction(914, 1000) ** 2
    assert abs(float(f1d_squared) - f1(D) ** 2) < 1e-15
    assert (2 - 3 * omega + (omega - 1) * (alpha_hat + beta_hat)) / 2 == delta
    for ab in (d, (d + 1) / 2, Fraction(1)):
        g = k * ab
        # the derivation's radicand at the top of E2 is (c * |ab|)^2
        radicand = (1 - omega) ** 2 * ab**2 + (g**2 - ab**2) / g**2 * (
            (g / 2) ** 2 - (ab / 2 - omega * ab) ** 2
        )
        assert radicand == c2 * ab**2
        assert (ab + alpha_hat * (g - ab)) / (2 * ab) == delta


def test_identity_suite_residuals_vanish():
    report = identity_suite()
    assert report.lf_len < 0.95
    for name, residual in report.identity_residuals:
        assert abs(residual) < 1e-9, name
    assert report.ratio_floor_margin > 0
    assert 0.5 / 0.963 == pytest.approx(0.51921, abs=1e-5)


def test_middle_region_edges_stay_below_f1_monte_carlo():
    # sample q in M and p in L at ab = d; any pair whose segment avoids the
    # open guess segment must stay below the f1(d) cap
    p = ncst_params(D)
    a, b = (0.0, 0.0), (D, 0.0)
    l1, l2 = p.omega * D, (1 - p.omega) * D
    rng = SplitMix64(7)
    cap = f1(D)

    def in_L(q):
        return dist(q, a) <= 1.0 and dist(q, b) <= 1.0

    m_pts, l_pts = [], []
    while len(m_pts) < 320:
        q = (rng.uniform(l1, l2), rng.uniform(-1.0, 1.0))
        if in_L(q) and dist(q, a) + dist(q, b) <= p.gamma:
            m_pts.append(q)
    while len(l_pts) < 320:
        q = (rng.uniform(D - 1.0, 1.0), rng.uniform(-1.0, 1.0))
        if in_L(q):
            l_pts.append(q)

    worst = 0.0
    checked = 0
    for q in m_pts:
        for r in l_pts:
            # segment q-r crosses the open guess edge iff it spans the axis
            # with the x-intercept strictly inside (0, |ab|)
            if q[1] * r[1] < 0:
                t = q[1] / (q[1] - r[1])
                x = q[0] + t * (r[0] - q[0])
                if 0.0 < x < D:
                    continue
            elif q[1] == 0.0 and 0.0 < q[0] < D:
                continue
            checked += 1
            worst = max(worst, dist(q, r))
    assert checked > 10_000
    assert worst <= cap + 1e-6
