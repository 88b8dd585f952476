import pytest

from longspan.constants import f1, f2, identity_suite, lf_length, triple_samples
from longspan.geometry import dist
from longspan.instances import SplitMix64
from longspan.noncrossing import ncst_params

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


def test_identity_suite_residuals_vanish():
    report = identity_suite()
    assert report.lf_len < 0.95
    for name, residual in report.identity_residuals:
        assert abs(residual) < 1e-9, name
    assert report.ratio_floor_margin > 0
    assert 0.5 / 0.963 == pytest.approx(0.51921, abs=1e-5)
    assert len(report.f1_at) == 50
    assert all(v < 0.914 for _, v in report.f1_at)


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
