"""Closed-form constants behind the two approximation ratios.

The ratio analyses bound the longest possible tree edge in specific regions
by explicit radicals; this module evaluates those radicals and the algebraic
identities that tie the chosen parameters to the ratios 0.524 and 0.519,
and samples the triple-connection bound both ratios rest on.  f1 is in closed
form; the derivation's radical it replaces is the tests' f1_reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .geometry import dist
from .instances import SplitMix64
from .neighborhoods import DELTA_NEIGHBORHOOD, stnb_label, stnb_params
from .noncrossing import DELTA_NONCROSSING, STRIP_OMEGA, NcstParams, ncst_label, ncst_params


def lf_length() -> float:
    """Largest distance from the low tip of the core lens to the region the
    input occupies when no vertex escapes the analysis ellipse (unit frame).

    For delta = 0.524 this evaluates to about 0.9464, strictly below the
    0.95 edge cap the ratio argument needs.
    """
    delta = DELTA_NEIGHBORHOOD
    omega = stnb_params().omega
    t1 = (omega * omega - 4.0 * delta * delta) / 2.0
    inner = omega * omega - ((1.0 + omega * omega - 4.0 * delta * delta) / 2.0) ** 2
    t2 = math.sqrt(inner) + math.sqrt(delta * delta - 0.25)
    return math.sqrt(t1 * t1 + t2 * t2)


def _guess_params(ab_len: float) -> NcstParams:
    # the 0.519 parameters of a guess length in the admissible range [d, 1]
    params = ncst_params(min(ab_len, 1.0))
    if not params.d - 1e-9 <= ab_len <= 1.0 + 1e-9:
        raise ValueError(f"ab_len {ab_len} outside [{params.d}, 1]")
    return params


def f2(ab_len: float) -> float:
    """Longest edge leaving the middle region from the strip-line foot on
    the axis, as a function of the guess length (diameter-scaled)."""
    params = _guess_params(ab_len)
    u = (1.0 + ab_len * ab_len - (params.lam - 1.0) ** 2) / (2.0 * ab_len)
    return math.sqrt((u - params.omega * ab_len) ** 2 + 1.0 - u * u)


def f1(ab_len: float) -> float:
    """Cap on edges leaving the middle region from the top of the inner
    ellipse: the affine c * (ab_len + (1 - ab_len) / (1 - omega)).

    gamma = k * ab_len, k = (2 delta + alpha_hat - 1) / alpha_hat, makes the
    derivation's radical there c * ab_len, c being the square root below.
    The slope -c * omega / (1 - omega) is negative, so the maximum on [d, 1]
    is f1(d), about 0.913117 < 0.914.
    """
    p = _guess_params(ab_len)
    k = (2.0 * p.delta + p.alpha_hat - 1.0) / p.alpha_hat
    c = math.sqrt((1.0 - p.omega) ** 2 + (1.0 - 1.0 / k**2) * (k**2 / 4.0 - (0.5 - p.omega) ** 2))
    return c * (ab_len + (1.0 - ab_len) / (1.0 - p.omega))


@dataclass(frozen=True)
class ConstantsReport:
    """Numeric backbone for acceptance checks: the edge cap |lf|, the
    residuals of the parameter identities (all must vanish to 1e-9), and
    the strictly positive star-ratio floor margin 0.5/0.963 - 0.519."""

    lf_len: float
    identity_residuals: tuple[tuple[str, float], ...]
    ratio_floor_margin: float


def identity_suite() -> ConstantsReport:
    """Evaluate every closed-form identity the two analyses rest on.  The
    alpha identity (|ab| + alpha_hat (gamma - |ab|)) / (2 |ab|) = delta
    does not depend on |ab|, since gamma is proportional to it, so it is
    evaluated once, at |ab| = 1."""
    p3, pd = stnb_params(), ncst_params(1.0)
    steiner = (math.sqrt(3.0) / 2.0) * (p3.omega + 1.0) - 3.0 * DELTA_NEIGHBORHOOD
    alpha_beta = (2.0 - 3.0 * pd.omega + (pd.omega - 1.0) * (pd.alpha_hat + pd.beta_hat)) / 2.0
    return ConstantsReport(
        lf_len=lf_length(),
        identity_residuals=(
            ("steiner_omega_identity", steiner),
            ("alpha_beta_identity", alpha_beta - pd.delta),
            ("alpha_identity", (1.0 + pd.alpha_hat * (pd.gamma - 1.0)) / 2.0 - pd.delta),
        ),
        ratio_floor_margin=0.5 / 0.963 - DELTA_NONCROSSING,
    )


def triple_samples(rng: SplitMix64, analysis: str, count: int) -> Iterator[tuple]:
    """Yield count samples (a, b, q, p) for the triple-connection bound
    |pa| + |pb| + |pq| > 3*delta of one analysis, q in its region Q.

    "neighborhood" (delta 0.524): a = (0, 0), b = (1, 0), q uniform in
    [-1, 2] x [-1.1, 1.1] until it is in Q = (L1 union L2) minus E.
    "noncrossing" (delta 0.519): |ab| uniform in [d, 1], a = (0, 0),
    b = (|ab|, 0), q uniform in [|ab| - 1, 1] x [-1, 1] until it is in
    Q = L minus E1.  Both boxes cover the lenses.  The probe p is uniform in
    [-1.5, 2.5] x [-1.5, 1.5], drawn once q is accepted.
    """
    if analysis not in ("neighborhood", "noncrossing"):
        raise ValueError(f"unknown analysis {analysis!r}")
    params_nb = stnb_params()
    d = ncst_params(1.0).d
    for _ in range(count):
        while True:
            if analysis == "neighborhood":
                q = (rng.uniform(-1.0, 2.0), rng.uniform(-1.1, 1.1))
                a, b = (0.0, 0.0), (1.0, 0.0)
                in_q = stnb_label(dist(q, a), dist(q, b), params_nb).in_Q
            else:
                ab = rng.uniform(d, 1.0)
                a, b = (0.0, 0.0), (ab, 0.0)
                q = (rng.uniform(ab - 1.0, 1.0), rng.uniform(-1.0, 1.0))
                # _strip_split's rule in this frame, where q's x is q[0]
                x, l1, l2 = q[0], STRIP_OMEGA * ab, (1.0 - STRIP_OMEGA) * ab
                strip = "left" if x < l1 else "right" if x > l2 else "middle"
                in_q = ncst_label(dist(q, a), dist(q, b), strip, ncst_params(ab)).in_Q
            if in_q:
                break
        yield a, b, q, (rng.uniform(-1.5, 2.5), rng.uniform(-1.5, 1.5))
