"""The benchmark's workloads: how their inputs are made from a seed, and
what one timed op does.

Every library call goes through attributes of the ``longspan`` package
looked up at call time, so that the traced run sees the wrapped functions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from time import perf_counter

TWO_CLUSTER_EPS = 1e-6
# 2^-540 keeps every coordinate a normal double, but the orientation
# products (about 2^-1080) underflow to zero.
UNDERFLOW_SCALE = 2.0 ** -540
LATTICE_SIDE = 6


@dataclass(frozen=True)
class Kind:
    """One instance family at one size.  For point sets `n` is the number
    of points; for neighborhoods it is the number of neighborhoods, each
    with `vpn` vertices."""

    family: str
    n: int
    vpn: int = 0

    @property
    def problem(self) -> str:
        return "stnb" if self.vpn else "ncst"


@dataclass(frozen=True)
class Workload:
    """`mix` repeats over the pool: instance k is of kind mix[k % len(mix)].
    Every run solves each of the `pool` instances at least once; the traced
    run cycles over the first `trace_pool` of them."""

    name: str
    mix: tuple[Kind, ...]
    pool: int
    trace_pool: int
    certify: bool = False
    probe: tuple[Kind, ...] = ()
    probe_size: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # Pruning keeps a handful of the 496 guesses: star validation is
        # nearly all the work.
        Workload(
            "ncst-uniform",
            (Kind("uniform_square", 32), Kind("uniform_disk", 32)),
            pool=32,
            trace_pool=6,
        ),
        # two_cluster keeps all 100 cross-cluster guesses, so anchored
        # trees dominate validation; lattice_mix adds exact collinearities.
        # The probe runs the two families that fail at the parent commit,
        # outside the timed ops.
        Workload(
            "ncst-degenerate",
            (Kind("two_cluster", 20),) * 4 + (Kind("lattice_mix", 20),),
            pool=30,
            trace_pool=5,
            probe=(Kind("lattice", 20), Kind("underflow", 20)),
            probe_size=10,
        ),
        # The bichromatic diametral scan is nearly all of solve_stnb; the
        # on-circle third puts every vertex on the convex hull.
        Workload(
            "stnb-large",
            (Kind("random_neighborhoods", 250, 4),) * 2 + (Kind("circle", 250, 4),),
            pool=120,
            trace_pool=24,
        ),
        # The only workload that runs the exact oracles.
        Workload(
            "certify",
            (
                Kind("uniform_square", 12),
                Kind("random_neighborhoods", 6, 6),
                Kind("uniform_disk", 12),
                Kind("random_neighborhoods", 6, 6),
            ),
            pool=160,
            trace_pool=16,
            certify=True,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    kind: Kind
    data: object  # list of points, or a NeighborhoodSet


def _lattice_cells(ls, rng: random.Random, count: int, step: float) -> list:
    cells = [(x, y) for x in range(LATTICE_SIDE) for y in range(LATTICE_SIDE)]
    return [ls.Point(x * step, y * step) for x, y in rng.sample(cells, count)]


def _circle_neighborhoods(ls, rng: random.Random, n: int, vpn: int):
    """n arcs of the circle of radius 1/2 around (1/2, 1/2), vpn vertices
    each, so that every vertex is a corner of the convex hull."""
    nbs = []
    for color in range(1, n + 1):
        mid = rng.uniform(0.0, 2.0 * math.pi)
        angles = sorted(mid + rng.uniform(-0.15, 0.15) for _ in range(vpn))
        ring = tuple(ls.Point(0.5 + 0.5 * math.cos(t), 0.5 + 0.5 * math.sin(t)) for t in angles)
        nbs.append(ls.Neighborhood(color, (ring,)))
    return ls.NeighborhoodSet(nbs)


def make_instance(ls, kind: Kind, rng: random.Random) -> Instance:
    f, n = kind.family, kind.n
    if f in ("uniform_square", "uniform_disk"):
        data = ls.generate(ls.GenSpec(f, n, rng.getrandbits(64)))
    elif f == "two_cluster":
        data = ls.generate(ls.GenSpec(f, n, rng.getrandbits(64), epsilon=TWO_CLUSTER_EPS))
    elif f == "random_neighborhoods":
        data = ls.generate(ls.GenSpec(f, n, rng.getrandbits(64), vertices_per_nb=kind.vpn))
    elif f == "lattice_mix":
        # 8 cells of a 6x6 lattice spanning the unit square, plus uniform points
        data = _lattice_cells(ls, rng, 8, 1.0 / (LATTICE_SIDE - 1))
        data += [ls.Point(rng.random(), rng.random()) for _ in range(n - 8)]
    elif f == "lattice":
        data = _lattice_cells(ls, rng, n, 1.0)
    elif f == "underflow":
        pts = ls.generate(ls.GenSpec("uniform_square", n, rng.getrandbits(64)))
        data = [ls.Point(x * UNDERFLOW_SCALE, y * UNDERFLOW_SCALE) for x, y in pts]
    elif f == "circle":
        data = _circle_neighborhoods(ls, rng, n, kind.vpn)
    else:
        raise ValueError(f"unknown family {f!r}")
    return Instance(kind, data)


def make_pool(ls, workload: Workload, seed: int) -> list[Instance]:
    rng = random.Random(f"longspan-bench:{workload.name}:{seed}")
    mix = workload.mix
    return [make_instance(ls, mix[k % len(mix)], rng) for k in range(workload.pool)]


def make_probe(ls, workload: Workload, seed: int) -> list[Instance]:
    rng = random.Random(f"longspan-bench:{workload.name}:{seed}:probe")
    return [make_instance(ls, kind, rng) for kind in workload.probe for _ in range(workload.probe_size)]


def warm_up(ls, workload: Workload) -> None:
    """One small op of each problem the workload runs, so that lazy imports
    and first-call costs fall into set-up."""
    small = {"ncst": Kind("uniform_square", 8), "stnb": Kind("random_neighborhoods", 4, 3)}
    for problem in sorted({kind.problem for kind in workload.mix + workload.probe}):
        run_op(ls, make_instance(ls, small[problem], random.Random(0)), workload.certify)


@dataclass
class OpResult:
    index: int
    seconds: float = 0.0
    timings: dict = field(default_factory=dict)  # library call -> seconds
    report: object = None
    oracle: object = None  # exact tree (ncst) or StnbSolution (stnb)
    oracle_length: float = 0.0
    ratio: object = None  # RatioRecord
    error: str | None = None
    speed: float = 1.0  # calibration factor, set by the timed loop (speed.py)


def _timed(timings: dict, name: str, fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    timings[name] = perf_counter() - t0
    return out


def run_op(ls, inst: Instance, certify: bool, index: int = -1) -> OpResult:
    """One op: a solver call, or with `certify` a solver call, the exact
    oracle, and `oracle_ratio` taking the oracle length as given."""
    res = OpResult(index)
    t = res.timings
    t0 = perf_counter()
    try:
        if inst.kind.problem == "ncst":
            pts = inst.data
            res.report = _timed(t, "solve_ncst", ls.solve_ncst, pts)
            if certify:
                res.oracle = _timed(t, "exact_ncst", ls.exact_ncst, pts, max_n=len(pts))
                res.oracle_length = ls.tree_length(res.oracle, pts)
                res.ratio = ls.oracle_ratio(pts, res.report, oracle_length=res.oracle_length)
        else:
            nbs = inst.data
            res.report = _timed(t, "solve_stnb", ls.solve_stnb, nbs)
            if certify:
                res.oracle = _timed(t, "exact_stnb", ls.exact_stnb, nbs)
                res.oracle_length = res.oracle.length
                res.ratio = ls.oracle_ratio(nbs, res.report, oracle_length=res.oracle_length)
    except Exception as exc:  # an op that raises is counted as failed
        res.error = f"{type(exc).__name__}: {exc}"
    res.seconds = perf_counter() - t0
    return res
