"""Command-line surface: generate instances, run the approximation solvers
and the exact oracles, validate trees, compare ratios, and run the
benchmark suites.

Exit codes: 0 success, 1 usage error, 2 instance/guard/validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constants
from .geometry import dist
from .instances import (
    GenSpec,
    NeighborhoodSet,
    SplitMix64,
    _tree_record,
    _write_text,
    generate,
    read_neighborhoods,
    read_points,
    read_tree,
    write_neighborhoods,
    write_points,
    write_tree,
)
from .neighborhoods import DELTA_NEIGHBORHOOD, solve_stnb, stnb_params
from .noncrossing import DELTA_NONCROSSING, ncst_params, solve_ncst
from .oracles import exact_ncst, exact_stnb, oracle_ratio
from .report import SolveReport
from .svg import render_svg
from .trees import is_noncrossing, tree_length, validate_spanning_tree


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="longspan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a deterministic instance")
    p.set_defaults(run=_cmd_gen)
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--vertices-per-nb", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ncst", help=f"{DELTA_NONCROSSING}-approximate longest noncrossing "
                       "spanning tree")
    p.set_defaults(run=_cmd_ncst)
    p.add_argument("--points", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--svg-regions", action="store_true")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--report", default=None)

    p = sub.add_parser("stnb", help=f"{DELTA_NEIGHBORHOOD}-approximate longest spanning tree "
                       "with neighborhoods")
    p.set_defaults(run=_cmd_stnb)
    p.add_argument("--nbs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--svg-regions", action="store_true")
    p.add_argument("--report", default=None)

    p = sub.add_parser("oracle", help="exact brute-force reference solver")
    p.set_defaults(run=_cmd_oracle)
    p.add_argument("problem", choices=["ncst", "stnb"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-n", type=int, default=9)
    p.add_argument("--max-assignments", type=int, default=10**6)

    p = sub.add_parser("check", help="validate a tree file")
    p.set_defaults(run=_cmd_check)
    p.add_argument("--tree", required=True)
    p.add_argument("--points", default=None)
    p.add_argument("--nbs", default=None)

    p = sub.add_parser("ratio", help="length ratio of two tree files")
    p.set_defaults(run=_cmd_ratio)
    p.add_argument("--approx", required=True)
    p.add_argument("--oracle", required=True)

    p = sub.add_parser("bench", help="benchmark suites")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--suite", required=True, choices=_BENCH_SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def _cmd_gen(args) -> int:
    spec = GenSpec(
        kind=args.kind,
        n=args.n,
        seed=args.seed,
        epsilon=args.epsilon,
        vertices_per_nb=args.vertices_per_nb,
    )
    inst = generate(spec)
    if isinstance(inst, NeighborhoodSet):
        write_neighborhoods(args.out, inst)
    else:
        write_points(args.out, inst)
    return 0


def _write_solver_outputs(args, report: SolveReport, nbs=None) -> None:
    write_tree(args.out, report)
    if args.report:
        metrics = dict(report.metrics, upper_bound=report.upper_bound)
        _write_text(args.report, _tree_record(report, metrics=metrics))
    if args.svg:
        regions = None
        if args.svg_regions:
            if report.algorithm == "stnb":
                params = stnb_params()
                a, b = report.metrics["ab_pair"]
                regions = {
                    "a": nbs.points[a],
                    "b": nbs.points[b],
                    "radii": [
                        params.lens_radius * report.metrics["ab_length"],
                        params.core_radius * report.metrics["ab_length"],
                    ],
                    "ellipse_sums": [params.ellipse_sum * report.metrics["ab_length"]],
                }
            else:
                # anchor on the winning guess, or the diametral pair for stars
                i, j = report.guess or report.metrics["diametral_pair"]
                diam = report.metrics["diameter"]
                params = ncst_params(
                    min(dist(report.points[i], report.points[j]) / diam, 1.0)
                )
                regions = {
                    "a": report.points[i],
                    "b": report.points[j],
                    "radii": [diam],
                    "ellipse_sums": [params.lam * diam, params.gamma * diam],
                }
        svg = render_svg(report.points, report.tree.edges, nbs=nbs, regions=regions)
        _write_text(args.svg, svg)


def _cmd_ncst(args) -> int:
    points = read_points(args.points)
    report = solve_ncst(points, prune=not args.no_prune)
    _write_solver_outputs(args, report)
    return 0


def _cmd_stnb(args) -> int:
    nbs = read_neighborhoods(args.nbs)
    report = solve_stnb(nbs)
    _write_solver_outputs(args, report, nbs=nbs)
    return 0


def _cmd_oracle(args) -> int:
    if args.problem == "ncst":
        points = read_points(args.infile)
        tree = exact_ncst(points, max_n=args.max_n)
        report = SolveReport(
            algorithm="oracle-ncst",
            candidate="oracle",
            points=tuple(points),
            tree=tree,
            length=tree_length(tree, points),
        )
    else:
        nbs = read_neighborhoods(args.infile)
        sol = exact_stnb(nbs, max_assignments=args.max_assignments)
        report = SolveReport(
            algorithm="oracle-stnb",
            candidate="oracle",
            points=tuple(sol.representative_points(nbs)),
            tree=sol.tree,
            length=sol.length,
            representatives=dict(sol.representatives),
        )
    write_tree(args.out, report)
    return 0


_POINT_SET_TREES = ("ncst", "oracle-ncst")  # trees over the instance's own points


def _match_representatives(report: SolveReport, nbs: NeighborhoodSet) -> bool:
    # each tree point must be a vertex of a distinct neighborhood: a perfect
    # point -> color matching, grown by augmenting paths (Kuhn's algorithm),
    # each found breadth-first, so that a long one needs no deep recursion
    colors_at: dict[tuple, set[int]] = {}
    for p, color in zip(nbs.points, nbs.colors):
        colors_at.setdefault(tuple(p), set()).add(color)
    options = [colors_at.get(tuple(p), ()) for p in report.points]
    if len(options) != nbs.n:
        return False
    match: dict[int, int] = {}  # color -> the tree point it represents
    mate: list[int | None] = [None] * nbs.n  # tree point -> its color
    for start in range(nbs.n):
        via: dict[int, int] = {}  # color -> the tree point the search reached it from
        queue = [start]
        for k in queue:
            for color in options[k]:
                if color not in via:
                    via[color] = k
                    if color in match:
                        queue.append(match[color])
        color = next((c for c in via if c not in match), None)
        if color is None:
            return False
        while color is not None:  # flip the path back to start
            k = via[color]
            match[color], mate[k], color = k, color, mate[k]
    return True


def _cmd_check(args) -> int:
    report = read_tree(args.tree)
    problems = []
    violation = validate_spanning_tree(report.tree, report.points)
    if violation:
        problems.append(violation)
    recomputed = tree_length(report.tree, report.points)
    if abs(recomputed - report.length) > 1e-9 * abs(recomputed):
        problems.append(
            f"stored length {report.length} != recomputed {recomputed}"
        )
    if report.algorithm in _POINT_SET_TREES and not problems:
        ok, pair = is_noncrossing(report.tree, report.points)
        if not ok:
            problems.append(f"crossing edges {pair[0]} and {pair[1]}")
    if args.points:
        points = read_points(args.points)
        if [tuple(p) for p in points] != [tuple(p) for p in report.points]:
            problems.append("tree points do not match the points file")
    if args.nbs:
        nbs = read_neighborhoods(args.nbs)
        if not _match_representatives(report, nbs):
            problems.append("tree points are not one representative per color")
    if problems:
        for msg in problems:
            print(f"FAIL: {msg}")
        raise ValueError("; ".join(problems))
    print("ok")
    return 0


def _cmd_ratio(args) -> int:
    approx = read_tree(args.approx)
    oracle = read_tree(args.oracle)
    if oracle.length <= 0:
        raise ValueError("oracle tree has nonpositive length")
    # a neighborhood tree file carries no colors, so only its size is compared
    if oracle.algorithm in _POINT_SET_TREES and approx.points != oracle.points:
        raise ValueError("solution does not match instance")
    print(f"{oracle_ratio(oracle.points, approx, oracle.length).ratio:.6f}")
    return 0


def _bench_paper_constants(_seed: int) -> dict:
    report = constants.identity_suite()
    d = ncst_params(1.0).d
    return {
        "lf_length": report.lf_len,
        "omega_neighborhood": stnb_params().omega,
        "f1_at_d": constants.f1(d),
        "f2_at_d": constants.f2(d),
        "identity_residuals": dict(report.identity_residuals),
        "ratio_floor_margin": report.ratio_floor_margin,
    }


def _bench_ratios(seed: int) -> dict:
    out = {}
    worst = 1.0
    rows = []
    for k in range(12):
        spec = GenSpec(kind="uniform_square", n=5 + k % 3, seed=seed * 1000 + k)
        pts = generate(spec)
        rep = solve_ncst(pts)
        rec = oracle_ratio(pts, rep)
        rows.append({"seed": spec.seed, "n": spec.n, "ratio": rec.ratio})
        worst = min(worst, rec.ratio)
    out["ncst_uniform_square"] = rows
    out["ncst_worst_ratio"] = worst

    worst = 1.0
    rows = []
    for k in range(12):
        spec = GenSpec(
            kind="random_neighborhoods", n=4, seed=seed * 2000 + k, vertices_per_nb=3
        )
        nbs = generate(spec)
        rep = solve_stnb(nbs)
        rec = oracle_ratio(nbs, rep)
        rows.append({"seed": spec.seed, "ratio": rec.ratio})
        worst = min(worst, rec.ratio)
    out["stnb_random_neighborhoods"] = rows
    out["stnb_worst_ratio"] = worst
    return out


def _bench_lemmas(seed: int) -> dict:
    # sampled margins for the two triple-connection bounds (both deltas)
    rng = SplitMix64(seed)
    results = {}
    for name, analysis, delta in (
        ("neighborhood_524", "neighborhood", DELTA_NEIGHBORHOOD),
        ("noncrossing_519", "noncrossing", DELTA_NONCROSSING),
    ):
        worst = min(
            dist(p, a) + dist(p, b) + dist(p, q) - 3 * delta
            for a, b, q, p in constants.triple_samples(rng, analysis, 2000)
        )
        results[name] = {"samples": 2000, "worst_margin": worst}
    return results


_BENCH_SUITES = {"paper-constants": _bench_paper_constants, "ratios": _bench_ratios,
                 "lemmas": _bench_lemmas}


def _cmd_bench(args) -> int:
    payload = _BENCH_SUITES[args.suite](args.seed)
    body = {"suite": args.suite, "seed": args.seed, "results": payload}
    _write_text(args.out, json.dumps(body, sort_keys=True, indent=2) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
