"""longspan benchmark: one workload per run, through the public Python API.

    python3 perfbench/run.py --workload ncst-uniform [--seed 1] [--seconds 25] [--trace 0]

Run from the root of a checkout; the library is imported from its `src/`.
The run builds its inputs from the seed, sets up three times (reporting the
median), then runs ops in a closed loop on one thread until `--seconds` have
passed and every instance of the pool has been solved at least once.  Each
output is checked by `check.py` outside the timed region.  The last line of
standard output is one JSON object with the end-to-end metrics (`--trace 0`)
or the per-layer metrics of a traced run (`--trace 1`).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # a checkout must look the same after a run

import argparse
import hashlib
import importlib
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter

import check
import speed
from workloads import WORKLOADS, make_pool, make_probe, run_op, warm_up

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
# end-to-end metrics in the result line; the rest are printed above it
GATED = ("setup_s", "ops_per_s", "peak_rss_mb", "solve_p50_s", "solve_tail_s", "upper_ratio_mean")


def import_library():
    """Import longspan afresh from this checkout's src/."""
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "longspan" or m.startswith("longspan.")]:
        del sys.modules[name]
    try:
        ls = importlib.import_module("longspan")
    except ImportError as exc:
        raise SystemExit(f"cannot import longspan from {src}: {exc}")
    if not Path(ls.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"longspan was imported from {ls.__file__}, not from {src}")
    return ls


def build_inputs(ls, workload, seed):
    pool = make_pool(ls, workload, seed)
    probe = make_probe(ls, workload, seed)
    warm_up(ls, workload)
    return pool, probe


def set_up(workload, seed):
    """Import, build the inputs and warm up, SETUP_REPEATS times.  Returns
    the library, the inputs, and the median set-up time, calibrated and on
    the wall clock."""
    calibrated, wall = [], []
    clock = speed.Clock()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ls = import_library()
        pool, probe = build_inputs(ls, workload, seed)
        seconds = perf_counter() - t0
        wall.append(seconds)
        calibrated.append(seconds * clock.factor())
    return ls, pool, probe, statistics.median(calibrated), statistics.median(wall)


def tail(values):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample.  Returns (value, percentile)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


# --- checking ------------------------------------------------------------------


def serialize(ls, inst, res) -> str:
    if res.error:
        return f"error {res.error}\n"
    text = ls.instances.format_tree(res.report)
    if res.oracle is not None:
        if inst.kind.problem == "ncst":
            oracle = ls.SolveReport("oracle-ncst", "oracle", tuple(inst.data), res.oracle, res.oracle_length)
        else:
            points = tuple(res.oracle.representative_points(inst.data))
            oracle = ls.SolveReport("oracle-stnb", "oracle", points, res.oracle.tree, res.oracle_length)
        text += ls.instances.format_tree(oracle) + f"ratio {res.ratio.ratio!r}\n"
    return text


def check_op(inst, res) -> str | None:
    """First problem with an op's outputs, by the checks in check.py."""
    rep = res.report
    if inst.kind.problem == "ncst":
        pts = inst.data
        problem = check.check_ncst(pts, rep)
        if problem or res.oracle is None:
            return problem
        return (
            check.tree_problem(len(pts), res.oracle.edges, check.exact_coords(pts), True)
            or check.length_problem(res.oracle_length, res.oracle.edges, pts)
            or check.ratio_problem(rep.length, res.oracle_length, check.NCST_FLOOR, res.ratio.ratio)
        )
    nbs = inst.data
    problem = check.check_stnb(nbs, rep.representatives, rep.points, rep.tree.edges, rep.length)
    if problem or res.oracle is None:
        return problem
    sol = res.oracle
    flat, _ = check.flatten(nbs)
    points = [flat[sol.representatives[nb.color]] for nb in nbs.neighborhoods]
    return check.check_stnb(nbs, sol.representatives, points, sol.tree.edges, sol.length) or check.ratio_problem(
        rep.length, res.oracle_length, check.STNB_FLOOR, res.ratio.ratio
    )


def evaluate(ls, pool, results):
    """Check every op.  Each instance's first output is checked in full;
    later ops on it must reproduce that output byte for byte.  Returns the
    successful ops, the failures (instance, reason, whether a check failed)
    and the sha256 of the first pass, op k of which solves instance k."""
    first = {}
    ok, failures = [], []
    digest = hashlib.sha256()
    for k, res in enumerate(results):
        inst = pool[res.index]
        text = serialize(ls, inst, res)
        if k < len(pool):
            digest.update(text.encode())
        if res.error:
            failures.append((res.index, res.error, False))
            continue
        if res.index not in first:
            first[res.index] = (text, check_op(inst, res))
        first_text, problem = first[res.index]
        if problem is None and text != first_text:
            problem = "output differs from an earlier op on the same instance"
        if problem:
            failures.append((res.index, f"check failed: {problem}", True))
        else:
            ok.append(res)
    return ok, failures, digest.hexdigest()


# --- inputs ----------------------------------------------------------------------


def describe(pool):
    """Per kind: instance count, size, and the property later optimisations
    depend on (exact collinear triples for point sets, share of vertices on
    the convex hull for neighborhoods)."""
    rows = {}
    for inst in pool:
        if inst.kind.problem == "ncst":
            prop = check.has_collinear_triple(inst.data)
        else:
            prop = check.hull_share(check.flatten(inst.data)[0])
        rows.setdefault(inst.kind, []).append(prop)
    lines = []
    for kind, props in rows.items():
        if kind.problem == "ncst":
            size = f"n={kind.n}"
            prop = f"{sum(props)} with three exactly collinear points"
        else:
            size = f"{kind.n} neighborhoods x {kind.vpn} = {kind.n * kind.vpn} vertices"
            prop = f"hull-corner share {statistics.fmean(props):.4f}"
        lines.append(f"{kind.family} ({size}): {len(props)} instances, {prop}")
    return lines


def run_probe(ls, workload, probe):
    """Solve each probe instance once, untimed.  Returns per family the
    number tried, the number failed and their distinct messages, and any
    output that fails its check."""
    counts, wrong = {}, []
    for inst in probe:
        res = run_op(ls, inst, workload.certify)
        row = counts.setdefault(inst.kind.family, [0, 0, set()])
        row[0] += 1
        if res.error:
            row[1] += 1
            row[2].add(res.error)
        elif problem := check_op(inst, res):
            wrong.append(f"{inst.kind.family}: {problem}")
    return counts, wrong


# --- measurement -------------------------------------------------------------------


def closed_loop(ls, workload, pool, seconds):
    """Ops back to back over the pool until `seconds` have passed and every
    instance has been solved once, with the reference kernel timed between
    ops.  Returns the ops, each with its speed factor, and the wall time."""
    results = []
    clock = speed.Clock()
    t0 = perf_counter()
    while len(results) < len(pool) or perf_counter() - t0 < seconds:
        i = len(results) % len(pool)
        res = run_op(ls, pool[i], workload.certify, i)
        res.speed = clock.factor()
        results.append(res)
    return results, perf_counter() - t0


def traced_loop(ls, tracer, workload, pool, seconds):
    """Alternate an untraced and a traced pass over the pool until `seconds`
    have passed, with the reference kernel timed between ops.  Returns all
    ops and the calibrated times of the untraced and of the traced ops."""
    results, plain, traced = [], [], []
    clock = speed.Clock()
    t0 = perf_counter()
    while not traced or perf_counter() - t0 < seconds:
        for times, install in ((plain, False), (traced, True)):
            if install:
                tracer.install()
            for i, inst in enumerate(pool):
                tracer.op = len(results)
                res = run_op(ls, inst, workload.certify, i)
                res.speed = clock.factor()
                tracer.fold(res.speed)
                times.append(res.seconds * res.speed)
                results.append(res)
            if install:
                tracer.uninstall()
    return results, plain, traced


def end_to_end(workload, results, ok, failures, wall, setup):
    """Every end-to-end metric of the workload as name -> (value, unit,
    wall-clock value or None).  Times are calibrated (see speed.py)."""
    setup_s, setup_wall = setup
    metrics = {
        "setup_s": (setup_s, "s", setup_wall),
        "ops_per_s": (
            len(ok) / sum(res.seconds * res.speed for res in results),
            "1/s",
            len(ok) / wall,
        ),
        "failed_frac": (len(failures) / len(results), "ratio", None),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", None),
    }
    for name in sorted({name for res in ok for name in res.timings}):
        calls = [(res.timings[name] * res.speed, res.timings[name]) for res in ok if name in res.timings]
        cal, raw = zip(*calls)
        (cal_tail, pct), (raw_tail, _) = tail(cal), tail(raw)
        metrics[f"{name}_p50_s"] = (statistics.median(cal), "s", statistics.median(raw))
        metrics[f"{name}_tail_s"] = (cal_tail, "s", raw_tail)
        print(f"  {name}: {len(cal)} calls, tail is p{pct:.1f}")
    # the workload's solver: solve_stnb on stnb-large, solve_ncst elsewhere
    solver = f"solve_{workload.mix[0].problem}"
    if f"{solver}_p50_s" not in metrics:
        raise SystemExit(f"no {solver} call succeeded; first failure: {failures[0][1]}")
    first_ok = [res for res in ok if res is results[res.index]]
    uppers = [res.report.length / res.report.upper_bound for res in first_ok]
    metrics["upper_ratio_mean"] = (statistics.fmean(uppers), "ratio", None)
    if workload.certify:
        metrics["ratio_min"] = (min(res.ratio.ratio for res in first_ok), "ratio", None)
    metrics["solve_p50_s"] = metrics[f"{solver}_p50_s"]
    metrics["solve_tail_s"] = metrics[f"{solver}_tail_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.trace:
        from tracing import SELF, TOTAL, Tracer

        ls = import_library()
        tracer = Tracer(ls)
        tracer.install()
        clock = speed.Clock()
        pool, probe = build_inputs(ls, workload, args.seed)
        tracer.fold(clock.factor())
        tracer.uninstall()
        generate_s = tracer.totals["instances.generate"][SELF]
        tracer.reset()
        pool = pool[: workload.trace_pool]
    else:
        ls, pool, probe, *setup = set_up(workload, args.seed)

    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in describe(pool):
        print(f"  input  {line}")
    if args.trace:
        results, plain, traced = traced_loop(ls, tracer, workload, pool, args.seconds)
    else:
        results, wall = closed_loop(ls, workload, pool, args.seconds)
    ok, failures, digest = evaluate(ls, pool, results)
    probe_counts, probe_wrong = run_probe(ls, workload, probe)

    print(f"  output sha256 {digest} (first pass, {len(pool)} instances)")
    for family, (tried, failed, messages) in probe_counts.items():
        print(f"  known-failure probe {family}: {failed} of {tried} fail: {'; '.join(sorted(messages))}")
    for line in probe_wrong + [f"op on instance {i}: {why}" for i, why, _ in failures]:
        print(f"  FAILED {line}")

    if args.trace:
        metrics = {name: (value, unit, None) for name, (value, unit) in tracer.layer_metrics(len(traced)).items()}
        metrics["instances.generate.self_s"] = (generate_s, "s", None)
        overhead = statistics.fmean(traced) - statistics.fmean(plain)
        metrics["trace.overhead_s"] = (overhead, "s/op", None)
        metrics["trace.overhead_frac"] = (overhead / statistics.fmean(plain), "ratio", None)
        tracer.write_spans(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
        for name in ("noncrossing.solve_ncst", "neighborhoods.solve_stnb", "oracles.exact_ncst", "oracles.exact_stnb"):
            print(f"  span total {name}: {tracer.totals[name][TOTAL] / len(traced):.6g} s/op")
        for name, (calls, _, _, errors) in tracer.totals.items():
            if errors:
                print(f"  errors {name}: {errors} of {calls} calls raised")
        keys = list(metrics)
    else:
        metrics = end_to_end(workload, results, ok, failures, wall, setup)
        keys = GATED
    print(f"  {'metric':40s} {'value':>12s} {'unit':8s} {'' if args.trace else 'wall clock'}")
    for name, (value, unit, raw) in metrics.items():
        print(f"  {name:40s} {value:12.6g} {unit:8s} {'' if raw is None else f'{raw:10.6g}'}".rstrip())

    summary = {
        "correct": not probe_wrong and not any(check_failed for _, _, check_failed in failures),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keys},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
