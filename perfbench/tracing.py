"""Per-layer tracing from outside the program.

`Tracer` replaces every public function of the layer modules, at every
module binding that refers to it, with a wrapper that records calls, total
and self time, and errors.  Self time is a call's duration minus the
durations of the wrapped calls it made.  Spans (name, start, end, id,
parent, op) are kept in memory and written out at the end; the hot
primitives `orientation`, `segments_cross` and `dist` only aggregate, since
one op makes up to a million of those calls.  `dist` is counted, not timed.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import sys
from time import perf_counter

LAYERS = ("geometry", "trees", "noncrossing", "neighborhoods", "oracles", "instances")
NO_SPAN = {"geometry.orientation", "geometry.segments_cross"}
COUNT_ONLY = {"geometry.dist"}
# calls under these functions are told apart by the counters below
SCOPES = {
    "noncrossing.build_Ta": "build_T",
    "noncrossing.build_Tb": "build_T",
    "oracles.exact_ncst": "exact_ncst",
}

COUNTERS = (
    "orientation.shared",
    "orientation.collinear",
    "is_noncrossing.reject",
    "is_noncrossing.anchored_s",
    "build_T.valid",
    "exact_ncst.cross_pairs",
    "exact_stnb.assignments",
    "solve_ncst.guess_frac",
)
TIMED_COUNTERS = {"is_noncrossing.anchored_s"}

CALLS, TOTAL, SELF, ERRORS = range(4)


class Tracer:
    def __init__(self, package):
        self.functions = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self.functions[f"{layer}.{attr}"] = fn
        by_id = {id(fn): name for name, fn in self.functions.items()}
        prefix = package.__name__ + "."
        self.bindings = [
            (mod, attr, by_id[id(val)])
            for mod_name, mod in list(sys.modules.items())
            if mod_name == package.__name__ or mod_name.startswith(prefix)
            for attr, val in vars(mod).items()
            if id(val) in by_id
        ]
        # statistics since the last fold, and folded totals
        self.stats = {name: [0, 0.0, 0.0, 0] for name in self.functions}
        self.count = dict.fromkeys(COUNTERS, 0)
        self.totals = {name: [0, 0.0, 0.0, 0] for name in self.functions}
        self.total_count = dict.fromkeys(COUNTERS, 0)
        self.active = {"build_T": 0, "exact_ncst": 0}
        self.stack = [[0.0, None]]  # frames: [child seconds, enclosing span id]
        self.spans = []
        self.op = None
        self.epoch = perf_counter()
        self.wrappers = {name: self._wrap(name, fn) for name, fn in self.functions.items()}

    def install(self) -> None:
        for mod, attr, name in self.bindings:
            setattr(mod, attr, self.wrappers[name])

    def uninstall(self) -> None:
        for mod, attr, name in self.bindings:
            setattr(mod, attr, self.functions[name])

    def fold(self, speed: float) -> None:
        """Add the statistics since the last fold to the totals, times
        scaled by the calibration factor `speed` (see speed.py)."""
        for name, stat in self.stats.items():
            total = self.totals[name]
            total[CALLS] += stat[CALLS]
            total[TOTAL] += stat[TOTAL] * speed
            total[SELF] += stat[SELF] * speed
            total[ERRORS] += stat[ERRORS]
            stat[:] = [0, 0.0, 0.0, 0]
        for key, value in self.count.items():
            self.total_count[key] += value * speed if key in TIMED_COUNTERS else value
            self.count[key] = 0

    def reset(self) -> None:
        """Zero the totals; spans are kept."""
        for total in self.totals.values():
            total[:] = [0, 0.0, 0.0, 0]
        self.total_count = dict.fromkeys(COUNTERS, 0)

    # --- wrappers ------------------------------------------------------------

    def _hook(self, name):
        c, active = self.count, self.active

        def orientation(args, result, dur):
            p, q, r = args
            if p == q or q == r or p == r:
                c["orientation.shared"] += 1
            if result == 0:
                c["orientation.collinear"] += 1

        def segments_cross(args, result, dur):
            if active["exact_ncst"]:
                c["exact_ncst.cross_pairs"] += 1

        def is_noncrossing(args, result, dur):
            if not result[0]:
                c["is_noncrossing.reject"] += 1
            if active["build_T"]:
                c["is_noncrossing.anchored_s"] += dur

        def build_T(args, result, dur):
            if result.tree is not None and result.noncrossing:
                c["build_T.valid"] += 1

        def solve_ncst(args, result, dur):
            n = len(args[0])
            c["solve_ncst.guess_frac"] += result.metrics["guesses_tried"] / (n * (n - 1) // 2)

        def exact_stnb(args, result, dur):
            c["exact_stnb.assignments"] += math.prod(
                sum(map(len, nb.polygons)) for nb in args[0].neighborhoods
            )

        return {
            "geometry.orientation": orientation,
            "geometry.segments_cross": segments_cross,
            "trees.is_noncrossing": is_noncrossing,
            "noncrossing.build_Ta": build_T,
            "noncrossing.build_Tb": build_T,
            "noncrossing.solve_ncst": solve_ncst,
            "oracles.exact_stnb": exact_stnb,
        }.get(name)

    def _wrap(self, name, fn):
        stat = self.stats[name]
        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                stat[CALLS] += 1
                return fn(*args, **kwargs)

            return counted

        stack, spans, active = self.stack, self.spans, self.active
        hook = self._hook(name)
        scope = SCOPES.get(name)
        record = name not in NO_SPAN

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, len(spans) if record else parent[1]]
            if record:
                spans.append(None)  # reserve the id; filled in below
            stack.append(frame)
            if scope:
                active[scope] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[ERRORS] += 1
                raise
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                if scope:
                    active[scope] -= 1
                stat[CALLS] += 1
                stat[TOTAL] += dur
                stat[SELF] += dur - frame[0]
                parent[0] += dur
                if record:
                    spans[frame[1]] = (name, t0, t1, frame[1], parent[1], self.op)
            if hook:
                hook(args, result, dur)
            return result

        return wrapper

    # --- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, t0, t1, sid, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": t0 - self.epoch, "end": t1 - self.epoch,
                         "id": sid, "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the folded totals as (value, unit), per
        traced op."""
        s, c = self.totals, self.total_count

        def calls(*names):
            return sum(s[n][CALLS] for n in names)

        def self_s(*names):
            return sum(s[n][SELF] for n in names) / ops

        def frac(num, den):
            return num / den if den else 0.0

        orient = calls("geometry.orientation")
        nc = s["trees.is_noncrossing"]
        build = ("noncrossing.build_Ta", "noncrossing.build_Tb")
        diam = ("geometry.diametral_pair", "geometry.bichromatic_diametral_pair")
        candidates = (
            "neighborhoods.farthest_vertex_in",
            "neighborhoods.longest_spanning_star_nb",
            "neighborhoods.build_double_star",
        )
        per_op, sec, ratio = "count/op", "s/op", "ratio"
        return {
            "geometry.orientation.calls": (orient / ops, per_op),
            "geometry.orientation.self_s": (self_s("geometry.orientation"), sec),
            "geometry.orientation.shared_point_frac": (frac(c["orientation.shared"], orient), ratio),
            "geometry.orientation.collinear_frac": (frac(c["orientation.collinear"], orient), ratio),
            "geometry.segments_cross.calls": (calls("geometry.segments_cross") / ops, per_op),
            "geometry.segments_cross.self_s": (self_s("geometry.segments_cross"), sec),
            "geometry.diametral.calls": (calls(*diam) / ops, per_op),
            "geometry.diametral.self_s": (self_s(*diam), sec),
            "geometry.dist.calls": (calls("geometry.dist") / ops, per_op),
            "trees.is_noncrossing.calls": (nc[CALLS] / ops, per_op),
            "trees.is_noncrossing.self_s": (self_s("trees.is_noncrossing"), sec),
            "trees.is_noncrossing.reject_frac": (frac(c["is_noncrossing.reject"], nc[CALLS]), ratio),
            "trees.is_noncrossing.anchored_frac": (frac(c["is_noncrossing.anchored_s"], nc[TOTAL]), ratio),
            "trees.validate_spanning_tree.self_s": (self_s("trees.validate_spanning_tree"), sec),
            "trees.tree_length.self_s": (self_s("trees.tree_length"), sec),
            "noncrossing.solve_ncst.self_s": (self_s("noncrossing.solve_ncst"), sec),
            "noncrossing.build_T.calls": (calls(*build) / ops, per_op),
            "noncrossing.build_T.self_s": (self_s(*build), sec),
            "noncrossing.build_T.valid_frac": (frac(c["build_T.valid"], calls(*build)), ratio),
            "noncrossing.guess_frac": (
                frac(c["solve_ncst.guess_frac"], calls("noncrossing.solve_ncst")), ratio
            ),
            "neighborhoods.solve_stnb.self_s": (self_s("neighborhoods.solve_stnb"), sec),
            "neighborhoods.candidates.self_s": (self_s(*candidates), sec),
            "oracles.exact_ncst.self_s": (self_s("oracles.exact_ncst"), sec),
            "oracles.exact_ncst.cross_pairs": (c["exact_ncst.cross_pairs"] / ops, per_op),
            "oracles.exact_stnb.self_s": (self_s("oracles.exact_stnb"), sec),
            "oracles.exact_stnb.assignments": (c["exact_stnb.assignments"] / ops, per_op),
            "oracles.oracle_ratio.self_s": (self_s("oracles.oracle_ratio"), sec),
        }
