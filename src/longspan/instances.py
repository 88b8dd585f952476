"""Instance generators and on-disk formats.

Generation is driven by SplitMix64, a fixed 64-bit generator chosen so any
implementation, in any language, can reproduce the exact same instances from
a spec (see README for the stream definition).  File formats round-trip
every finite double exactly via shortest-representation decimals.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .geometry import Point
from .neighborhoods import Neighborhood, NeighborhoodSet
from .report import SolveReport
from .trees import Tree

_MASK64 = (1 << 64) - 1

GENERATOR_KINDS = (
    "uniform_square",
    "uniform_disk",
    "two_cluster",
    "diam_counterexample",
    "random_neighborhoods",
)


class SplitMix64:
    """SplitMix64: state advances by 0x9E3779B97F4A7C15; output is the
    standard two-round xor-multiply finalizer.  Doubles take the top 53 bits
    of one output word."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def in_unit_disk(self) -> tuple[float, float]:
        """Uniform point in the closed unit disk, by rejection from the
        bounding square (two draws per attempt)."""
        while True:
            x = 2.0 * self.random() - 1.0
            y = 2.0 * self.random() - 1.0
            if x * x + y * y <= 1.0:
                return x, y


@dataclass(frozen=True)
class GenSpec:
    """Deterministic instance recipe: identical specs generate identical
    instances, byte for byte."""

    kind: str
    n: int
    seed: int
    epsilon: float | None = None
    vertices_per_nb: int | None = None


def _validate_spec(spec: GenSpec) -> None:
    if spec.kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    if spec.n < 2:
        raise ValueError("n must be at least 2")
    if spec.epsilon is not None:
        if not 0.0 < spec.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if spec.kind not in ("two_cluster", "diam_counterexample"):
            raise ValueError(f"epsilon not used by kind {spec.kind!r}")
    if spec.vertices_per_nb is not None:
        if spec.kind != "random_neighborhoods":
            raise ValueError(f"vertices_per_nb not used by kind {spec.kind!r}")
        if spec.vertices_per_nb < 1:
            raise ValueError("vertices_per_nb must be positive")


def generate(spec: GenSpec) -> list[Point] | NeighborhoodSet:
    """Instance for the given spec: a point list for the point-set kinds, a
    NeighborhoodSet for the neighborhood kinds."""
    _validate_spec(spec)
    rng = SplitMix64(spec.seed)
    n = spec.n

    if spec.kind == "uniform_square":
        return [Point(rng.random(), rng.random()) for _ in range(n)]

    if spec.kind == "uniform_disk":
        return [Point(*rng.in_unit_disk()) for _ in range(n)]

    if spec.kind == "two_cluster":
        eps = spec.epsilon if spec.epsilon is not None else 1e-6
        pts = []
        for _ in range(n - n // 2):
            dx, dy = rng.in_unit_disk()
            pts.append(Point(eps * dx, eps * dy))
        for _ in range(n // 2):
            dx, dy = rng.in_unit_disk()
            pts.append(Point(1.0 + eps * dx, eps * dy))
        return pts

    if spec.kind == "diam_counterexample":
        eps = spec.epsilon if spec.epsilon is not None else 1.0 / max(n, 3)
        nbs = [
            Neighborhood(1, (((0.0, 0.0),), ((3.0 - 2.0 * eps, 0.0),))),
            Neighborhood(2, (((2.0, 0.0),),)),
        ]
        for k in range(3, n + 1):
            dx, dy = rng.in_unit_disk()
            nbs.append(Neighborhood(k, (((1.0 + eps * dx, eps * dy),),)))
        return NeighborhoodSet(nbs)

    # random_neighborhoods
    k = spec.vertices_per_nb if spec.vertices_per_nb is not None else 3
    nbs = []
    for color in range(1, n + 1):
        cx, cy = rng.random(), rng.random()
        ring = []
        for _ in range(k):
            dx, dy = rng.in_unit_disk()
            ring.append(Point(cx + 0.15 * dx, cy + 0.15 * dy))
        nbs.append(Neighborhood(color, (tuple(ring),)))
    return NeighborhoodSet(nbs)


# ---------------------------------------------------------------------------
# point files: one "x y" per line, '#' comments, UTF-8


def _parse_float(tok: str, lineno: int) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ValueError(f"line {lineno}: not a number: {tok!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"line {lineno}: non-finite coordinate")
    return v


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def format_points(points: Sequence[Sequence[float]]) -> str:
    return "".join(f"{repr(float(p[0]))} {repr(float(p[1]))}\n" for p in points)


def parse_points(text: str) -> list[Point]:
    pts = []
    for lineno, line in _content_lines(text):
        toks = line.split()
        if len(toks) != 2:
            raise ValueError(f"line {lineno}: expected 'x y', got {line!r}")
        pts.append(Point(_parse_float(toks[0], lineno), _parse_float(toks[1], lineno)))
    return pts


def write_points(path, points: Sequence[Sequence[float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_points(points))


def read_points(path) -> list[Point]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_points(fh.read())


# ---------------------------------------------------------------------------
# neighborhood files:
#   nbs <n>
#   nb <color-id> <polygon-count>
#   poly <k> followed by k "x y" lines


def format_neighborhoods(nbs: NeighborhoodSet) -> str:
    out = [f"nbs {nbs.n}\n"]
    for nb in nbs.neighborhoods:
        out.append(f"nb {nb.color} {len(nb.polygons)}\n")
        for ring in nb.polygons:
            out.append(f"poly {len(ring)}\n")
            for p in ring:
                out.append(f"{repr(float(p.x))} {repr(float(p.y))}\n")
    return "".join(out)


def parse_neighborhoods(text: str) -> NeighborhoodSet:
    lines = list(_content_lines(text))
    pos = 0

    def take(expect: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise ValueError(f"line {lines[-1][0] if lines else 1}: unexpected end of file")
        lineno, line = lines[pos]
        pos += 1
        toks = line.split()
        if toks[0] != expect:
            raise ValueError(f"line {lineno}: expected {expect!r}, got {line!r}")
        return lineno, toks

    lineno, toks = take("nbs")
    if len(toks) != 2 or not toks[1].isdecimal():
        raise ValueError(f"line {lineno}: malformed header")
    n = int(toks[1])
    seen_colors = set()
    nbs = []
    for _ in range(n):
        lineno, toks = take("nb")
        if len(toks) != 3:
            raise ValueError(f"line {lineno}: malformed neighborhood header")
        try:
            color, npoly = int(toks[1]), int(toks[2])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed neighborhood header") from None
        if color in seen_colors:
            raise ValueError(f"line {lineno}: duplicate color {color}")
        seen_colors.add(color)
        if npoly < 1:
            raise ValueError(f"line {lineno}: neighborhood needs a polygon")
        polys = []
        for _ in range(npoly):
            lineno, toks = take("poly")
            if len(toks) != 2 or not toks[1].isdecimal() or int(toks[1]) < 1:
                raise ValueError(f"line {lineno}: malformed polygon header")
            k = int(toks[1])
            ring = []
            for _ in range(k):
                if pos >= len(lines):
                    raise ValueError(f"line {lineno}: unexpected end of file")
                pl, pline = lines[pos]
                pos += 1
                ptoks = pline.split()
                if len(ptoks) != 2:
                    raise ValueError(f"line {pl}: expected 'x y', got {pline!r}")
                ring.append(
                    Point(_parse_float(ptoks[0], pl), _parse_float(ptoks[1], pl))
                )
            polys.append(tuple(ring))
        nbs.append(Neighborhood(color, tuple(polys)))
    if pos != len(lines):
        raise ValueError(f"line {lines[pos][0]}: trailing content")
    return NeighborhoodSet(nbs)


def write_neighborhoods(path, nbs: NeighborhoodSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_neighborhoods(nbs))


def read_neighborhoods(path) -> NeighborhoodSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_neighborhoods(fh.read())


# ---------------------------------------------------------------------------
# tree files: JSON, schema version 1


def format_tree(report: SolveReport) -> str:
    payload = {
        "format": 1,
        "algorithm": report.algorithm,
        "candidate": report.candidate,
        "guess": list(report.guess) if report.guess is not None else None,
        "points": [[float(p[0]), float(p[1])] for p in report.points],
        "edges": [[i, j] for i, j in report.tree.edges],
        "length": report.length,
    }
    if report.metrics:
        payload["metrics"] = report.metrics
    return json.dumps(payload, sort_keys=True) + "\n"


def parse_tree(text: str) -> SolveReport:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed tree file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != 1:
        raise ValueError("unsupported tree file format")
    if not {"points", "edges", "length"} <= payload.keys():
        raise ValueError("malformed tree file: it needs points, edges and length")
    if not (isinstance(payload["points"], list) and isinstance(payload["edges"], list)):
        raise ValueError("malformed tree file: points and edges must be lists")
    points = []
    for p in payload["points"]:
        if not (isinstance(p, list) and len(p) == 2):
            raise ValueError(f"malformed tree file: point {p!r} is not a pair of numbers")
        points.append(Point(_finite(p[0], "point coordinate"), _finite(p[1], "point coordinate")))
    n = len(points)
    metrics = payload.get("metrics", {})
    if not isinstance(metrics, dict):
        raise ValueError(f"malformed tree file: metrics {metrics!r} is not an object")
    edges = []
    for e in payload["edges"]:
        i, j = _int_pair(e, "edge")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge out of range: ({i}, {j})")
        edges.append((i, j))
    guess = payload.get("guess")
    return SolveReport(
        algorithm=payload.get("algorithm", "unknown"),
        candidate=payload.get("candidate", "unknown"),
        points=tuple(points),
        tree=Tree(n, tuple(edges)),
        length=_finite(payload["length"], "length"),
        guess=_int_pair(guess, "guess") if guess is not None else None,
        metrics=metrics,
    )


def _finite(value, what: str) -> float:
    # a JSON number as a finite float; bools are not numbers here
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"malformed tree file: {what} {value!r} is not a finite number")


def _int_pair(value, what: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2 and all(type(c) is int for c in value)):
        raise ValueError(f"malformed tree file: {what} {value!r} is not two ints")
    return tuple(value)


def write_tree(path, report: SolveReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_tree(report))


def read_tree(path) -> SolveReport:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())
