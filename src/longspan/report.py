"""Solver output record shared by the two approximation algorithms, the
oracles, and the command-line surface."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .geometry import Point
from .trees import Tree


@dataclass(slots=True)
class SolveReport:
    """Winning candidate of a solver run.

    `points` holds the coordinates the tree indexes into (the input points
    for the noncrossing solver, the chosen representatives for the
    neighborhood solver).  `upper_bound` is the cheap certificate
    (n-1) * diameter used by the ratio bookkeeping.
    """

    algorithm: str
    candidate: str
    points: tuple[Point, ...]
    tree: Tree
    length: float
    upper_bound: float | None = None
    guess: tuple[int, int] | None = None
    representatives: dict[int, int] | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
