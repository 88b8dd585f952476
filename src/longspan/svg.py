"""Static SVG rendering of instances, trees, and analysis regions."""

from __future__ import annotations

import math
from typing import Sequence

from .geometry import dist
from .neighborhoods import NeighborhoodSet

_PALETTE = (
    "#c0392b", "#27ae60", "#2980b9", "#8e44ad", "#d35400",
    "#16a085", "#7f8c8d", "#f39c12", "#2c3e50", "#e84393",
)


class _Canvas:
    def __init__(self, xs, ys):
        # the longer side, with an 8% margin at each end, spans 640 pixels
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        span = max(xmax - xmin, ymax - ymin) or 1.0  # 1.0 if all points coincide
        margin = 0.08 * span
        self.xmin = xmin - margin
        self.scale = 640 / (span + 2 * margin)
        self.w = (xmax - xmin + 2 * margin) * self.scale
        self.h = (ymax - ymin + 2 * margin) * self.scale
        self.ymax = ymax + margin

    def x(self, v: float) -> str:
        return _fmt((v - self.xmin) * self.scale)

    def y(self, v: float) -> str:
        return _fmt((self.ymax - v) * self.scale)  # flip: SVG y grows downward


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_svg(
    points: Sequence[Sequence[float]],
    edges: Sequence[tuple[int, int]] = (),
    nbs: NeighborhoodSet | None = None,
    regions: dict | None = None,
) -> str:
    """Draw points, tree edges, neighborhood vertices, and optional region
    overlays on a 640-pixel canvas.

    regions, when given, is {"a": Point, "b": Point, "radii": [...],
    "ellipse_sums": [...]}: circles of each radius are drawn around both a
    and b, plus ellipses with foci a, b for each focal sum.
    """
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if nbs is not None:
        xs += [p.x for p in nbs.points]
        ys += [p.y for p in nbs.points]
    if regions is not None:
        a, b = regions["a"], regions["b"]
        reach = max(regions.get("radii", ()), default=0.0)
        xs += [a[0] - reach, a[0] + reach, b[0] - reach, b[0] + reach]
        ys += [a[1] - reach, a[1] + reach, b[1] - reach, b[1] + reach]
    cv = _Canvas(xs, ys)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cv.w:.0f}" '
        f'height="{cv.h:.0f}" viewBox="0 0 {cv.w:.0f} {cv.h:.0f}">',
        f'<rect width="{cv.w:.0f}" height="{cv.h:.0f}" fill="white"/>',
    ]

    if regions is not None:
        for r in regions.get("radii", ()):
            for c in (a, b):
                parts.append(
                    f'<circle cx="{cv.x(c[0])}" cy="{cv.y(c[1])}" '
                    f'r="{_fmt(r * cv.scale)}" fill="none" stroke="#b2bec3" '
                    'stroke-dasharray="4 3"/>'
                )
        ab = dist(a, b)
        cx, cy = cv.x((a[0] + b[0]) / 2.0), cv.y((a[1] + b[1]) / 2.0)  # the ellipses' centre
        deg = math.degrees(math.atan2(b[1] - a[1], b[0] - a[0]))
        for s in regions.get("ellipse_sums", ()):
            if s < ab:
                continue
            rx = s / 2.0
            ry = math.sqrt(max(rx ** 2 - (ab / 2.0) ** 2, 0.0))
            parts.append(
                f'<ellipse cx="{cx}" cy="{cy}" '
                f'rx="{_fmt(rx * cv.scale)}" ry="{_fmt(ry * cv.scale)}" '
                f'transform="rotate({_fmt(-deg)} {cx} {cy})" '
                'fill="none" stroke="#6c5ce7" stroke-dasharray="2 3"/>'
            )

    if nbs is not None:
        for k, nb in enumerate(nbs.neighborhoods):
            col = _PALETTE[k % len(_PALETTE)]
            for ring in nb.polygons:
                if len(ring) > 1:
                    path = " ".join(
                        f"{cv.x(p.x)},{cv.y(p.y)}" for p in ring
                    )
                    parts.append(
                        f'<polygon points="{path}" fill="{col}" '
                        'fill-opacity="0.12" stroke="none"/>'
                    )
                for p in ring:
                    parts.append(
                        f'<circle cx="{cv.x(p.x)}" cy="{cv.y(p.y)}" '
                        f'r="2.5" fill="{col}" fill-opacity="0.55"/>'
                    )

    for i, j in edges:
        p, q = points[i], points[j]
        parts.append(
            f'<line x1="{cv.x(p[0])}" y1="{cv.y(p[1])}" '
            f'x2="{cv.x(q[0])}" y2="{cv.y(q[1])}" '
            'stroke="#2d3436" stroke-width="1.6"/>'
        )

    for p in points:
        parts.append(
            f'<circle cx="{cv.x(p[0])}" cy="{cv.y(p[1])}" '
            'r="4" fill="#0984e3" stroke="#2d3436" stroke-width="0.8"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
