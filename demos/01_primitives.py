"""Geometric primitives the tree algorithms stand on.

Run:  python demos/01_primitives.py
"""

from longspan import (
    bichromatic_diametral_pair,
    diametral_pair,
    dist,
    orientation,
    segments_cross,
)

# Orientation is the one predicate that must never be wrong: every crossing
# test reduces to it.  The implementation filters in floating point and
# falls back to exact rational arithmetic near zero.
print("orientation((0,0) -> (1,0), probe):")
for probe in [(0.5, 1e-18), (0.5, 0.0), (0.5, -1e-18)]:
    print(f"  probe {probe}: {orientation((0, 0), (1, 0), probe):+d}")

# Crossing semantics: interior contact counts, a shared endpoint does not,
# and collinear overlap of positive length counts.
cases = [
    ("X configuration", ((0, 0), (1, 1)), ((0, 1), (1, 0))),
    ("shared endpoint", ((0, 0), (1, 0)), ((1, 0), (1, 1))),
    ("T junction", ((0, 0), (2, 0)), ((1, 0), (1, 1))),
    ("collinear overlap", ((0, 0), (2, 0)), ((1, 0), (3, 0))),
    ("collinear touch", ((0, 0), (1, 0)), ((1, 0), (2, 0))),
]
print("\nsegments_cross:")
for name, s1, s2 in cases:
    print(f"  {name:18s} -> {segments_cross(s1, s2)}")

# Diametral pairs drive both algorithms: the plain one for point sets, the
# bichromatic one for colored neighborhoods.
pts = [(0, 0), (1, 0), (0.2, 0.9), (0.8, -0.4)]
i, j = diametral_pair(pts)
print(f"\ndiametral pair of {pts}: ({i}, {j}), distance {dist(pts[i], pts[j]):.4f}")

colored = [(0, 0), (5, 0), (1, 0)]
colors = [1, 1, 2]
i, j = bichromatic_diametral_pair(colored, colors)
print(f"bichromatic pair (colors {colors}): ({i}, {j})")
