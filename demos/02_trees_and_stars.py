"""Spanning-tree building blocks: Min-ST, Max-ST, stars, Fermat points.

Run:  python demos/02_trees_and_stars.py      (writes demos/out/*.svg)
"""

import math
import os

from longspan import (
    GenSpec,
    best_star,
    fermat_point,
    generate,
    is_noncrossing,
    max_spanning_tree,
    min_spanning_tree,
    render_svg,
    tree_length,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

pts = generate(GenSpec(kind="uniform_disk", n=14, seed=2024))

mst = min_spanning_tree(pts)
mxt = max_spanning_tree(pts)
st, center = best_star(pts)

print(f"instance: 14 points in the unit disk (seed 2024)")
print(f"Min-ST length: {tree_length(mst, pts):.4f}  noncrossing: {is_noncrossing(mst, pts)[0]}")
print(f"Max-ST length: {tree_length(mxt, pts):.4f}  noncrossing: {is_noncrossing(mxt, pts)[0]}")
print(f"best star:     {tree_length(st, pts):.4f}  center {center}")
print(f"star / Max-ST ratio: {tree_length(st, pts) / tree_length(mxt, pts):.4f} (always >= 0.5)")

for name, tree in [("min_st", mst), ("max_st", mxt), ("best_star", st)]:
    with open(os.path.join(OUT, f"02_{name}.svg"), "w", encoding="utf-8") as fh:
        fh.write(render_svg(pts, tree.edges))
print(f"wrote {OUT}/02_min_st.svg, 02_max_st.svg, 02_best_star.svg")

# The three-point Steiner tree certifies the sqrt(3)/2 bound the two
# approximation analyses lean on.
eq = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
res = fermat_point(*eq)
print(f"\nequilateral triangle: SMT length {res.smt_length:.6f} = sqrt(3)")
print(f"SMT / Min-ST = {res.smt_length / 2:.6f} (the Steiner ratio sqrt(3)/2)")

wide = fermat_point((0, 0), (1, 0), (-1, 0.05))
print(f"wide-angle triple degenerates at vertex {wide.degenerate_at_vertex}")
