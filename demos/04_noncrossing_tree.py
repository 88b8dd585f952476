"""The 0.519-approximation for the longest noncrossing spanning tree.

Stars are computed once; every sufficiently long point pair is tried as the
optimal tree's longest edge, contributing two anchored trees.  Everything is
crossing-validated, so the report is always a valid noncrossing tree.

Run:  python demos/04_noncrossing_tree.py      (writes demos/out/*.svg)
"""

import os

from longspan import (
    GenSpec,
    build_Ta,
    classify_points,
    diametral_pair,
    dist,
    exact_ncst,
    generate,
    is_noncrossing,
    render_svg,
    solve_ncst,
    tree_length,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

pts = generate(GenSpec(kind="uniform_square", n=8, seed=31))
rep = solve_ncst(pts)
print("uniform 8-point instance:")
print(f"  winner: {rep.candidate} (guess {rep.guess}), length {rep.length:.4f}")
print(f"  guesses tried after pruning: {rep.metrics['guesses_tried']}")
print(f"  noncrossing: {is_noncrossing(rep.tree, pts)[0]}")

opt = exact_ncst(pts)
print(f"  exact optimum: {tree_length(opt, pts):.4f}, "
      f"ratio {rep.length / tree_length(opt, pts):.4f}  (guaranteed >= 0.519)")

with open(os.path.join(OUT, "04_noncrossing.svg"), "w", encoding="utf-8") as fh:
    fh.write(render_svg(pts, rep.tree.edges))
with open(os.path.join(OUT, "04_optimum.svg"), "w", encoding="utf-8") as fh:
    fh.write(render_svg(pts, opt.edges))
print(f"wrote {OUT}/04_noncrossing.svg and 04_optimum.svg")

# Anatomy of one anchored tree: the diametral pair as the guess.
iu, iv = diametral_pair(pts)
cand = build_Ta(pts, iu, iv)
print(f"\nanchored tree for guess ({iu}, {iv}): "
      f"valid={cand.noncrossing}, length {tree_length(cand.tree, pts):.4f}")

# Region fractions for that guess, in diameter-scaled coordinates.
diam = dist(pts[iu], pts[iv])
scaled = [(x / diam, y / diam) for x, y in pts]
cls = classify_points(scaled, iu, iv)
print(f"  alpha (outside inner ellipse) = {cls.alpha:.3f}, "
      f"beta (middle region M) = {cls.beta:.3f}, "
      f"middle-strip fraction = {cls.beta_prime:.3f}")

# Two tight clusters: the classic family that pins plain stars at ratio 1/2.
# The anchored trees break that ceiling and recover nearly n - 1.
pts = generate(GenSpec(kind="two_cluster", n=20, seed=5, epsilon=1e-4))
rep = solve_ncst(pts)
print(f"\ntwo-cluster n=20: output {rep.length:.4f} via {rep.candidate} "
      f"(n/2 = {len(pts) / 2:.1f} is the star ceiling)")
