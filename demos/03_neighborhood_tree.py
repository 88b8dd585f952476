"""The 0.524-approximation for the longest spanning tree with neighborhoods.

One double-star and three stars, built around a bichromatic diametral pair;
the longest wins.  Also shows the adversarial family where forcing the
diametral pair into the tree caps any algorithm at ratio 1/2.

Run:  python demos/03_neighborhood_tree.py      (writes demos/out/*.svg)
"""

import os

from longspan import (
    GenSpec,
    exact_stnb,
    generate,
    render_svg,
    solve_stnb,
    stnb_region_report,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

nbs = generate(GenSpec(kind="random_neighborhoods", n=5, seed=99, vertices_per_nb=4))
rep = solve_stnb(nbs)
print("random 5-neighborhood instance (4 vertices each):")
print(f"  winning candidate: {rep.candidate}   length {rep.length:.4f}")
print(f"  candidate lengths: "
      + ", ".join(f"{k}={v:.4f}" for k, v in rep.metrics["candidate_lengths"].items()))
print(f"  cheap upper bound (n-1)|ab| = {rep.upper_bound:.4f}, "
      f"ratio to it {rep.metrics['ratio_to_upper']:.4f}")

opt = exact_stnb(nbs)
print(f"  exact optimum (assignment enumeration): {opt.length:.4f}")
print(f"  empirical ratio: {rep.length / opt.length:.4f}  (guaranteed >= 0.524)")

region = stnb_region_report(nbs)
print(f"  region report: m={region.m} neighborhoods inside the core lens, "
      f"Q {'non-empty' if region.q_nonempty else 'empty'}")

with open(os.path.join(OUT, "03_neighborhoods.svg"), "w", encoding="utf-8") as fh:
    fh.write(render_svg(rep.points, rep.tree.edges, nbs=nbs))
print(f"wrote {OUT}/03_neighborhoods.svg")

# Adversarial family: X1 = {(0,0), (3-2e,0)}, X2 = {(2,0)}, singletons near
# (1,0).  The unique bichromatic diameter is (0,0)-(2,0); committing to it
# forfeits the far vertex and the ratio collapses toward 1/2.
n = 40
nbs = generate(GenSpec(kind="diam_counterexample", n=n, seed=7))
rep = solve_stnb(nbs)
opt = exact_stnb(nbs)
print(f"\ndiametral-pair trap (n={n}):")
print(f"  algorithm output {rep.length:.3f} via {rep.candidate}, optimum {opt.length:.3f}, "
      f"ratio {rep.length / opt.length:.4f}")
print(f"  any tree forced through the diameter is capped near "
      f"{(n + 1) / (2 * n - 6):.4f} of the optimum")
