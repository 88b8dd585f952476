"""The closed-form constants behind the ratios 0.524 and 0.519.

Run:  python demos/05_analysis_constants.py
"""

from longspan import f1, f2, identity_suite, lf_length, ncst_params, stnb_params

p = stnb_params()
print("neighborhood algorithm (delta = 0.524):")
print(f"  omega = 6*delta/sqrt(3) - 1 = {p.omega:.6f}")
print(f"  analysis ellipse focal sum = {p.ellipse_sum:.6f}")
print(f"  edge cap |lf| = {lf_length():.6f}  (< 0.95)")

q = ncst_params(1.0)
d = q.d
print("\nnoncrossing algorithm (delta = 0.519):")
print(f"  d = 1/(2*delta) = {d:.6f}")
print(f"  alpha_hat = {q.alpha_hat:.6f}, beta_hat = {q.beta_hat}")
print(f"  lambda(|ab|=1) = {q.lam:.6f}, gamma(|ab|=1) = {q.gamma:.6f}")
print(f"  middle-region edge cap f1(d) = {f1(d):.6f}  (< 0.914)")

print("\n  f1/f2 over the admissible guess range (f1 peaks at d):")
for k in range(6):
    ab = d + (1.0 - d) * k / 5
    print(f"    |ab| = {ab:.4f}:  f1 = {f1(ab):.6f}   f2 = {f2(ab):.6f}")

report = identity_suite()
print("\nparameter identities (residuals should vanish):")
for name, res in report.identity_residuals:
    print(f"  {name:24s} {res:+.2e}")
print(f"  star-ratio floor margin 0.5/0.963 - 0.519 = {report.ratio_floor_margin:+.6f}")
