"""Numeric verification demo: evaluate each analytical guarantee on
concrete instances and report the measured margins.

Covered here:
  * the constrained descent inequality at random in-radius points,
  * the factorization-distance bound
    ||U U^H - V V^H||_F^2 >= 2 (sqrt2 - 1) sigma_r(U)^2 Dist(U, V)^2,
  * the projection scaling bound xi_t >= 128/129 on Frobenius-ball runs,
  * the initialization quality bound on full-rank instances.

The same checks run as `fpgd verify <suite>` with a JSON report.
"""

import dataclasses

from fpgd import gen_synthetic
from fpgd.diagnostics import (
    XI_LOWER_BOUND,
    check_descent_lemma,
    check_init_bound,
    check_tu_inequality,
    check_xi_bound,
)
from fpgd.problems import frobenius_ball

print("descent inequality, 100 random points inside the theorem radius:")
inst = gen_synthetic(n=24, r=2, m=288, condition_number=2.0, noise_norm=0.0, seed=3)
rep = check_descent_lemma(inst, trials=100, seed=4)
print(f"  {rep.trials} trials, {rep.violations} violations, "
      f"worst margin {rep.worst_margin:.3e} (tolerance -1e-9, scale-adjusted)")

print("\nfactorization-distance inequality, 1000 random factor pairs per rank:")
for r in (1, 2, 3):
    rep = check_tu_inequality(r=r, seed=10 + r)
    print(f"  r = {r}: {rep.violations} violations, worst margin {rep.worst_margin:.3e}")

print("\nprojection scaling factors on a boundary-riding Frobenius run:")
inst = gen_synthetic(n=24, r=2, m=288, condition_number=2.0, noise_norm=1e-3, seed=5)
inst = dataclasses.replace(inst, constraint=frobenius_ball(0.8))
rep = check_xi_bound(inst, iters=300)
fired = rep.context["fired"]
if fired:
    min_xi = rep.worst_margin + XI_LOWER_BOUND
    print(f"  projection fired {fired} times; min xi = {min_xi:.9f} >= 128/129 = {XI_LOWER_BOUND:.9f}")
else:
    print("  projection never fired on this run")

print("\ninitialization bound on full-rank instances:")
for n, tau in ((8, 1.5), (10, 2.0), (12, 1.2)):
    inst = gen_synthetic(n=n, r=n, m=8 * n * n, condition_number=tau, noise_norm=0.0, seed=n)
    res = check_init_bound(inst)
    tag = "vacuous, skipped" if res["vacuous"] else (
        "satisfied" if res["satisfied"] else "VIOLATED")
    print(f"  n = {n:2d}, tau = {tau}: Dist(U0, U*) = {res['dist']:.3f} "
          f"vs bound {res['bound']:.3f} -> {tag}")
