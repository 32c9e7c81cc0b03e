"""Sample-complexity calculators and a shattering check, end to end.

How many training instances protect against overfitting a tunable algorithm?
The calculators below turn structural facts (boundary-function counts,
oscillation budgets) into pseudo-dimension and estimation-error bounds.
"""

import math

from algotune.bounds import (
    DecompositionSpec,
    exp_sum_roots,
    finite_class_bound,
    generalization_bound,
    pdim_from_counting,
    pdim_from_oscillations,
    spa_estimation_bound,
    verify_shattering,
)

# Pseudo-dimension from the counting inequality 2^N <= (ekN)^vc (eN)^pdim.
for vc, pd, k in [(1, 0, 1), (1, 1, 100), (3, 2, 10_000)]:
    spec = DecompositionSpec(vc_g_star=vc, pdim_f_star=pd, k=k)
    print(f"vc={vc} pdim={pd} k={k}  ->  pdim bound {pdim_from_counting(spec)}")

# One-dimensional families: oscillation budget B caps the pseudo-dimension.
for B in (1, 2, 100):
    print(f"B={B:>3} oscillations -> pdim {pdim_from_oscillations(B)}")

# Estimation-error curves for an anonymous second-price auction and a finite
# mechanism menu.
print("\nN      spa-bound    menu-of-1000-bound")
for n in (2000, 4000, 8000, 12000):
    print(
        f"{n:<6} {spa_estimation_bound(n, 0.01):.4f}      "
        f"{finite_class_bound(1000, n, 0.01):.4f}"
    )
print("generic Pollard-style bound:", generalization_bound(1.0, 4, 400, math.exp(-1)))

# Exponential sums: t terms have at most t - 1 real roots, found with a
# certificate; that count bounds the pieces of TAD-style objectives.
roots = exp_sum_roots([(2.0, 2.0), (-1.0, 1.0)], -5, 5, 1e-9)
print("\nroots of 2/2^x - 1:", [round(r, 6) for r in roots])

# A direct shattering certificate: one linear utility, two candidates.
cert = verify_shattering([lambda r: r], witnesses=[0.5], candidate_params=[0.0, 1.0])
print("shattering certificate:", cert.to_dict())
