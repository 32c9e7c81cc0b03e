"""TAD prediction: interval weights from a contact matrix, then a rho sweep.

The exponent rho controls how strongly interval density is discounted by
length.  The per-interval constants c_ij do not depend on rho, so optimizing
is weighted-interval scheduling, and the rho axis decomposes into intervals
with a fixed optimal TAD set, separated by roots of exponential sums.
"""

import numpy as np

from algotune.tad import (
    ContactMatrix,
    precompute_cij,
    rho_decomposition,
    tad_optimize,
    tad_utility,
)

# A synthetic contact map with two dense blocks on the diagonal.
n = 12
rng = np.random.default_rng(5)
base = rng.uniform(0.0, 0.3, size=(n, n))
m = (base + base.T) / 2
for lo, hi in ((0, 5), (6, 12)):
    m[lo:hi, lo:hi] += 1.5
np.fill_diagonal(m, 0.0)
cm = ContactMatrix(m)

w = precompute_cij(cm)
print("strongest interval weights c_ij:")
pairs = [(w.c[i][j], (i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
for val, iv in sorted(pairs, reverse=True)[:4]:
    print(f"  {iv}: {val:7.3f}")

for rho in (0.0, 1.0, 2.0):
    ts, obj = tad_optimize(w, rho)
    print(f"rho={rho}: objective={obj:8.3f} TADs={list(ts.intervals)}")

dec = rho_decomposition(w, rho_hi=2.5, tol=1e-6)
print(f"\ndecomposition found {len(dec.tad_sets)} distinct optimal sets")
for idx, ts in enumerate(dec.tad_sets):
    print(f"  set {idx}: {list(ts.intervals)}")

truth, _ = tad_optimize(w, 0.5)
pred, _ = tad_optimize(w, 2.0)
print("\nutility of the rho=2 prediction vs the rho=0.5 truth:", tad_utility(pred, truth))
