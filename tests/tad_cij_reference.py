"""Frozen cell-by-cell TAD weights: the test oracle for ``tad.precompute_cij``.

This is the double loop over spans and start positions that the per-span
numpy statements replaced, kept verbatim so the tests can require equal
weights (``==``, sign of zero included).  It is a reference only; nothing
under ``src/`` imports it.
"""

import numpy as np

from algotune.tad import ContactMatrix, TadWeights, _block_mean


def precompute_cij(m: ContactMatrix) -> TadWeights:
    """Block sums minus same-length diagonal-block means, in O(n^2).

    T(i,j) = sum of M[p][q] over i <= p < q <= j by inclusion-exclusion;
    c_ij = T(i,j) - mean_t T(t, t+j-i).
    """
    n = m.n
    M = m.m
    T = np.zeros((n, n))  # 0-based here
    for span in range(1, n):
        for i in range(0, n - span):
            j = i + span
            left = T[i][j - 1]
            down = T[i + 1][j] if i + 1 <= j else 0.0
            inner = T[i + 1][j - 1] if i + 1 <= j - 1 else 0.0
            T[i][j] = left + down - inner + M[i][j]

    c = np.zeros((n + 1, n + 1))
    for d in range(1, n):
        diag = T.diagonal(offset=d).copy()
        mu = _block_mean(diag)
        for i0 in range(0, n - d):
            c[i0 + 1][i0 + 1 + d] = T[i0][i0 + d] - mu
    return TadWeights(c)
