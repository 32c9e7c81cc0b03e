"""Support-enumeration oracle for the best anonymous reserve of a single-bidder value set.

With one bidder per profile, the revenue at reserve r is r * P(value >= r).
It rises linearly between support values, so the optimum is attained at one
of them.  ``learn`` finds the same reserve by ERM over the averaged revenue
duals (``erm(anonymous_reserve_duals(w, 0))``); this loop is the check.  It
is a reference only; nothing under ``src/`` imports it.
"""

import numpy as np


def optimal_anonymous_revenue(values: np.ndarray) -> tuple[float, float]:
    """Best anonymous reserve and its exact expected revenue (first maximizer wins)."""
    vals = np.sort(values)
    n = len(vals)
    best_r, best_rev = 0.0, 0.0
    for i, r in enumerate(vals):
        rev = r * (n - i) / n
        if rev > best_rev:
            best_r, best_rev = float(r), float(rev)
    return best_r, best_rev
