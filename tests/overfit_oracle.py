"""Brute-force oracle for the two overfitting families of ``learn.run_experiment``.

The harness computes a trial's estimation error on arrays, in closed form.
Here the same error comes from the mechanisms, one profile at a time: every
profile of the uniform finite distribution is built explicitly (a one-hot bid
vector for ``spa_overfit``, a dense ``ValuationProfile`` for ``nam_overfit``),
the overfit parameters are built from the sampled profiles, and the training
average and the exact expectation are plain means of ``spa_revenue`` or
``nam_welfare`` over the sample and over the whole support.  It is a
reference only; nothing under ``src/`` imports it.
"""

import math

import numpy as np

from algotune.mechanisms import NamParams, ValuationProfile, nam_welfare, spa_revenue


def overfit_reserves(values, seen, fallback: float) -> list[float]:
    """Per-agent reserves: a seen agent's own value, ``fallback`` for every unseen agent."""
    return [float(v) if i in seen else fallback for i, v in enumerate(values)]


def nam_overfit_params(seen, support_size: int) -> NamParams:
    """Weight 1 on agent i if profile i was seen, else on agent ``support_size + i``."""
    w = [0.0] * (2 * support_size)
    for i in range(support_size):
        w[i if i in seen else support_size + i] = 1.0
    return NamParams(tuple(w))


def spa_profiles(values) -> list[list[float]]:
    """Profile i: agent i bids ``values[i]``, every other agent bids 0."""
    return [[float(v) if j == i else 0.0 for j in range(len(values))] for i, v in enumerate(values)]


def nam_profiles(a, b) -> list[ValuationProfile]:
    """Profile i: agent i values the two alternatives ``a[i]``, agent ``k + i`` values them ``b[i]``."""
    k = len(a)
    profiles = []
    for i in range(k):
        m = np.zeros((2 * k, 2))
        m[i], m[k + i] = a[i], b[i]
        profiles.append(ValuationProfile(m))
    return profiles


def estimation_error(utility, profiles, idx) -> float:
    """|mean utility over the sampled profiles - mean over the whole support|."""
    train = math.fsum(utility(profiles[i]) for i in idx) / len(idx)
    expected = math.fsum(utility(p) for p in profiles) / len(profiles)
    return abs(train - expected)


def spa_overfit_error(values, idx, fallback: float) -> float:
    """Error of the reserves fit to the sampled profiles ``idx``."""
    reserves = overfit_reserves(values, {int(i) for i in idx}, fallback)
    return estimation_error(lambda bids: spa_revenue(bids, reserves), spa_profiles(values), idx)


def nam_overfit_error(a, b, idx) -> float:
    """Error of the weights fit to the sampled profiles ``idx``."""
    p = nam_overfit_params({int(i) for i in idx}, len(a))
    return estimation_error(lambda prof: nam_welfare(prof, p), nam_profiles(a, b), idx)
