"""Neutral affine maximizers and second-price auctions with reserves.

A neutral affine maximizer (NAM) selects the alternative maximizing the
agents' weighted values; at least one agent carries weight zero (a "sink").
Payments follow the weighted-VCG formula with the aggregate routed to the
lowest-index sink, so they sum to zero exactly.  Payment entries are signed
transfers credited to each agent (negative means the agent is charged);
quasilinear utility is therefore value-at-outcome plus transfer, which is
what makes truthful reporting optimal.

The second half covers second-price auctions: revenue under per-agent or
anonymous reserves, and the exact piecewise revenue dual of the anonymous
reserve, one auction at a time or many as one batch.  ``build_nam_distribution``
draws the two-bidder value pairs of the voting-mechanism experiment; the
estimation-error experiments themselves, with exact expectations on arrays,
are ``learn.run_experiment``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .piecewise import PiecewiseBatch, PiecewiseFunction1D


class ValuationProfile:
    """n agents x m alternatives value matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("need an n x m matrix")
        if not np.isfinite(m).all():
            raise ValueError("values must be finite")
        self.matrix = m

    @property
    def n_agents(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class NamParams:
    """Nonnegative agent weights with at least one zero (the sink)."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("need at least one agent")
        if any(w < 0 or not math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite and nonnegative")
        if all(w != 0 for w in self.weights):
            raise ValueError("at least one agent must have weight zero")


def nam_outcome(v: ValuationProfile, p: NamParams) -> int:
    """Alternative (0-based) maximizing the weighted values; ties to lowest index."""
    w = np.asarray(p.weights)
    if len(w) != v.n_agents:
        raise ValueError("weight vector does not match the profile")
    return int(np.argmax(w @ v.matrix))


def nam_payments(v: ValuationProfile, p: NamParams) -> list[float]:
    """Signed transfers, the weighted-VCG formula verbatim.

    A weighted agent is credited (1/w_i)(others' weighted value at the chosen
    alternative minus their best achievable without agent i), which is never
    positive; the lowest-index sink absorbs the negated total and every other
    sink gets zero.  The entries sum to zero.
    """
    w = np.asarray(p.weights)
    scores = w @ v.matrix
    j_star = int(np.argmax(scores))
    sinks = [i for i, wi in enumerate(p.weights) if wi == 0]
    if not sinks:
        raise ValueError("no sink agent")

    pay = [0.0] * v.n_agents
    for i, wi in enumerate(p.weights):
        if wi == 0:
            continue
        without = scores - wi * v.matrix[i]
        j_minus = int(np.argmax(without))
        pay[i] = (without[j_star] - without[j_minus]) / wi
    pay[sinks[0]] = -math.fsum(pay)
    return pay


def nam_welfare(v: ValuationProfile, p: NamParams) -> float:
    """Total (unweighted) value of all agents at the chosen alternative."""
    return float(v.matrix[:, nam_outcome(v, p)].sum())


def nam_agent_utility(
    true_values: np.ndarray, reported: ValuationProfile, p: NamParams, i: int
) -> float:
    """Quasilinear utility of agent i: true value at the outcome plus transfer."""
    j = nam_outcome(reported, p)
    return float(true_values[j]) + nam_payments(reported, p)[i]


def nam_shatter_instances(n: int, epsilon: float):
    """Worst-case valuation profiles for welfare over the NAM family.

    Profile l gives agent l value 1 for alternative 0 and agent n/2 + l value
    ``epsilon`` for alternative 1.  For every bit vector b there is a weight
    vector steering each profile to welfare 1 (bit set) or epsilon (bit
    clear), so witnesses 1/2 shatter.  Returns (profiles, params, witnesses).
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be even and >= 2")
    if n > 48:
        raise ValueError("n > 48 is not enumerable for verification")
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")

    half = n // 2
    profiles = []
    for ell in range(half):
        m = np.zeros((n, 2))
        m[ell, 0] = 1.0
        m[half + ell, 1] = epsilon
        profiles.append(ValuationProfile(m))

    params = []
    for bits in range(2**half):
        w = [0.0] * n
        for ell in range(half):
            if (bits >> ell) & 1:
                w[ell] = 1.0
            else:
                w[half + ell] = 1.0
        params.append(NamParams(tuple(w)))
    return profiles, params, [0.5] * half


# -- second-price auctions ----------------------------------------------------


def spa_revenue(bids: Sequence[float], reserves) -> float:
    """Second-price revenue with per-agent or anonymous reserves.

    The highest bidder (ties to lowest index) wins iff her bid meets her
    reserve and pays the max of the second-highest bid and that reserve.
    """
    bids = list(bids)
    if len(bids) < 2:
        raise ValueError("need at least two bidders")
    if np.ndim(reserves) == 0:
        rvec = [float(reserves)] * len(bids)
    else:
        rvec = [float(r) for r in reserves]
        if len(rvec) != len(bids):
            raise ValueError("reserve vector does not match the bidders")
    if not all(math.isfinite(x) for x in bids + rvec):
        raise ValueError("bids and reserves must be finite")
    if any(r < 0 for r in rvec):
        raise ValueError("reserves must be nonnegative")

    winner = max(range(len(bids)), key=lambda i: (bids[i], -i))
    second = max(b for i, b in enumerate(bids) if i != winner)
    if bids[winner] < rvec[winner]:
        return 0.0
    return max(second, rvec[winner])


def anonymous_reserve_dual(bids: Sequence[float], hi: float = 1.0) -> PiecewiseFunction1D:
    """Revenue of the anonymous SPA as a function of the reserve on [0, hi].

    Exact three-piece form: constant second-highest bid, then the identity,
    then zero once the reserve exceeds the highest bid.  A batch of one of
    ``anonymous_reserve_duals``.
    """
    bids = sorted(bids, reverse=True)
    if len(bids) < 2:
        raise ValueError("need at least two bidders")
    return anonymous_reserve_duals([bids[0]], [bids[1]], hi).functions()[0]


def anonymous_reserve_duals(top, second, hi: float = 1.0) -> PiecewiseBatch:
    """Revenue duals of many anonymous SPAs, as one batch on [0, hi].

    Auction k has highest bid ``top[k]`` and second-highest bid ``second[k]``.
    Each dual's three pieces (constant ``second[k]`` on [0, second[k]), the
    identity up to ``top[k]``, then zero) are clipped to the domain, empty
    ones dropped, and the rest put in canonical form on arrays.
    """
    if hi <= 0:
        raise ValueError("hi must be positive")
    v1 = np.asarray(top, dtype=float)
    v2 = np.asarray(second, dtype=float)
    if v1.shape != v2.shape or v1.ndim != 1:
        raise ValueError("top and second must be 1-d arrays of one length")
    if not (v1 >= v2).all():
        raise ValueError("every top bid must be at least its second bid")
    zero = np.zeros_like(v1)
    seg_lo = np.stack([zero, np.maximum(v2, 0.0), np.maximum(v1, 0.0)], axis=1)
    seg_hi = np.stack([np.minimum(v2, hi), np.minimum(v1, hi), np.full_like(v1, hi)], axis=1)
    keep = seg_hi > seg_lo  # an auction's first kept segment starts at 0, its lo
    slopes = np.broadcast_to([0.0, 1.0, 0.0], keep.shape)[keep]
    icepts = np.stack([v2, zero, zero], axis=1)[keep]
    return PiecewiseBatch(0.0, float(hi), seg_lo[keep], slopes, icepts).canonical()


# -- value pairs of the voting-mechanism experiment ----------------------------


def build_nam_distribution(
    pairs: Sequence[tuple[float, float]],
    n_profiles: int = 500,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Value pairs of ``n_profiles`` two-bidder profiles drawn from two rating groups.

    Group 1 holds the pairs (x, y) with x >= 0.35 and y <= 0, group 2 those
    with x <= 0 and 0 < y <= 0.15.  Profile i draws agent i's pair ``a[i]``
    from group 1, then agent ``n_profiles + i``'s pair ``b[i]`` from group 2
    (uniformly, via ``rng``); all other agents value everything at zero.
    Returns ``(a, b)``, two (n_profiles, 2) arrays.
    """
    if n_profiles < 1:
        raise ValueError(f"n_profiles must be >= 1, got {n_profiles}")
    if rng is None:
        rng = np.random.default_rng(0)
    a1 = [r for r in pairs if r[0] >= 0.35 and r[1] <= 0]
    a2 = [r for r in pairs if r[0] <= 0 and 0 < r[1] <= 0.15]
    if not a1 or not a2:
        raise ValueError(f"empty rating group: |A1|={len(a1)}, |A2|={len(a2)}")
    # one draw per group per profile, in this order: the stream fixes the profiles
    i1, i2 = np.array([(rng.integers(len(a1)), rng.integers(len(a2))) for _ in range(n_profiles)]).T
    return np.asarray(a1, dtype=float)[i1], np.asarray(a2, dtype=float)[i2]
