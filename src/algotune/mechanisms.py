"""Neutral affine maximizers and second-price auctions with reserves.

A neutral affine maximizer (NAM) selects the alternative maximizing the
agents' weighted values; at least one agent carries weight zero (a "sink").
Payments follow the weighted-VCG formula with the aggregate routed to the
lowest-index sink, so they sum to zero exactly.  Payment entries are signed
transfers credited to each agent (negative means the agent is charged);
quasilinear utility is therefore value-at-outcome plus transfer, which is
what makes truthful reporting optimal.

The second half of the module builds the finite valuation distributions used
by the estimation-error experiments: single-bidder profiles from one ratings
column, and two-bidder profiles from a pair of rating groups.  Support
elements are kept sparse (one or two nonzero agents) so exact expectations
over ten-thousand-profile supports stay cheap; dense matrices are available
on demand for cross-checks.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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

    @property
    def n_alternatives(self):
        return self.matrix.shape[1]


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


class SingleBidProfile:
    """Sparse valuation vector: agent ``agent`` bids ``value``, all others 0."""

    __slots__ = ("agent", "value", "n_agents")

    def __init__(self, agent: int, value: float, n_agents: int):
        self.agent = agent
        self.value = value
        self.n_agents = n_agents

    def to_bids(self) -> np.ndarray:
        bids = np.zeros(self.n_agents)
        bids[self.agent] = self.value
        return bids

    def __repr__(self):
        return f"SingleBidProfile(agent={self.agent}, value={self.value})"


def overfit_reserves(
    sample: Sequence[SingleBidProfile],
    all_values: Sequence[float],
    fallback: float = 0.75,
) -> np.ndarray:
    """Empirically optimal non-anonymous reserves with poor generalization.

    Agents whose profile appears in the sample get their own value as the
    reserve (extracting the full bid); every unseen agent gets ``fallback``.
    """
    reserves = np.full(len(all_values), float(fallback))
    for prof in sample:
        if not isinstance(prof, SingleBidProfile):
            raise ValueError("sample profiles must be single-bidder profiles")
        if prof.n_agents != len(all_values):
            raise ValueError("profile size does not match the value list")
        reserves[prof.agent] = all_values[prof.agent]
    return reserves


def nam_overfit_params(sample_indices: Iterable[int], support_size: int) -> NamParams:
    """Weight vector with high training welfare and poor expected welfare.

    For each support index i: seen -> weight 1 on agent i, 0 on agent
    support_size + i; unseen -> the reverse.  Agents beyond 2 * support_size
    do not exist in this construction.
    """
    if support_size < 1:
        raise ValueError("support_size must be >= 1")
    seen = set(sample_indices)
    w = [0.0] * (2 * support_size)
    for i in range(support_size):
        if i in seen:
            w[i] = 1.0
        else:
            w[support_size + i] = 1.0
    return NamParams(tuple(w))


@dataclass
class FiniteDistribution:
    """Finite-support distribution with exact expectations by enumeration."""

    support: list
    probabilities: np.ndarray

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if len(self.support) != len(self.probabilities):
            raise ValueError("support and probabilities must align")
        if (self.probabilities < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if abs(self.probabilities.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")

    @classmethod
    def uniform(cls, support: list) -> "FiniteDistribution":
        k = len(support)
        if k == 0:
            raise ValueError("need a nonempty support")
        return cls(support, np.full(k, 1.0 / k))

    def sample_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(len(self.support), size=n, p=self.probabilities)

    def to_json(self) -> str:
        return json.dumps(
            {
                "probabilities": self.probabilities.tolist(),
                "support": [_profile_to_dict(x) for x in self.support],
            }
        )


def _profile_to_dict(x) -> dict:
    if isinstance(x, SingleBidProfile):
        return {
            "kind": "single_bid",
            "agent": x.agent,
            "value": x.value,
            "n_agents": x.n_agents,
        }
    if isinstance(x, TwoBidderProfile):
        return {
            "kind": "two_bidder",
            "index": x.index,
            "offset": x.offset,
            "a": list(x.a),
            "b": list(x.b),
            "n_agents": x.n_agents,
        }
    if isinstance(x, ValuationProfile):
        return {"kind": "dense", "matrix": x.matrix.tolist()}
    raise ValueError(f"cannot serialize support element of type {type(x).__name__}")


def expected_utility(dist: FiniteDistribution, utility: Callable) -> float:
    """Exact expectation sum_k p_k * utility(x_k) over the support."""
    return math.fsum(
        p * utility(x) for p, x in zip(dist.probabilities.tolist(), dist.support)
    )


# -- Jester-style ingestion and distribution builders -------------------------

MISSING_MARKER = 99.0


class RatingsTable:
    """User x joke ratings with NaN for missing entries."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def per_joke(self) -> list[list[float]]:
        return [
            [float(x) for x in col[~np.isnan(col)]] for col in self.matrix.T
        ]

    def joke_pair(self, j1: int, j2: int) -> list[tuple[float, float]]:
        """Aligned (joke j1, joke j2) rating pairs over users who rated both."""
        a, b = self.matrix[:, j1], self.matrix[:, j2]
        mask = ~np.isnan(a) & ~np.isnan(b)
        return [(float(x), float(y)) for x, y in zip(a[mask], b[mask])]


def ingest_jester(
    text: str, normalization: str, has_count_column: bool | None = None
) -> RatingsTable:
    """Parse ratings CSV text with values in [-10, 10] and 99 as missing marker.

    ``text`` is the CSV content itself, not a path.  ``normalization`` is
    ``"to_unit"`` (x -> (x+10)/20) or ``"to_centered"`` (x -> x/20).  A
    header row is skipped if present; a leading rating-count column is
    dropped when detected (or as directed).
    """
    if normalization not in ("to_unit", "to_centered"):
        raise ValueError("normalization must be 'to_unit' or 'to_centered'")

    rows = [r for r in csv.reader(io.StringIO(text)) if r and any(x.strip() for x in r)]

    def numeric(row):
        try:
            return [float(x) for x in row]
        except ValueError:
            return None

    if rows and numeric(rows[0]) is None:
        rows = rows[1:]  # header
    if not rows:
        raise ValueError("no data rows")
    parsed = []
    for ridx, row in enumerate(rows):
        vals = numeric(row)
        if vals is None:
            raise ValueError(f"non-numeric data in row {ridx + 1}")
        parsed.append(vals)
    widths = {len(r) for r in parsed}
    if len(widths) != 1:
        raise ValueError("ragged rows in ratings input")

    if has_count_column is None:
        first = [r[0] for r in parsed]
        has_count_column = (
            len(parsed[0]) > 1
            and all(x == int(x) and x >= 0 for x in first)
            and any(x > 10 for x in first)
        )
    if has_count_column:
        parsed = [r[1:] for r in parsed]

    mat = np.asarray(parsed)
    for ridx, row in enumerate(parsed):
        for cidx, x in enumerate(row):
            if x != MISSING_MARKER and not -10.0 <= x <= 10.0:
                raise ValueError(
                    f"rating {x} out of range at row {ridx + 1}, column {cidx + 1}"
                )
    missing = mat == MISSING_MARKER
    if normalization == "to_unit":
        mat = (mat + 10.0) / 20.0
    else:
        mat = mat / 20.0
    mat[missing] = np.nan
    return RatingsTable(mat)


def build_spa_distribution(
    ratings: Sequence[float],
    low_band: tuple[float, float] = (0.25, 0.5),
    high_band: tuple[float, float] = (0.75, 1.0),
    threshold: int = 5000,
) -> FiniteDistribution:
    """Uniform distribution of single-bidder profiles from one joke's ratings.

    The joke must have at least ``threshold`` ratings in each band; the
    support has one profile per qualifying value, with that value as the sole
    nonzero bid.
    """
    low = [r for r in ratings if low_band[0] <= r <= low_band[1]]
    high = [r for r in ratings if high_band[0] <= r <= high_band[1]]
    if len(low) < threshold or len(high) < threshold:
        raise ValueError(
            f"joke does not qualify: {len(low)} ratings in {low_band}, "
            f"{len(high)} in {high_band}, need {threshold} in each"
        )
    values = low + high
    n = len(values)
    support = [SingleBidProfile(i, v, n) for i, v in enumerate(values)]
    return FiniteDistribution.uniform(support)


class TwoBidderProfile:
    """Profile with agents ``index`` and ``offset + index`` holding 2-alternative values."""

    __slots__ = ("index", "offset", "a", "b", "n_agents")

    def __init__(self, index, offset, a, b, n_agents):
        self.index = index
        self.offset = offset
        self.a = (float(a[0]), float(a[1]))
        self.b = (float(b[0]), float(b[1]))
        self.n_agents = n_agents

    def to_profile(self) -> ValuationProfile:
        m = np.zeros((self.n_agents, 2))
        m[self.index] = self.a
        m[self.offset + self.index] = self.b
        return ValuationProfile(m)

    def welfare(self, scores: tuple[float, float]) -> float:
        j = 0 if scores[0] >= scores[1] else 1
        return self.a[j] + self.b[j]


def build_nam_distribution(
    pairs: Sequence[tuple[float, float]],
    group1=lambda r: r[0] >= 0.35 and r[1] <= 0,
    group2=lambda r: r[0] <= 0 and 0 < r[1] <= 0.15,
    n_profiles: int = 500,
    rng: np.random.Generator | None = None,
) -> FiniteDistribution:
    """Uniform distribution of two-bidder profiles from two rating groups.

    Profile i draws agent i's value pair from group 1 and agent
    ``n_profiles + i``'s pair from group 2 (uniformly, via ``rng``); all other
    agents value everything at zero.
    """
    if n_profiles < 1:
        raise ValueError(f"n_profiles must be >= 1, got {n_profiles}")
    if rng is None:
        rng = np.random.default_rng(0)
    a1 = [r for r in pairs if group1(r)]
    a2 = [r for r in pairs if group2(r)]
    if not a1 or not a2:
        raise ValueError(f"empty rating group: |A1|={len(a1)}, |A2|={len(a2)}")
    support = [
        TwoBidderProfile(
            i,
            n_profiles,
            a1[int(rng.integers(len(a1)))],
            a2[int(rng.integers(len(a2)))],
            2 * n_profiles,
        )
        for i in range(n_profiles)
    ]
    return FiniteDistribution.uniform(support)
