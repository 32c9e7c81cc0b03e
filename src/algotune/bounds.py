"""Sample-complexity calculators and a generic shattering verifier.

Everything here is a small, directly executable formula: pseudo-dimension
upper bounds solved from their defining counting inequalities, uniform
convergence bounds, root isolation for exponential sums, and an exhaustive
check that a family of per-instance evaluators realizes all sign patterns
against a witness vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

LN2 = math.log(2.0)


@dataclass(frozen=True)
class DecompositionSpec:
    """Complexity triple of a piecewise-decomposable dual class.

    ``vc_g_star`` bounds the dual boundary class, ``pdim_f_star`` the dual
    piece class, and ``k`` counts boundary functions per instance.
    """

    vc_g_star: int
    pdim_f_star: int
    k: int = 1

    def __post_init__(self):
        if self.vc_g_star < 0 or self.pdim_f_star < 0:
            raise ValueError("dimensions must be nonnegative")
        if self.k < 1:
            raise ValueError("k must be >= 1")


def pdim_from_counting(spec: DecompositionSpec) -> int:
    """Largest N with 2^N <= (e*k*N)^vc * (e*N)^pdim.

    Solved in log space by incrementing N; the satisfied region is an
    interval containing N=1, so the first failure is the crossover.
    """
    vc, pd, k = spec.vc_g_star, spec.pdim_f_star, spec.k
    if vc == 0 and pd == 0:
        return 0
    n = 0
    cand = 1
    while True:
        rhs = vc * (1.0 + math.log(k) + math.log(cand)) + pd * (1.0 + math.log(cand))
        if cand * LN2 <= rhs:
            n = cand
            cand += 1
        else:
            return n


def pdim_from_oscillations(B: int) -> int:
    """Largest N with 2^N <= B*N + 1, for piece functions with <= B oscillations."""
    if B < 1:
        raise ValueError("B must be >= 1")
    n = 0
    cand = 1
    while 2**cand <= B * cand + 1:
        n = cand
        cand += 1
    return n


def log_inequality_bound(a: float, b: float) -> float:
    """Explicit bound 4a*ln(2a) + 2b on any y with y < a*ln(y) + b."""
    if a < 1 or b <= 0:
        raise ValueError("need a >= 1 and b > 0")
    return 4.0 * a * math.log(2.0 * a) + 2.0 * b


def generalization_bound(
    H: float, pdim: int, N: int, delta: float, constant: float = 1.0
) -> float:
    """Uniform-convergence bound constant * H * sqrt((pdim + ln(1/delta)) / N).

    The leading constant is exposed explicitly (default 1); absolute
    calibration is not claimed.
    """
    if N < 1 or H <= 0 or not 0 < delta < 1:
        raise ValueError("need N >= 1, H > 0, 0 < delta < 1")
    return constant * H * math.sqrt((pdim + math.log(1.0 / delta)) / N)


def spa_estimation_bound(N: int, delta: float) -> float:
    """Estimation-error bound for anonymous second-price auctions with reserve."""
    if N < 1 or not 0 < delta < 1:
        raise ValueError("need N >= 1 and 0 < delta < 1")
    return math.sqrt(4.0 / N * math.log(math.e * N)) + math.sqrt(
        math.log(1.0 / delta) / (2.0 * N)
    )


def finite_class_bound(n_mechanisms: int, N: int, delta: float) -> float:
    """Hoeffding + union bound sqrt(ln(2n/delta) / (2N)) over n mechanisms."""
    if n_mechanisms < 1 or N < 1 or not 0 < delta < 1:
        raise ValueError("need n >= 1, N >= 1, 0 < delta < 1")
    return math.sqrt(math.log(2.0 * n_mechanisms / delta) / (2.0 * N))


def _exp_sum(terms, x):
    total = 0.0
    for a, b in terms:
        e = -x * math.log(b)
        if e > 700.0:  # avoid overflow; the term dwarfs everything anyway
            e = 700.0
        total += a * math.exp(e)
    return total


def exp_sum_roots(
    terms: Sequence[tuple[float, float]],
    lo: float,
    hi: float,
    tol: float,
    with_cap_flag: bool = False,
):
    """Roots of h(x) = sum_i a_i / b_i^x inside [lo, hi], each within ``tol``.

    Sign scan on a grid of resolution (hi-lo)/(64*t) followed by bisection.
    The count is capped at t = len(terms) (Rolle-type bound for exponential
    sums); tangential roots invisible to the scan can be missed.
    """
    t = len(terms)
    if lo >= hi or tol <= 0:
        raise ValueError("need lo < hi and tol > 0")
    for _, b in terms:
        if b <= 0:
            raise ValueError("all bases must be positive")
    if t == 0 or all(a == 0 for a, _ in terms):
        return ([], False) if with_cap_flag else []

    steps = 64 * t
    h = (hi - lo) / steps
    xs = [lo + i * h for i in range(steps)] + [hi]
    vals = [_exp_sum(terms, x) for x in xs]

    roots = []
    for i in range(steps):
        x0, x1 = xs[i], xs[i + 1]
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            roots.append(x0)
            continue
        if v0 * v1 < 0.0:
            a_, b_ = x0, x1
            va = v0
            while b_ - a_ > tol:
                m = 0.5 * (a_ + b_)
                vm = _exp_sum(terms, m)
                if vm == 0.0:
                    a_ = b_ = m
                    break
                if va * vm < 0.0:
                    b_ = m
                else:
                    a_, va = m, vm
            roots.append(0.5 * (a_ + b_))
    if vals[-1] == 0.0:
        roots.append(hi)

    deduped = []
    for r in roots:
        if not deduped or r - deduped[-1] > tol:
            deduped.append(r)
    cap_hit = len(deduped) > t
    if cap_hit:
        deduped = deduped[:t]
    return (deduped, cap_hit) if with_cap_flag else deduped


@dataclass
class ShatteringCertificate:
    """Record of which above/below-witness sign patterns a parameter set realizes."""

    n_instances: int
    witnesses: list[float]
    candidate_params: list
    achieved_patterns: set[tuple[int, ...]] = field(default_factory=set)

    @property
    def shattered(self) -> bool:
        return len(self.achieved_patterns) == 2**self.n_instances

    def to_dict(self) -> dict:
        return {
            "n": self.n_instances,
            "witnesses": list(self.witnesses),
            "shattered": self.shattered,
            "patterns_found": len(self.achieved_patterns),
        }


def verify_shattering(
    dual_fns: Sequence[Callable],
    witnesses: Sequence[float],
    candidate_params: Sequence,
) -> ShatteringCertificate:
    """Evaluate each dual at each candidate and collect the sign patterns.

    ``dual_fns[i]`` maps a parameter point to a real; pattern bit i is
    ``1{dual_fns[i](p) >= witnesses[i]}``.  N is capped at 24 so the pattern
    set stays enumerable.
    """
    N = len(dual_fns)
    if len(witnesses) != N:
        raise ValueError("need one witness per dual function")
    if N > 24:
        raise ValueError("instance set too large to verify")
    if not candidate_params:
        raise ValueError("need at least one candidate parameter point")

    cert = ShatteringCertificate(N, [float(z) for z in witnesses], list(candidate_params))
    for p in candidate_params:
        cert.achieved_patterns.add(
            tuple(1 if fn(p) >= z else 0 for fn, z in zip(dual_fns, witnesses))
        )
    return cert
