"""Sample-complexity calculators and a generic shattering verifier.

Everything here is a small, directly executable formula: pseudo-dimension
upper bounds solved from their defining counting inequalities, uniform
convergence bounds, certified root isolation for exponential sums, and an
exhaustive check that a family of per-instance evaluators realizes all sign
patterns against a witness vector.

The root isolation rests on the fact behind the TAD bound: a sum of t terms
a_i / b_i^x with distinct bases has at most t - 1 real roots, and at most as
many as its coefficients change sign.  ``exp_sum_roots`` recurses on
derivatives to bracket every root, so it has no grid and no count cap.
"""

from __future__ import annotations

import itertools
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


def _scaled_sum(terms, x):
    """sum_i a_i e^(-x d_i) over ``(a_i, d_i)``, the d_i shifted so that d_0 = 0.

    This is the exponential sum divided by its first term's power: the same
    sign everywhere, and every power at most 1 for x >= 0.  ``ValueError``
    when a power overflows.
    """
    try:
        return math.fsum(a * math.exp(-x * d) for a, d in terms)
    except OverflowError:
        raise ValueError(f"the exponential sum overflows the float range at x={x!r}") from None


def _bisect(terms, a: float, b: float, va: float, tol: float) -> float:
    """Midpoint of a bracket at most ``tol`` wide around the sign change in [a, b]."""
    while b - a > tol:
        m = 0.5 * (a + b)
        if not a < m < b:  # a and b are adjacent doubles
            break
        vm = _scaled_sum(terms, m)
        if vm == 0.0:
            return m
        if va * vm < 0.0:
            b = m
        else:
            a, va = m, vm
    return 0.5 * (a + b)


def _isolate(terms, lo: float, hi: float, tol: float) -> list[float]:
    """Roots in [lo, hi] of sum_i a_i e^(-x λ_i) for ``(a_i, λ_i)``, the λ_i
    increasing (the logs of sorted bases) and every a_i nonzero.

    The roots are at most the coefficient sign changes (Laguerre).  With more
    than one, the sum divided by its first power has a derivative of the same
    kind with one term fewer; its roots split [lo, hi] into brackets where the
    sum is monotone, so each bracket holds at most one root (Rolle).
    """
    signs = [a > 0.0 for a, _ in terms]
    changes = sum(s != t for s, t in zip(signs, signs[1:]))
    if changes == 0:
        return []
    lam0 = terms[0][1]
    shifted = [(a, lam - lam0) for a, lam in terms]
    edges = [lo, hi]
    if changes > 1:
        # its derivative, times the positive e^(-x λ_0): coefficients -a_i d_i
        slopes = [(-a * d, lam) for (a, d), (_, lam) in zip(shifted[1:], terms[1:]) if a * d]
        edges[1:1] = [c for c in _isolate(slopes, lo, hi, tol) if lo < c < hi]
    vals = [_scaled_sum(shifted, x) for x in edges]
    roots = []
    for u, v, gu, gv in zip(edges, edges[1:], vals, vals[1:]):
        if gu == 0.0:
            roots.append(u)
        elif gu * gv < 0.0:
            roots.append(_bisect(shifted, u, v, gu, tol))
    if vals[-1] == 0.0:
        roots.append(hi)
    return roots


def exp_sum_roots(
    terms: Sequence[tuple[float, float]], lo: float, hi: float, tol: float
) -> list[float]:
    """Every root of h(x) = sum_i a_i / b_i^x in [lo, hi], each within ``tol``.

    Certified: the coefficients are summed per base (``math.fsum``), zero sums
    dropped and the rest sorted by base; ``_isolate`` then finds the roots
    from Laguerre's rule of signs and Rolle's theorem (Polya & Szego,
    *Problems and Theorems in Analysis II*, Part V), so t distinct bases give
    at most t - 1 roots and none is lost to a grid.  A root is a bracket
    midpoint, or a point where h evaluates to exactly 0.  ``ValueError`` when
    a power of a base ratio overflows, which cannot happen for lo >= 0.
    """
    if lo >= hi or tol <= 0:
        raise ValueError("need lo < hi and tol > 0")
    by_base: dict[float, list[float]] = {}
    for a, b in terms:
        if b <= 0:
            raise ValueError("all bases must be positive")
        by_base.setdefault(b, []).append(a)
    summed = [(math.fsum(by_base[b]), math.log(b)) for b in sorted(by_base)]
    summed = [(a, lam) for a, lam in summed if a]
    return _isolate(summed, float(lo), float(hi), tol) if summed else []


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

    def first_missing(self) -> tuple[int, ...] | None:
        """Smallest sign pattern (as a bit tuple) no candidate realizes, or None.

        At most ``len(achieved_patterns) + 1`` patterns are looked at.
        """
        for pattern in itertools.product((0, 1), repeat=self.n_instances):
            if pattern not in self.achieved_patterns:
                return pattern
        return None

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
