"""Training-set machinery: ERM over piecewise duals and estimation-error experiments.

Expectations are always computed by exact support enumeration (the
distributions here are finite), so the only randomness is the i.i.d. draw of
training samples.  Each trial owns an RNG stream derived from the master
seed XOR the trial index, split further by the training-set size, so any
trial is reproducible in isolation.  Trials run one after another; a
``threads`` key in a JSON config is tolerated and ignored.  A config or
``params`` value of the wrong shape raises ``ValueError`` naming its field.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import finite_class_bound, spa_estimation_bound
from .mechanisms import anonymous_reserve_duals, build_nam_distribution
from .piecewise import PiecewiseBatch, PiecewiseFunction1D

# learn does not call these; bench/tracer.py wraps them where learn binds them.
from .mechanisms import anonymous_reserve_dual  # noqa: F401
from .piecewise import argmax, average  # noqa: F401


def _parse(convert, value, name: str, what: str):
    """``convert(value)``; ``ValueError`` naming the field ``name`` when the shape is wrong."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be {what}, got {value!r:.40}") from None


@dataclass
class ExperimentConfig:
    family: str
    n_schedule: list[int]
    trials: int = 100
    seed: int = 0
    delta: float = 0.01
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_schedule:
            raise ValueError("n_schedule must list at least one training size")
        if any(n < 1 for n in self.n_schedule):
            raise ValueError("all training sizes must be >= 1")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        d = json.loads(text)  # a "threads" key is ignored: trials run serially
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r:.40}")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"params must be a JSON object, got {params!r:.40}")
        return cls(
            family=d["family"],
            n_schedule=_parse(lambda v: [int(n) for n in v], d["n_schedule"], "n_schedule",
                              "a list of integers"),
            trials=_parse(int, d.get("trials", 100), "trials", "an integer"),
            seed=_parse(int, d.get("seed", 0), "seed", "an integer"),
            delta=_parse(float, d.get("delta", 0.01), "delta", "a number"),
            params=params,
        )


@dataclass
class ExperimentRow:
    n: int
    mean_error: float
    std_error: float
    bound: float
    max_error: float | None = None

    def __post_init__(self):
        if self.mean_error < 0:
            raise ValueError("estimation error is nonnegative by definition")


def erm(duals: Sequence[PiecewiseFunction1D] | PiecewiseBatch):
    """Parameter maximizing the average of per-instance duals (leftmost tie-break).

    ``duals`` is a sequence of functions or one ``PiecewiseBatch``.  The
    average stays in arrays (``PiecewiseBatch.mean``); no function object is
    built for it.  Near-ties of the average are scored again on the duals
    themselves (``PiecewiseBatch.argmax``), so an exact tie goes to the
    leftmost maximizer even where the running sums round it apart.
    """
    if not isinstance(duals, PiecewiseBatch):
        if not duals:
            raise ValueError("need at least one dual")
        duals = PiecewiseBatch.of(duals)
    res = duals.mean().argmax(duals)
    return res.param, res.value


def _trial_rng(seed: int, trial: int, n: int) -> np.random.Generator:
    # counter-based split: master seed XOR trial index, then the size
    return np.random.default_rng([seed ^ trial, n])


def synthetic_spa_values(n_low: int = 5334, n_high: int = 5278) -> np.ndarray:
    """Deterministic two-cluster value set: n_low in [1/4, 1/2], n_high in [3/4, 1]."""
    return np.concatenate(
        [np.linspace(0.25, 0.5, n_low), np.linspace(0.75, 1.0, n_high)]
    )


def spa_expected_revenue_anonymous(values: np.ndarray, reserve: float) -> float:
    """Exact expected revenue of one anonymous reserve over single-bidder profiles."""
    return float(reserve * (values >= reserve).sum() / len(values))


def _number_pairs(value) -> list[tuple]:
    pairs = [tuple(pr) for pr in value]
    if any(len(pr) != 2 or not all(isinstance(x, numbers.Real) and math.isfinite(x) for x in pr)
           for pr in pairs):
        raise ValueError
    return pairs


def _spa_values(p: dict) -> np.ndarray:
    """Bidder values of the SPA families: ``params.values``, else the synthetic set."""
    if "values" not in p:
        n_low = _parse(int, p.get("n_low", 5334), "params.n_low", "an integer")
        n_high = _parse(int, p.get("n_high", 5278), "params.n_high", "an integer")
        if n_low < 0 or n_high < 0 or n_low + n_high < 1:
            raise ValueError("params.n_low and params.n_high must be >= 0 with a sum >= 1")
        return synthetic_spa_values(n_low, n_high)
    values = _parse(lambda v: np.asarray(v, dtype=float), p["values"], "params.values",
                    "a nonempty list of numbers")
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("params.values must be a nonempty list of numbers")
    if not np.isfinite(values).all():
        raise ValueError("params.values must all be finite")
    return values


class _SpaOverfitFamily:
    """Non-anonymous reserves fit to the sample, 3/4 elsewhere."""

    adversarial = True

    def __init__(self, cfg: ExperimentConfig):
        p = cfg.params
        self.values = _spa_values(p)
        self.fallback = _parse(float, p.get("fallback", 0.75), "params.fallback", "a number")
        if not math.isfinite(self.fallback):
            raise ValueError("params.fallback must be finite")
        self.delta = cfg.delta
        self.seed = cfg.seed

    def bound(self, n: int) -> float:
        return spa_estimation_bound(n, self.delta)

    def trial(self, n: int, t: int) -> float:
        rng = _trial_rng(self.seed, t, n)
        w = self.values
        idx = rng.integers(0, len(w), size=n)
        seen = np.zeros(len(w), dtype=bool)
        seen[idx] = True
        # seen agents pay their own value; unseen agents face the fallback
        avg = float(w[idx].mean())
        expected = (
            float(w[seen].sum()) + self.fallback * float((~seen & (w >= self.fallback)).sum())
        ) / len(w)
        return abs(avg - expected)


class _SpaErmFamily:
    """ERM over the anonymous reserve, via averaged piecewise duals."""

    adversarial = False

    def __init__(self, cfg: ExperimentConfig):
        self.values = _spa_values(cfg.params)
        self.delta = cfg.delta
        self.seed = cfg.seed

    def bound(self, n: int) -> float:
        return spa_estimation_bound(n, self.delta)

    def trial(self, n: int, t: int) -> float:
        rng = _trial_rng(self.seed, t, n)
        w = self.values
        sample = w[rng.integers(0, len(w), size=n)]
        # each sampled value bids against one bid of 0; the larger is the top bid
        nonneg = sample >= 0.0
        duals = anonymous_reserve_duals(np.where(nonneg, sample, 0.0), np.where(nonneg, 0.0, sample))
        rho_hat, train_value = erm(duals)
        return abs(train_value - spa_expected_revenue_anonymous(w, rho_hat))


class _NamOverfitFamily:
    """The bad NAM weight vector driven by which profiles were sampled."""

    adversarial = True

    def __init__(self, cfg: ExperimentConfig):
        p = cfg.params
        self.n_profiles = _parse(int, p.get("n_profiles", 500), "params.n_profiles", "an integer")
        self.delta = cfg.delta
        self.seed = cfg.seed
        pairs = p.get("pairs")
        if pairs is None:
            pairs = self._synthetic_pairs(
                _parse(int, p.get("n_group1", 870), "params.n_group1", "an integer"),
                _parse(int, p.get("n_group2", 1677), "params.n_group2", "an integer"),
            )
        a, b = build_nam_distribution(
            _parse(_number_pairs, pairs, "params.pairs", "a list of [a, b] finite number pairs"),
            n_profiles=self.n_profiles,
            rng=np.random.default_rng([cfg.seed, 101]),
        )
        self.n_agents = 2 * self.n_profiles
        # welfare a[j] + b[j] at the alternative j that the weights pick (ties to 0):
        # a seen profile's weights follow its group-1 agent, an unseen one's its group-2 agent
        both = a + b
        self.w_seen = np.where(a[:, 0] >= a[:, 1], both[:, 0], both[:, 1])
        self.w_unseen = np.where(b[:, 0] >= b[:, 1], both[:, 0], both[:, 1])

    @staticmethod
    def _synthetic_pairs(n1: int, n2: int) -> list[tuple[float, float]]:
        g1 = zip(np.linspace(0.35, 0.5, n1), np.linspace(-0.5, 0.0, n1))
        g2 = zip(np.linspace(-0.5, 0.0, n2), np.linspace(0.15, 0.15 / n2, n2))
        return [(float(a), float(b)) for a, b in g1] + [
            (float(a), float(b)) for a, b in g2
        ]

    def bound(self, n: int) -> float:
        return finite_class_bound(self.n_agents, n, self.delta)

    def trial(self, n: int, t: int) -> float:
        rng = _trial_rng(self.seed, t, n)
        idx = rng.integers(0, self.n_profiles, size=n)
        seen = np.zeros(self.n_profiles, dtype=bool)
        seen[idx] = True
        avg = float(self.w_seen[idx].mean())
        expected = float(np.where(seen, self.w_seen, self.w_unseen).mean())
        return abs(avg - expected)


_FAMILIES = {
    "spa_overfit": _SpaOverfitFamily,
    "spa_erm": _SpaErmFamily,
    "nam_overfit": _NamOverfitFamily,
}


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Estimation-error sweep over the training-size schedule.

    Per size N, ``cfg.trials`` independent draws are taken with per-trial
    derived seeds, the family's parameter construction is applied, and the
    exact estimation error is recorded.  Adversarial families also report the
    max over trials.  Trials run serially.
    """
    if not isinstance(cfg.family, str) or cfg.family not in _FAMILIES:
        raise ValueError(f"unknown family {cfg.family!r}; known: {tuple(_FAMILIES)}")
    fam = _FAMILIES[cfg.family](cfg)

    rows = []
    for n in cfg.n_schedule:
        errors = [fam.trial(n, t) for t in range(cfg.trials)]
        mean = math.fsum(errors) / cfg.trials
        std = math.sqrt(math.fsum((e - mean) ** 2 for e in errors) / cfg.trials)
        rows.append(
            ExperimentRow(
                n=n,
                mean_error=mean,
                std_error=std,
                bound=fam.bound(n),
                max_error=max(errors) if fam.adversarial else None,
            )
        )
    return rows


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    """CSV with header N,mean_error,std_error,bound (plus max_error when present)."""
    with_max = any(r.max_error is not None for r in rows)
    header = "N,mean_error,std_error"
    if with_max:
        header += ",max_error"
    header += ",bound"
    lines = [header]
    for r in rows:
        cells = [str(r.n), _fmt(r.mean_error), _fmt(r.std_error)]
        if with_max:
            cells.append(_fmt(r.max_error if r.max_error is not None else 0.0))
        cells.append(_fmt(r.bound))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(x, ".12g")
