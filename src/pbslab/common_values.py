"""Common-value auction with a fast bidder who can revise after the price moves.

The object's value follows a lognormal martingale: seen from time 0 it is
worth ``v0``, and by the time the fast bidder may act (``delta`` seconds
later, which happens with probability ``p``) it is distributed lognormally
with log-sd ``vol * sqrt(delta)`` and mean exactly ``v0``.

The fast bidder outbids a standing slow bid ``b`` iff the realized value
exceeds ``b``, leaving slow bidders exposed to adverse selection. With
``p = 1`` the auction unravels (slow bidders can only lose money by bidding
above zero). For ``p < 1`` competition drives slow bidders to the zero of
the expected-profit condition

    (1 - p) * (v0 - b) + p * P(V < b) * (E[V | V < b] - b) = 0,

whose second term is the negative expected shortfall ``-p * E[(b - V)+]``.
The condition falls strictly in ``b``, so that zero is unique;
:func:`solve_candlestick` finds it by bisection to adjacent doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Lognormal, lognormal_put_value

__all__ = [
    "PriceProcess",
    "CandlestickConfig",
    "CandlestickSolution",
    "law_of_v_delta",
    "solve_candlestick",
    "slow_win_probability",
    "fast_expected_profit",
]

@dataclass(frozen=True)
class PriceProcess:
    """Lognormal martingale for the value at the fast bidder's move time.

    ``vol`` is a volatility rate per sqrt-second and ``delta`` the fast
    bidder's lead time in seconds; the derived log-sd is ``vol*sqrt(delta)``
    and the log-mean is pinned so the mean stays exactly ``v0``.
    """

    v0: float
    vol: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.v0 < math.inf:
            raise ValueError(f"v0 must be positive and finite, got {self.v0}")
        if not (0.0 <= self.vol < math.inf and 0.0 <= self.delta < math.inf):
            raise ValueError("vol and delta must be nonnegative and finite")
        # log_mean squares the log-sd, and a float ** 2 raises on overflow
        if self.log_sd * self.log_sd == math.inf:
            raise ValueError(f"log-sd vol*sqrt(delta) = {self.log_sd:g} is too "
                             "large: its square overflows")

    @property
    def log_sd(self) -> float:
        return self.vol * math.sqrt(self.delta)

    @property
    def log_mean(self) -> float:
        return math.log(self.v0) - 0.5 * self.log_sd ** 2

    @property
    def is_degenerate(self) -> bool:
        """True when the value cannot move (vol or delta is zero)."""
        return self.log_sd == 0.0


def law_of_v_delta(process: PriceProcess) -> Lognormal:
    """Distribution of the value at the revision time; mean is exactly v0."""
    if process.is_degenerate:
        raise ValueError("degenerate process: the value is a point mass at v0")
    return Lognormal(process.log_mean, process.log_sd)


@dataclass(frozen=True)
class CandlestickConfig:
    process: PriceProcess
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"revision probability must be in [0, 1], got {self.p}")

    def describe(self) -> dict:
        return {"v0": self.process.v0, "vol": self.process.vol,
                "delta": self.process.delta, "p": self.p}


@dataclass(frozen=True)
class CandlestickSolution:
    config: CandlestickConfig
    b0s: float
    slow_win_prob: float
    fast_win_prob: float
    fast_expected_profit: float
    residual: float
    iterations: int = 0

    def __post_init__(self):
        v0 = self.config.process.v0
        if not -1e-12 <= self.b0s <= v0 * (1.0 + 1e-12):
            raise ValueError(f"slow bid {self.b0s} outside [0, {v0}]")

    def to_dict(self) -> dict:
        return {
            "v0": self.config.process.v0,
            "vol": self.config.process.vol,
            "delta": self.config.process.delta,
            "p": self.config.p,
            "b0s": self.b0s,
            "slow_win_prob": self.slow_win_prob,
            "fast_profit": self.fast_expected_profit,
            "residual": self.residual,
        }


def _residual_vec(config: CandlestickConfig, b) -> np.ndarray:
    process, p = config.process, config.p
    return (1.0 - p) * (process.v0 - b) - p * lognormal_put_value(
        process.v0, b, process.log_sd)


def solve_candlestick(config: CandlestickConfig) -> CandlestickSolution:
    """Find the break-even slow bid in [0, v0].

    For p < 1 the condition falls strictly in b (slope -(1-p) - p P(V<b)), so
    its root is unique. Bisection keeps residual(lo) > 0 >= residual(hi) from
    lo, hi = 0, v0 (in floats too: the put is exactly 0 at b=0, and
    v0 (Phi(s/2) - Phi(-s/2)) >= 0 at b=v0) until the ends are adjacent
    doubles, and returns hi. p=1 gives 0; p=0 gives v0, and so does a
    motionless process at any p, since there is no adverse selection.
    """
    process, p = config.process, config.p
    if process.is_degenerate or p == 0.0:
        return _build_solution(config, process.v0, residual=0.0, iterations=0)
    if p == 1.0:
        return _build_solution(config, 0.0, residual=0.0, iterations=0)

    lo, hi = 0.0, process.v0
    iterations = 0
    # lo + hi could overflow; the midpoint hits an end once lo, hi are adjacent
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if _residual_vec(config, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return _build_solution(config, hi, residual=float(_residual_vec(config, hi)),
                           iterations=iterations)


def _build_solution(config, b0s, residual, iterations) -> CandlestickSolution:
    slow = slow_win_probability(config, b0s)
    return CandlestickSolution(
        config=config, b0s=b0s, slow_win_prob=slow, fast_win_prob=1.0 - slow,
        fast_expected_profit=fast_expected_profit(config, b0s),
        residual=residual, iterations=iterations)


def slow_win_probability(config: CandlestickConfig, b0s: float) -> float:
    """Probability the winning slow bidder keeps the item: the fast bidder
    either gets no revision chance or sees a value below the slow bid."""
    if config.process.is_degenerate:
        return 1.0  # revision sees exactly v0 = b0s and strictly-greater fails
    return config.p * float(law_of_v_delta(config.process).cdf(b0s)) + (1.0 - config.p)


def fast_expected_profit(config: CandlestickConfig, b0s: float) -> float:
    """Fast bidder's expected profit: revise with probability p, take the item
    at price b0s whenever the revised value exceeds it."""
    process, p = config.process, config.p
    if process.is_degenerate:
        return 0.0
    # E[(V - b)+] = E[V] - b + E[(b - V)+] for the mean-v0 law
    call = lognormal_put_value(process.v0, b0s, process.log_sd) + process.v0 - b0s
    return p * call
