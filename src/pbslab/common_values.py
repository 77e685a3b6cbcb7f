"""Common-value auction with a fast bidder who can revise after the price moves.

The object's value follows a lognormal martingale: seen from time 0 it is
worth ``v0``, and by the time the fast bidder may act (``delta`` seconds
later, which happens with probability ``p``) it is distributed lognormally
with log-sd ``vol * sqrt(delta)`` and mean exactly ``v0``.

The fast bidder outbids a standing slow bid ``b`` iff the realized value
exceeds ``b``, leaving slow bidders exposed to adverse selection. With
``p = 1`` the auction unravels (slow bidders can only lose money by bidding
above zero). For ``p < 1`` competition drives slow bidders to the largest
zero of the expected-profit condition

    (1 - p) * (v0 - b) + p * P(V < b) * (E[V | V < b] - b) = 0,

whose second term is the negative expected shortfall ``-p * E[(b - V)+]``.
:func:`solve_candlestick` locates that largest root by a downward grid scan
followed by bisection and a secant polish.
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
    "RootNotFoundError",
    "law_of_v_delta",
    "candlestick_residual",
    "solve_candlestick",
    "slow_win_probability",
    "unraveling_slow_profit",
    "fast_expected_profit",
]

_SCAN_POINTS = 1024


class RootNotFoundError(RuntimeError):
    """No sign change found on the scan grid; carries the residual trace."""

    def __init__(self, message: str, trace: np.ndarray):
        super().__init__(message)
        self.trace = trace


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
    bracket: tuple[float, float] | None = None
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


def candlestick_residual(config: CandlestickConfig, b: float) -> float:
    """Expected slow-bidder profit from winning at bid b (the root condition).

    The adverse-selection term P(V<b)*(E[V|V<b] - b) is evaluated in its
    shortfall form -E[(b-V)+], which stays finite where the truncation mass
    underflows and the truncated-mean form turns 0/0.
    """
    process, p = config.process, config.p
    v0 = process.v0
    if not 0.0 <= b <= v0 * (1.0 + 1e-12):
        raise ValueError(f"bid must lie in [0, v0], got {b}")
    if process.is_degenerate:
        return (1.0 - p) * (v0 - b)
    return float(_residual_vec(config, b))


def solve_candlestick(config: CandlestickConfig, tol: float = 1e-12) -> CandlestickSolution:
    """Find the largest break-even slow bid in [0, v0].

    Scans downward from v0 on a dense grid for the first sign change of the
    profit condition (negative above the root, positive below), brackets it,
    bisects to width ``tol`` and polishes with secant steps. The endpoints
    are exact: p=0 gives v0, p=1 gives 0, and a degenerate (motionless)
    process gives v0 at any p since there is no adverse selection.
    """
    if not tol >= 0.0:
        raise ValueError(f"need tol >= 0, got {tol}")
    process, p = config.process, config.p
    v0 = process.v0
    if process.is_degenerate or p == 0.0:
        return _build_solution(config, v0, residual=0.0, bracket=None, iterations=0)
    if p == 1.0:
        return _build_solution(config, 0.0, residual=0.0, bracket=None, iterations=0)

    grid = np.linspace(v0, 0.0, _SCAN_POINTS)
    res = _residual_vec(config, grid)
    positive = res > 0.0
    if not positive.any():
        raise RootNotFoundError(
            "no sign change on the scan grid (residual never turns positive)",
            trace=res)
    k = int(np.argmax(positive))  # first positive point scanning downward
    if k == 0:
        raise RootNotFoundError(
            "profit condition already positive at b=v0; no interior root",
            trace=res)

    lo_b, hi_b = float(grid[k]), float(grid[k - 1])  # res(lo_b) > 0 >= res(hi_b)
    bracket = (lo_b, hi_b)
    f_lo, f_hi = float(res[k]), float(res[k - 1])
    iterations = 0
    while hi_b - lo_b > tol:
        mid = 0.5 * (lo_b + hi_b)
        f_mid = float(_residual_vec(config, mid))
        if f_mid > 0.0:
            lo_b, f_lo = mid, f_mid
        else:
            hi_b, f_hi = mid, f_mid
        iterations += 1
        if iterations > 200:
            break

    # secant polish inside the final bracket
    x0, f0, x1, f1 = lo_b, f_lo, hi_b, f_hi
    root = 0.5 * (lo_b + hi_b)
    for _ in range(4):
        if f1 == f0:
            break
        step = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not lo_b <= step <= hi_b:
            break
        x0, f0 = x1, f1
        x1, f1 = step, float(_residual_vec(config, step))
        root = step
        iterations += 1
        if f1 == 0.0:
            break

    residual = float(_residual_vec(config, root))
    return _build_solution(config, root, residual=residual, bracket=bracket,
                           iterations=iterations)


def _build_solution(config, b0s, residual, bracket, iterations) -> CandlestickSolution:
    slow = slow_win_probability(config, b0s)
    return CandlestickSolution(
        config=config, b0s=b0s, slow_win_prob=slow, fast_win_prob=1.0 - slow,
        fast_expected_profit=fast_expected_profit(config, b0s),
        residual=residual, bracket=bracket, iterations=iterations)


def slow_win_probability(config: CandlestickConfig, b0s: float) -> float:
    """Probability the winning slow bidder keeps the item: the fast bidder
    either gets no revision chance or sees a value below the slow bid."""
    if config.process.is_degenerate:
        return 1.0  # revision sees exactly v0 = b0s and strictly-greater fails
    return config.p * float(law_of_v_delta(config.process).cdf(b0s)) + (1.0 - config.p)


def unraveling_slow_profit(process: PriceProcess, b: float) -> float:
    """Expected profit of a slow bid b when the fast bidder always revises.

    Equals P(V <= b) * (E[V | V <= b] - b) = -E[(b - V)+]; strictly negative
    for every positive bid, which is what forces slow bids to zero.
    """
    if not b > 0.0:
        raise ValueError(f"bid must be positive, got {b}")
    return -lognormal_put_value(process.v0, b, process.log_sd)


def fast_expected_profit(config: CandlestickConfig, b0s: float) -> float:
    """Fast bidder's expected profit: revise with probability p, take the item
    at price b0s whenever the revised value exceeds it."""
    process, p = config.process, config.p
    if process.is_degenerate:
        return 0.0
    # E[(V - b)+] = E[V] - b + E[(b - V)+] for the mean-v0 law
    call = lognormal_put_value(process.v0, b0s, process.log_sd) + process.v0 - b0s
    return p * call
