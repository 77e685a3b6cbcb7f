"""Equilibrium bidding in the hybrid block-builder auction with private values.

Setting: ``n_integrated`` builders bid truthfully (for them the auction is
second-price), while ``n_neutral`` builders are in a pay-your-bid regime.
From a neutral builder's perspective the truthful integrated bids act as a
secret random reserve with CDF ``F_integrated(b) ** n_integrated``, so the
symmetric equilibrium bid schedule solves the shading identity

    bid(v) = v - (integral of G(t) dt from support bottom to v) / G(v),
    G(t)   = F_neutral(t)**(n_neutral-1) * F_integrated(bid(t))**n_integrated,

which equates pay-your-bid surplus ``(v - bid(v)) * G(v)`` with the surplus
pinned down by the win-probability envelope ``integral of G``.

The schedule is solved by :func:`solve_fixed_point`, an Anderson-accelerated
fixed point of the damped shading identity on a quantile-spaced value grid,
safeguarded by the isotonic projection and the anchor clamp. The identity is
0/0 at the bottom of the support; the solver anchors that region with the
local power-law asymptote ``bid ~ lo + c * (v - lo)`` where ``c = k / (k + 1)``
and ``k`` is the combined lower-tail exponent of G.

:func:`verify_best_response` certifies a solved schedule by the equilibrium
property itself: no neutral builder gains by deviating from it. It checks
values on the solver's grid against a fine grid of bids, and gates the
largest gain below the top grid cell (see ``_GAIN_BOUND``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import ValueDistribution, lower_tail_exponent

__all__ = [
    "HybridAuctionConfig",
    "BidFunction",
    "EquilibriumSolution",
    "SolverError",
    "BestResponseReport",
    "solve_fixed_point",
    "verify_best_response",
]

# division guard for the vanishing win probability at the support bottom
_G_FLOOR = 1e-300

# quantile cap for laws with unbounded upper support
_TOP_Q = 1.0 - 1e-6

# default tolerance, mixing weight per sweep and sweep cap of the fixed point
_TOL = 1e-6
_DAMPING = 0.5
_MAX_SWEEPS = 10_000

# differences of map images the fixed point extrapolates from
_ANDERSON_DEPTH = 3

# sweeps without a new best residual before the fixed point drops its history
_STALL_SWEEPS = 4

# grid values and bids the best-response certificate scores: at most 2 MB of
# payoffs at any grid size
_CERT_VALUES = 64
_CERT_BIDS = 4000

# largest deviation gain, as a share of the value range, that certifies a
# schedule of n grid values: _GAIN_BOUND, or _GAIN_CELLS / n**2 where that is
# larger, since a coarse grid's own error shows as gains falling like 1/n**2.
# Correct schedules of the tested configs stay below 2.7 / n**2 at grids 64
# to 4096 (1.3e-6 at 512); the same schedules with every bid 2% lower exceed
# 5e-5 from grid 128 up, so they fail the bound from about grid 450 up
_GAIN_BOUND = 1e-5
_GAIN_CELLS = 10.0

# the bid schedule's cell lookup has _BUCKETS_PER_CELL buckets per grid cell,
# and a value advances at most _MAX_ADVANCES cells from its bucket's start
# before a binary search
_BUCKETS_PER_CELL = 4
_MAX_ADVANCES = 4


class SolverError(RuntimeError):
    """Solver failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class HybridAuctionConfig:
    """Hybrid auction primitives.

    ``n_integrated`` may be 0, which drops the reserve entirely and reduces
    the model to a standard symmetric first-price auction among the neutral
    builders.
    """

    n_integrated: int
    n_neutral: int
    integrated_values: ValueDistribution
    neutral_values: ValueDistribution

    def __post_init__(self):
        if self.n_integrated < 0 or self.n_neutral < 1:
            raise ValueError("need n_integrated >= 0 and n_neutral >= 1")
        if self.n_integrated == 0 and self.n_neutral == 1:
            raise ValueError("degenerate auction: a single neutral bidder with "
                             "no integrated competition has no interior bid")
        for d in (self.integrated_values, self.neutral_values):
            if d.support[0] < 0.0:
                raise ValueError("value supports must be nonnegative")

    def reserve_cdf(self, b):
        """CDF of the effective reserve: the highest truthful integrated bid."""
        if self.n_integrated == 0:
            return np.ones_like(np.asarray(b, dtype=float))
        return self.integrated_values.cdf(b) ** self.n_integrated

    def rival_cdf(self, v):
        """Probability that all other neutral builders have value below v."""
        if self.n_neutral == 1:
            return np.ones_like(np.asarray(v, dtype=float))
        return self.neutral_values.cdf(v) ** (self.n_neutral - 1)

    def describe(self) -> dict:
        return {
            "n_integrated": self.n_integrated,
            "n_neutral": self.n_neutral,
            "integrated_values": _describe_dist(self.integrated_values),
            "neutral_values": _describe_dist(self.neutral_values),
        }


def _describe_dist(d: ValueDistribution) -> dict:
    out = {"kind": d.kind}
    for name in ("lo", "hi", "alpha", "beta", "log_mean", "log_sd"):
        if hasattr(d, name):
            out[name] = getattr(d, name)
    if d.kind == "empirical-grid":
        out["n_points"] = int(d.points.size)
        out["lo"], out["hi"] = d.support
    return out


class _CellLookup:
    """The cell of ``values`` each value lies in, mostly without a binary
    search: uniform buckets over the value range (``_BUCKETS_PER_CELL`` per
    grid cell) give each value a lower-bound cell, and a forward step moves
    it to the last grid value at or below it, the cell ``np.interp`` picks.

    Bucket ``k`` holds the values that ``(x - lo) * scale`` floors to ``k``.
    That map does not decrease, so a grid value whose bucket is below ``k``
    lies below every value of bucket ``k``: ``start[k]``, the last such grid
    value, is a lower bound. The step advances at most ``_MAX_ADVANCES``
    times, so it ends; the few values a crowded bucket leaves further
    behind are placed by binary search.
    """

    def __init__(self, values: np.ndarray, scale: float):
        self.values = values
        self.lo, self.hi, self.scale = float(values[0]), float(values[-1]), scale
        knot_bucket = self.bucket(values)
        buckets = np.arange(knot_bucket[-1] + 1)
        self.start = np.maximum(np.searchsorted(knot_bucket, buckets) - 1, 0)
        self.next_value = np.append(values[1:], np.inf)  # values[j + 1]

    def bucket(self, x: np.ndarray) -> np.ndarray:
        return ((x - self.lo) * self.scale).astype(np.intp)

    def cells(self, x: np.ndarray) -> np.ndarray:
        """Index of the last grid value at or below each of ``x``, which
        must lie in ``[lo, hi]``."""
        j = self.start[self.bucket(x)]
        ahead = np.flatnonzero(self.next_value[j] <= x)
        for _ in range(_MAX_ADVANCES):
            if not ahead.size:
                return j
            j[ahead] += 1
            ahead = ahead[self.next_value[j[ahead]] <= x[ahead]]
        j[ahead] = np.searchsorted(self.values, x[ahead], "right") - 1
        return j


@dataclass(frozen=True, eq=False)
class BidFunction:
    """Monotone bid schedule on a value grid, piecewise-linear in between.

    Calling it returns exactly what ``np.interp(v, values, bids)`` returns,
    bit for bit; arrays find their cells through a bucket table
    (:class:`_CellLookup`) built on first use instead of a binary search per
    value, and scalars keep ``np.interp`` and its scalar return type.
    """

    values: np.ndarray
    bids: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        b = np.asarray(self.bids, dtype=float)
        if v.shape != b.shape or v.ndim != 1 or v.size < 2:
            raise ValueError("values and bids must be matching 1-d arrays")
        if np.any(np.diff(v) <= 0.0):
            raise ValueError("value grid must be strictly increasing")
        if np.any(np.diff(b) <= 0.0):
            raise ValueError("bids must be strictly increasing")
        if np.any(b < -1e-12) or np.any(b > v + 1e-12):
            raise ValueError("bids must lie in [0, v]")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "bids", b)

    @functools.cached_property
    def _table(self):
        """Cell lookup plus per-cell slopes (the top value gets slope 0), or
        None where the lookup's arithmetic could differ from np.interp's: an
        infinite slope, a bucket scale that is infinite or zero (an infinite
        top value), or a bid of -0.0, which ``slope * 0.0 + bid`` turns into
        +0.0."""
        v, b = self.values, self.bids
        with np.errstate(over="ignore"):
            slopes = np.append(np.diff(b) / np.diff(v), 0.0)
        scale = _BUCKETS_PER_CELL * (v.size - 1) / float(v[-1] - v[0])
        if (not (np.all(np.isfinite(slopes)) and 0.0 < scale < math.inf)
                or np.any((b == 0.0) & np.signbit(b))):
            return None
        return _CellLookup(v, scale), slopes

    def __call__(self, v):
        x = np.asarray(v, dtype=float)
        if x.ndim == 0 or self._table is None:
            return np.interp(v, self.values, self.bids)
        lookup, slopes = self._table
        # clamping sends values beyond the ends to the end cells' bids, as
        # np.interp does; NaN is np.interp's to answer
        nan = np.isnan(x)
        has_nan = bool(nan.any())
        clamped = np.clip(x, lookup.lo, lookup.hi)
        if has_nan:
            clamped[nan] = lookup.lo
        j = lookup.cells(clamped.ravel()).reshape(x.shape)
        out = slopes[j] * (clamped - self.values[j]) + self.bids[j]
        if has_nan:
            out[nan] = np.interp(x[nan], self.values, self.bids)
        return out

    def inverse(self, b):
        """Value whose bid is b; clamps to the grid ends outside the range."""
        return np.interp(b, self.bids, self.values)


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    config: HybridAuctionConfig
    bid_function: BidFunction
    win_prob: np.ndarray
    surplus: np.ndarray
    residual: float
    method: str
    iterations: int
    tol: float
    restarts: int = 0
    residual_history: tuple = field(default=(), repr=False)

    @property
    def values(self) -> np.ndarray:
        return self.bid_function.values

    @property
    def bids(self) -> np.ndarray:
        return self.bid_function.bids

    def table(self) -> dict[str, np.ndarray]:
        """Column view used by the CSV writer (header ``v,sigma,x,S``)."""
        return {"v": self.values, "sigma": self.bids,
                "x": self.win_prob, "S": self.surplus}

    def metadata(self) -> dict:
        """Solver summary; ``residual_history`` is the defect after each
        fixed-point sweep, decimated to at most 64 entries with the last kept."""
        history = self.residual_history
        keep = np.linspace(0, len(history) - 1, min(len(history), 64)).astype(int)
        return {
            "method": self.method,
            "grid_size": int(self.values.size),
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "tol": float(self.tol),
            "restarts": int(self.restarts),
            "residual_history": [float(history[i]) for i in keep],
        }


# ------------------------------ grid machinery -------------------------------


def _power_cumint(values: np.ndarray, g: np.ndarray, lo: float,
                  tail_k: float) -> np.ndarray:
    """Cumulative integral of g over the grid, exact on power-law cells.

    Each cell is integrated with the one-parameter model g ~ A*(t-lo)**kappa
    fitted through its endpoints; plain trapezoid is the kappa->0 special
    case but has an O(1) relative error on the steep cells next to the
    boundary (kappa can reach n_integrated*alpha + (n_neutral-1)*alpha for
    Beta-type laws), which would poison the whole fixed point.
    """
    u = values - lo
    u0, u1 = u[:-1], u[1:]
    g0, g1 = g[:-1], g[1:]
    cells = 0.5 * (g0 + g1) * (u1 - u0)  # trapezoid fallback

    # boundary cells: g rises from 0 at the support bottom like u**tail_k
    from_zero = (u0 <= 0.0) | (g0 <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        boundary = g1 * u1 / (tail_k + 1.0)
        ok = from_zero & (u0 <= 0.0)
        cells = np.where(ok, boundary, cells)

        interior = ~from_zero & (g1 > 0.0) & (u1 > u0 * (1.0 + 1e-12))
        kappa = np.log(np.where(interior, g1 / np.where(g0 > 0, g0, 1.0), 1.0)) \
            / np.log(np.where(interior, u1 / np.where(u0 > 0, u0, 1.0), math.e))
        kappa = np.clip(kappa, -0.5, 1e4)
        power = (g1 * u1 - g0 * u0) / (kappa + 1.0)
        cells = np.where(interior, power, cells)

    out = np.empty_like(g)
    out[0] = 0.0
    np.cumsum(cells, out=out[1:])
    return out


def _isotonic(y: np.ndarray) -> np.ndarray:
    """L2 projection onto nondecreasing sequences (pool adjacent violators)."""
    d = np.diff(y)
    if not np.any(d < 0.0):
        return y
    vals: list[float] = []
    counts: list[int] = []
    for x in y:
        vals.append(float(x))
        counts.append(1)
        while len(vals) > 1 and vals[-1] < vals[-2]:
            v2, c2 = vals.pop(), counts.pop()
            v1, c1 = vals.pop(), counts.pop()
            vals.append((v1 * c1 + v2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    return np.repeat(vals, counts)


def _strictly_increasing(b: np.ndarray) -> np.ndarray:
    """Break exact ties upward by one ulp: for finite b >= 0 the int64 view is
    monotone, so that is a running max of view_i - i (+ 0.0 maps -0.0 to 0)."""
    steps = np.arange(b.size, dtype=np.int64)
    view = (b + 0.0).view(np.int64)
    out = (np.maximum.accumulate(view - steps) + steps).view(np.float64)
    out[:1] = b[:1]
    return out


class _Problem:
    """What one solve fixes before its first sweep: the equal-probability
    value grid over the neutral support, the rival CDF on it, the combined
    lower-tail exponent ``tail_k`` of G and the anchor line
    ``lo + slope * (v - lo)`` that holds the boundary region."""

    def __init__(self, config: HybridAuctionConfig, grid_size: int):
        top_q = 1.0 if math.isfinite(config.neutral_values.support[1]) else _TOP_Q
        q = np.linspace(0.0, top_q, grid_size)
        grid = np.unique(np.asarray(config.neutral_values.quantile(q), dtype=float))
        if grid.size < 64:
            raise ValueError("value grid collapsed; distribution too concentrated")
        lo = float(grid[0])
        if config.n_neutral == 1 and lo > 1e-12:
            raise ValueError("single neutral bidder requires a value support "
                             "starting at 0")
        eps_v = float(grid[-1] - lo) / grid_size
        probe = max(eps_v, float(grid[1] - lo)) / 2.0
        tail_k = 0.0
        if config.n_neutral > 1:
            tail_k += (config.n_neutral - 1) * lower_tail_exponent(
                config.neutral_values, lo, probe)
        if config.n_integrated > 0:
            tail_k += config.n_integrated * lower_tail_exponent(
                config.integrated_values, lo, probe)
        if tail_k <= 0.0:
            raise SolverError("flat lower tail: no interior shading slope exists")
        self.config, self.values = config, grid
        self.lo, self.eps_v, self.tail_k = lo, eps_v, tail_k
        self.slope = tail_k / (tail_k + 1.0)
        self.anchor = grid <= lo + eps_v
        self.anchor[0] = True
        self.line = lo + self.slope * (grid - lo)
        self.rival = config.rival_cdf(grid)

    def defect(self, bids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """The shading identity's right-hand side v - int(G)/G, the points
        where it is usable (G above the floor, off the anchor) and the
        sup-norm defect |bid - mapped| over them."""
        g = self.rival * self.config.reserve_cdf(bids)
        integral = _power_cumint(self.values, g, self.lo, self.tail_k)
        usable = (g > _G_FLOOR) & ~self.anchor
        ratio = np.zeros_like(self.values)
        np.divide(integral, g, out=ratio, where=usable)
        mapped = self.values - ratio
        sup = float(np.abs(bids - mapped)[usable].max()) if np.any(usable) else 0.0
        return mapped, usable, sup

    def project(self, bids: np.ndarray) -> np.ndarray:
        """The safeguard every sweep ends with: isotonic projection, clip into
        [0, v] and the anchor clamp. Returns a new array."""
        bids = np.clip(_isotonic(bids), 0.0, self.values)
        bids[self.anchor] = self.line[self.anchor]
        return bids

    def finish(self, bids, residual, method, iterations, tol, restarts=0,
               history=()) -> EquilibriumSolution:
        bids = _strictly_increasing(np.clip(bids, 0.0, self.values))
        x = self.rival * self.config.reserve_cdf(bids)
        return EquilibriumSolution(
            config=self.config, bid_function=BidFunction(self.values, bids),
            win_prob=x, surplus=_power_cumint(self.values, x, self.lo, self.tail_k),
            residual=residual, method=method, iterations=iterations, tol=tol,
            restarts=restarts, residual_history=tuple(history))


def _extrapolate(image, step, d_image, d_step) -> np.ndarray | None:
    """Anderson candidate ``image - gamma @ d_image``, where gamma fits the
    step differences ``d_step`` (rows) to ``step`` by least squares; None when
    that fit is singular or the candidate is not finite."""
    gamma, _, rank, _ = np.linalg.lstsq(d_step.T, step, rcond=None)
    if rank < gamma.size:
        return None
    candidate = image - gamma @ d_image
    return candidate if np.all(np.isfinite(candidate)) else None


# --------------------------------- solvers -----------------------------------


def _check_solve_args(grid_size: int, tol: float):
    """Reject fewer than 64 grid points, or a tolerance that is negative, NaN
    or infinite (which would pass the unsolved start line)."""
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def solve_fixed_point(config: HybridAuctionConfig, grid_size: int = 512,
                      tol: float = _TOL) -> EquilibriumSolution:
    """Solve the shading identity by Anderson-accelerated fixed point,
    safeguarded by the isotonic projection and the anchor clamp.

    Each sweep blends the identity's right-hand side into the schedule with
    weight ``_DAMPING``, extrapolates from the last ``_ANDERSON_DEPTH``
    differences of these images (Walker & Ni, SIAM J. Numer. Anal. 2011) and
    projects the result onto monotone schedules in [0, v] on the anchor line.
    The history is dropped for the plain damped step when the residual
    exceeds twice its best, makes no new best for ``_STALL_SWEEPS`` sweeps,
    or the extrapolation is singular or not finite. Success means the
    sup-norm defect of the identity is at most ``tol`` away from the anchored
    boundary region within ``_MAX_SWEEPS`` sweeps.
    """
    _check_solve_args(grid_size, tol)
    problem = _Problem(config, grid_size)
    line = problem.line

    d_image = np.empty((_ANDERSON_DEPTH, line.size))  # ring of image differences
    d_step = np.empty_like(d_image)                    # and of step differences
    stored = restarts = stalled = 0
    best = math.inf
    previous = None
    history = []
    bids = line.copy()
    for iteration in range(_MAX_SWEEPS + 1):
        mapped, usable, residual = problem.defect(bids)
        history.append(residual)
        if residual <= tol:
            return problem.finish(bids, residual, "fixed-point", iteration, tol,
                                  restarts, history[1:])

        image = (1.0 - _DAMPING) * bids + _DAMPING * np.where(usable, mapped, line)
        step = image - bids
        stalled = 0 if residual < best else stalled + 1
        best = min(best, residual)
        if residual > 2.0 * best or stalled >= _STALL_SWEEPS:
            previous, stored, stalled = None, 0, 0
            restarts += 1
        if previous is not None:
            slot = stored % _ANDERSON_DEPTH
            np.subtract(image, previous[0], out=d_image[slot])
            np.subtract(step, previous[1], out=d_step[slot])
            stored += 1
        previous = image, step
        candidate = image
        if stored:
            depth = min(stored, _ANDERSON_DEPTH)
            candidate = _extrapolate(image, step, d_image[:depth], d_step[:depth])
            if candidate is None:
                candidate, stored = image, 0
                restarts += 1
        bids = problem.project(candidate)

    raise SolverError(
        f"fixed point did not reach tol={tol:g} after {_MAX_SWEEPS} sweeps "
        f"(last residual {residual:.3g})", residual=residual)


# ------------------------------ verification ----------------------------------


@dataclass(frozen=True)
class BestResponseReport:
    """Deviation gains at the certified values: ``max_gain`` (at ``at_value``)
    is what ``bound`` gates; ``top_gain`` at the top grid value is reported
    only; ``bid_gap`` is the largest distance between a scheduled bid and the
    best bid of the bid grid, at least half its step. ``gains`` holds the
    certified values' gains in grid order, then the top value's."""

    max_gain: float
    at_value: float
    bound: float
    top_gain: float
    bid_gap: float
    gains: np.ndarray = field(repr=False)


def verify_best_response(solution: EquilibriumSolution) -> BestResponseReport:
    """Best-response certificate: what a neutral builder gains by deviating
    from the solved schedule while its rivals play it.

    The values are every k-th grid value from the bottom, below the top cell,
    with the least k that keeps at most ``_CERT_VALUES`` of them, plus the top
    value. They lie on the grid because between grid points the interpolated
    schedule is not the solved one and shows false gains. Each is scored
    against ``_CERT_BIDS`` bids evenly spaced over the value range (a bid
    below it never wins, a bid above the schedule wins the rival contest
    outright). At an equilibrium the gains vanish up to the schedule's error;
    the bound is the value range times ``_GAIN_BOUND`` or, on a grid of n
    values, ``_GAIN_CELLS / n**2`` if that is larger. The top cell is left
    out of the gate: its gain carries the grid's tail bias, which can exceed
    that of a mis-shaded schedule.
    """
    config, values, bids = solution.config, solution.values, solution.bids
    n, lo, top = values.size, float(values[0]), float(values[-1])
    points = np.append(np.arange(0, n - 1, -(-(n - 1) // _CERT_VALUES)), n - 1)
    bid_grid = np.linspace(lo, top, _CERT_BIDS)
    rival = config.rival_cdf(solution.bid_function.inverse(bid_grid))
    win = np.where(bid_grid > bids[-1], 1.0, rival) * config.reserve_cdf(bid_grid)
    v = values[points]
    payoff = (v[:, None] - bid_grid) * win
    best = np.argmax(payoff, axis=1)
    gains = (payoff[np.arange(v.size), best]
             - (v - bids[points]) * solution.win_prob[points])
    i = int(np.argmax(gains[:-1]))
    return BestResponseReport(
        max_gain=float(gains[i]), at_value=float(v[i]),
        bound=(top - lo) * max(_GAIN_BOUND, _GAIN_CELLS / n**2),
        top_gain=float(gains[-1]),
        bid_gap=float(np.max(np.abs(bid_grid[best] - bids[points])[:-1])),
        gains=gains)
