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

On a value grid the identity is lower-triangular, a Volterra equation of
the second kind (Linz 1985; Brunner 2004). The grid's values are the
neutral law's quantiles at equally spaced levels q_i, so the rival factor
``F_neutral(v_i)**(n_neutral-1)`` is read off the levels as
``q_i**(n_neutral-1)``: they differ from the CDF at the values only by the
rounding of each value to a double (see ``_Problem``).

:func:`solve_fixed_point` solves the identity by Newton steps, or, with one
neutral builder, where the identity is tangent at its root, by bracketing
each value's best bid. The identity is 0/0 at the bottom of the support,
where G vanishes: both solves start from the local power-law asymptote
``bid ~ lo + c * (v - lo)`` where ``c = k / (k + 1)`` and ``k`` is the
combined lower-tail exponent of G, read as the power law through each law's
CDF at the grid's first three offsets (see ``_Problem``), and the identity
counts only the points where G is above ``_G_FLOOR``.

:func:`verify_best_response` certifies a solved schedule by the equilibrium
property itself: no neutral builder gains by deviating from it. It checks
every value on the solver's grid against a fine grid of bids, and gates the
largest gain below the grid's top tail (see ``_GAIN_BOUND``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import ValueDistribution

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

# a CDF value above it is mass at the point it is read at
_MASS_FLOOR = 1e-9

# quantile cap for laws with unbounded upper support
_TOP_Q = 1.0 - 1e-6

# default tolerance, and step cap of a solve (a bracket of doubles stops
# shrinking within about 60 halvings)
_TOL = 1e-6
_MAX_STEPS = 60

# a Newton step keeps the bids below the first usable point whose defect is
# not below tol * _SETTLED
_SETTLED = 1e-3

# a Newton solve on a finer grid starts from the schedule solved on this one
_COARSE_GRID = 512
_START_LINE = "start line"

# bids the best-response certificate scores each grid value against
_CERT_BIDS = 4000

# the best-bid kernel scores its first _BLOCK_LEVELS bisection levels as one
# block of values against every bid
_BLOCK_LEVELS = 4

# the certificate gates grid values 0 to k * ((n - 2) // k) of n, with
# k = ceil((n - 1) / _GATE_STEPS): the values above, the top cell and at most
# k - 1 below it, carry the grid's top-tail bias
_GATE_STEPS = 64

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
    the model to a symmetric first-price auction among the neutral builders.
    With one neutral builder the reserve may hold no mass at the neutral
    bottom: the best bid could then lie below it, where the solver never looks.
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
        if (self.n_neutral == 1 and float(self.integrated_values.cdf(
                self.neutral_values.support[0])) > _MASS_FLOOR):
            raise ValueError("integrated values must not start below the neutral values")

    def reserve_cdf(self, b, law_cdf=None):
        """CDF of the effective reserve: the highest truthful integrated bid.
        ``law_cdf``, the integrated law's CDF at b, spares evaluating it."""
        if self.n_integrated == 0:
            return np.ones_like(np.asarray(b, dtype=float))
        law_cdf = self.integrated_values.cdf(b) if law_cdf is None else law_cdf
        return law_cdf ** self.n_integrated

    def reserve_pdf(self, b, law_cdf):
        """Density of the effective reserve, from the integrated law's CDF at b."""
        n = self.n_integrated
        if n == 0:
            return np.zeros_like(np.asarray(b, dtype=float))
        return n * law_cdf ** (n - 1) * self.integrated_values.pdf(b)

    def rival_cdf(self, v):
        """Probability that all other neutral builders have value below v.
        The certificate scores deviations with it; a solve reads it off its
        grid's levels instead (see ``_Problem``)."""
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
    residual_history: tuple = field(default=(), repr=False)
    start: str | dict = _START_LINE
    marched: tuple | None = field(default=None, repr=False)

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
        """Solver summary; ``residual_history`` is the residual after each
        step (see :func:`solve_fixed_point`), ``start`` the schedule the
        steps began from: "start line", or the coarse grid's size with the
        steps and residual of its solve, and ``marched`` the grid points
        each Newton step marched (None for other methods)."""
        return {
            "method": self.method,
            "grid_size": int(self.values.size),
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "tol": float(self.tol),
            "residual_history": [float(r) for r in self.residual_history],
            "start": self.start if isinstance(self.start, str) else dict(self.start),
            "marched": None if self.marched is None else list(self.marched),
        }


# ------------------------------ grid machinery -------------------------------


def _power_cumint(values: np.ndarray, g: np.ndarray, lo: float, tail_k: float,
                  first: float = 0.0):
    """Cumulative integral of g over the grid from ``first`` at its first
    value, exact on power-law cells.

    Each cell is integrated with the one-parameter model g ~ A*(t-lo)**kappa
    fitted through its endpoints; plain trapezoid is the kappa->0 special
    case but has an O(1) relative error on the steep cells next to the
    boundary (kappa can reach n_integrated*alpha + (n_neutral-1)*alpha for
    Beta-type laws), which would poison the whole solve. Also returns each
    cell's derivatives in the g at its left and at its right end. The
    cells are added to ``first`` in sequence, so integrating a grid's tail
    from its integral at the tail's first value gives that integral's bits.
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
        log_u = np.log(np.where(interior, u1 / np.where(u0 > 0, u0, 1.0), math.e))
        fitted = np.log(np.where(interior, g1 / np.where(g0 > 0, g0, 1.0), 1.0)) / log_u
        kappa = np.clip(fitted, -0.5, 1e4)
        power = (g1 * u1 - g0 * u0) / (kappa + 1.0)
        cells = np.where(interior, power, cells)

        # kappa moves with log(g1 / g0) where the clip leaves it free
        lean = np.where(interior & (kappa == fitted), power / log_u, 0.0)
        half = 0.5 * (u1 - u0)
        d_left = np.where(interior, (lean / g0 - u0) / (kappa + 1.0),
                          np.where(ok, 0.0, half))
        d_right = np.where(interior, (u1 - lean / g1) / (kappa + 1.0),
                           np.where(ok, u1 / (tail_k + 1.0), half))

    out = np.empty_like(g)
    np.cumsum(np.append(first, cells), out=out)
    return out, d_left, d_right


def _strictly_increasing(b: np.ndarray) -> np.ndarray:
    """Break exact ties upward by one ulp: for finite b >= 0 the int64 view is
    monotone, so that is a running max of view_i - i (+ 0.0 maps -0.0 to 0)."""
    steps = np.arange(b.size, dtype=np.int64)
    view = (b + 0.0).view(np.int64)
    out = (np.maximum.accumulate(view - steps) + steps).view(np.float64)
    out[:1] = b[:1]
    return out


# what a defect evaluation from grid point 0 keeps: no G, an integral of 0
# at the first value and no usable defect
_NONE_KEPT = (np.empty(0), np.zeros(1), -math.inf)


def _tail_exponent(cdf: np.ndarray, steps: np.ndarray) -> float:
    """Exponent k of the power law F ~ C * u**k through a CDF read at the
    offsets ``steps`` = (0, u1, u2): 0 where it holds mass at 0, inf where it
    is still 0 at u1 (the start line is then the diagonal, and the first
    cell's integral 0), else log(F2/F1) / log(u2/u1)."""
    if cdf[0] > _MASS_FLOOR:
        return 0.0
    if not cdf[1] > 0.0:
        return math.inf
    return math.log(cdf[2] / cdf[1]) / math.log(steps[2] / steps[1])


class _Problem:
    """What one solve fixes before its first step: the equal-probability
    value grid over the neutral support, the rival CDF on it, the combined
    lower-tail exponent ``tail_k`` of G and the start line
    ``lo + slope * (v - lo)``, its asymptote at the support bottom.

    The rival CDF is read off ``levels``, each value's level (the first of
    those that round to it), kept nondecreasing by a running max as the
    quantile is monotone only to its last bits. A level differs from F(v)
    by about f(v) times an ulp of v: 4.8e-8 where Beta(8,0.3)'s steep tail
    packs many levels into few doubles (grid 8192), and not at all on
    uniform(0,1).

    ``tail_k`` sums each builder's :func:`_tail_exponent` at the grid's first
    two steps: the neutral law's off the levels, the integrated law's off its
    CDF above lo, or above its own start where that is higher. That is 1 per
    law on uniform laws from 0, alpha plus the first cell's curvature on
    Beta laws, and on lognormal, which has no power tail, the local exponent
    at the first cell's scale, the scale its integral needs."""

    def __init__(self, config: HybridAuctionConfig, grid_size: int):
        top_q = 1.0 if math.isfinite(config.neutral_values.support[1]) else _TOP_Q
        q = np.linspace(0.0, top_q, grid_size)
        grid, first = np.unique(np.asarray(config.neutral_values.quantile(q), dtype=float),
                                return_index=True)
        if grid.size < 64:
            raise ValueError("value grid collapsed; distribution too concentrated")
        lo = float(grid[0])
        levels = np.maximum.accumulate(q[first])
        steps, law = grid[:3] - lo, config.integrated_values
        reads = [(config.n_neutral - 1, levels[:3])]
        if config.n_integrated:
            reads.append((config.n_integrated, law.cdf(max(lo, law.support[0]) + steps)))
        tail_k = sum(n * _tail_exponent(cdf, steps) for n, cdf in reads if n > 0)
        self.config, self.values = config, grid
        self.lo, self.tail_k = lo, tail_k
        slope = tail_k / (tail_k + 1.0) if tail_k < math.inf else 1.0
        self.line = lo + slope * (grid - lo)
        self.levels, self.rival = levels, levels ** (config.n_neutral - 1)

    def defect(self, bids: np.ndarray, start: int = 0,
               kept: tuple = _NONE_KEPT) -> tuple:
        """The shading identity's right-hand side v - int(G)/G, the points
        where it is usable (G above the floor), the sup-norm
        defect |bid - mapped| over them (inf if there are none: such bids
        never win), then G, int(G), for a Newton step the partials in each
        point's G of the cell to its right and of the cell to its left (0
        past the grid ends; see :func:`_power_cumint`), and the integrated
        law's CDF.

        From ``start`` on only: ``kept`` holds G, int(G) and the largest
        usable defect below ``start`` (-inf if none is usable) of bids that
        agree with ``bids`` there. Point i's equation involves bids 0..i
        only, so splicing onto ``kept`` gives a full evaluation's bits. G
        and int(G) are full length; the other arrays start at ``start``."""
        config, values, tail = self.config, self.values, bids[start:]
        law_cdf = config.integrated_values.cdf(tail) if config.n_integrated else None
        g_tail = self.rival[start:] * config.reserve_cdf(tail, law_cdf)
        g = np.concatenate((kept[0][:start], g_tail))
        cell = max(start - 1, 0)  # the first cell with an end at or above start
        part, d_left, d_right = _power_cumint(values[cell:], g[cell:], self.lo,
                                              self.tail_k, kept[1][cell])
        integral = np.concatenate((kept[1][:cell], part))
        usable = g_tail > _G_FLOOR
        ratio = np.zeros_like(tail)
        np.divide(integral[start:], g_tail, out=ratio, where=usable)
        mapped = values[start:] - ratio
        sup = float(np.max(np.abs(tail - mapped)[usable], initial=kept[2]))
        right = np.append(d_left, 0.0)[start - cell:]
        left = np.append(0.0, d_right)[start - cell:]
        return (mapped, usable, sup if sup > -math.inf else math.inf, g, integral,
                right, left, law_cdf)

    def finish(self, bids, residual, method, iterations, tol,
               history=(), g=None, integral=None, marched=None,
               start=_START_LINE) -> EquilibriumSolution:
        """The solution at ``bids`` made feasible; ``g`` is G at ``bids`` or
        None, ``integral`` its :func:`_power_cumint` integral or None, and
        ``marched`` the points each Newton step marched."""
        kept = _strictly_increasing(np.clip(bids, 0.0, self.values))
        if g is None or not np.array_equal(kept.view(np.int64), bids.view(np.int64)):
            g, integral = self.rival * self.config.reserve_cdf(kept), None
        if integral is None:
            integral = _power_cumint(self.values, g, self.lo, self.tail_k)[0]
        return EquilibriumSolution(
            config=self.config, bid_function=BidFunction(self.values, kept),
            win_prob=g, surplus=integral,
            residual=residual, method=method, iterations=iterations, tol=tol,
            residual_history=tuple(history), start=start, marched=marched)


# --------------------------------- solvers -----------------------------------


def _check_solve_args(grid_size: int, tol: float):
    """Reject fewer than 64 grid points, or a tolerance that is negative, NaN
    or infinite (which would pass the unsolved start line)."""
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def _march(alpha, beta, later, old, values, below) -> np.ndarray:
    """A Newton step's forward recurrence from a point whose predecessors
    keep their bids: bid i is alpha_i + beta_i * S_i, S_i the sum of
    later_j * (bid_j - old_j) over the marched j < i, kept in
    (bid_{i-1}, v_i], where the root lies, ``below`` standing for the bid
    before the first; a bid at or below its predecessor goes halfway to the
    old bid, or to v_i where the old bid is no higher."""
    def recurrence(below):
        change = 0.0
        for a, b, w, o, v in zip(alpha.tolist(), beta.tolist(), later.tolist(),
                                 old.tolist(), values.tolist()):
            bid = a + b * change
            if not bid > below:
                bid = 0.5 * (below + (o if o > below else v))
            elif bid > v:
                bid = v
            change += w * (bid - o)
            below = bid
            yield bid
    return np.fromiter(recurrence(below), dtype=float, count=values.size)


def _newton_steps(problem: _Problem, bids: np.ndarray, tol: float):
    """The start schedule ``bids``, then Newton steps on
    phi_i = (v_i - sigma_i) G_i - I_i, each schedule with its defect and
    (G, I, the number of grid points each step so far marched).
    As I_i depends on sigma_0..sigma_i only,
    the Jacobian is D_i on the diagonal and -w_j = -dI/dsigma_j below it, so
    delta_i = (S_i - phi_i) / D_i with S_i the sum of w_j delta_j over j < i
    (:func:`_march`). A point with D_i >= 0 takes the Jacobi image
    v_i - (I_i + S_i) / G_i.

    A step keeps the bids below the first usable point that has not
    settled, its defect not below ``tol * _SETTLED``: it marches from that
    point, and the next defect is evaluated from there on. The kept
    points' equations see the same bids, so their defects stay. With
    ``tol`` = 0 every usable point marches, and the points below the first,
    where G is at or below the floor, keep the bids they started from.
    Every marched point is usable: G never falls along the grid, as the
    rival CDF rises with v, the reserve CDF with the bid, and the march
    keeps the bids increasing."""
    config, values = problem.config, problem.values
    start, kept, marched = 0, _NONE_KEPT, []
    while True:
        (mapped, usable, residual, g, integral,
         right, left, law_cdf) = problem.defect(bids, start, kept)
        yield bids, residual, (g, integral, tuple(marched))
        gap = np.abs(bids[start:] - mapped)
        settled = ~usable | (gap < tol * _SETTLED)
        skip = int(np.argmin(np.append(settled, False)))  # the first unsettled
        kept = (g, integral, float(np.max(gap[:skip][usable[:skip]], initial=kept[2])))
        start += skip
        mapped, right, left = mapped[skip:], right[skip:], left[skip:]
        old, v, g = bids[start:], values[start:], g[start:]
        slope = problem.rival[start:] * config.reserve_pdf(   # dG_i / dsigma_i
            old, None if law_cdf is None else law_cdf[skip:])
        own = left * slope                                    # dI_i / dsigma_i
        later = own + right * slope                           # w_i
        diag = (v - old) * slope - g - own
        newton = diag < 0.0
        # a Newton point's alpha_i is sigma_i - G_i * (mapped_i - sigma_i) / D_i
        alpha, beta = mapped, -1.0 / g
        np.divide(1.0, diag, out=beta, where=newton)
        np.add(old, g * (old - mapped) * beta, out=alpha, where=newton)
        below = bids[start - 1] if start else -math.inf
        bids = np.concatenate((bids[:start], _march(alpha, beta, later, old, v, below)))
        marched.append(v.size)


def _best_bids(values: np.ndarray, bids: np.ndarray, win: np.ndarray) -> np.ndarray:
    """For each of the ascending ``values``, the first index of the bid that
    maximizes (v - b) * win(b) over the ascending ``bids``, ``win`` being
    nondecreasing. The payoff then has increasing differences, so that bid
    never falls as v rises (Topkis 1978; Milgrom and Shannon 1994). Value
    ``p - 1`` is entry ``p`` of a table whose entry 0 and entries past the
    last value bound the search at the first and last bid. One 2-D block
    scores every ``h``-th value against all bids (at most
    ``2**_BLOCK_LEVELS - 1`` values); then each level halves ``h`` and
    scores the odd multiples of it only between the bids found for their
    neighbours ``p - h`` and ``p + h``: at most m + values payoffs a level,
    O((n + m) log n) in all."""
    n = values.size
    levels = n.bit_length()  # 2**levels > n
    best = np.full(2 ** levels + 1, bids.size - 1, dtype=np.intp)
    best[0] = 0
    h = 2 ** max(levels - _BLOCK_LEVELS, 0)
    best[h:n + 1:h] = np.argmax((values[h - 1::h, None] - bids) * win, axis=1)
    while h > 1:
        h //= 2
        low, high = best[:n + 1 - h:2 * h], best[2 * h:n + 1 + h:2 * h]
        size = high - low + 1
        start = np.cumsum(size) - size
        col = np.arange(start[-1] + size[-1]) - np.repeat(start - low, size)
        payoff = (np.repeat(values[h - 1::2 * h], size) - bids[col]) * win[col]
        top = np.repeat(np.maximum.reduceat(payoff, start), size)
        hits = np.flatnonzero(payoff == top)
        best[h:n + 1:2 * h] = col[hits[np.searchsorted(hits, start)]]
    return best[1:n + 1]


def _argmax_steps(problem: _Problem):
    """The start line with its defect and (G, I), then halvings of each
    value's bracket around its argmax of (v - b) * H(b), H the
    reserve CDF, by the sign of (v - b) * H'(b) - H(b), rising where H = 0;
    the bids are the midpoints, the residual the widest bracket, G and I
    None. As the payoff can have two local maxima where H is not log-concave,
    a bracket starts on the two grid cells around the grid value that scores
    best as a bid (:func:`_best_bids`), or on [lo, v] where none wins, as
    the config's rule for one neutral builder keeps H(lo) = 0."""
    config, values, line = problem.config, problem.values, problem.line
    residual, g, integral = problem.defect(line)[2:5]
    yield line, residual, (g, integral)
    low, high = np.full_like(values, problem.lo), values.copy()
    reserve = config.reserve_cdf(values)
    best = _best_bids(values, values, reserve)
    wins = (values - values[best]) * reserve[best] > 0.0
    low[wins] = values[np.maximum(best[wins] - 1, 0)]
    high[wins] = values[best[wins] + 1]  # the payoff at v is 0
    while True:
        mid = 0.5 * (low + high)
        cdf = config.integrated_values.cdf(mid)
        reserve = config.reserve_cdf(mid, cdf)
        rising = (reserve <= 0.0) | ((values - mid) * config.reserve_pdf(mid, cdf) > reserve)
        low, high = np.where(rising, mid, low), np.where(rising, high, mid)
        yield 0.5 * (low + high), float(np.max(high - low)), (None, None)


def solve_fixed_point(config: HybridAuctionConfig, grid_size: int = 512,
                      tol: float = _TOL) -> EquilibriumSolution:
    """Solve the shading identity on the value grid, returned after 0 steps
    if its start meets ``tol``: with two or more neutral builders by
    "newton" steps (:func:`_newton_steps`), the residual being the
    identity's sup-norm defect where G is above the floor; with one by
    "argmax" (:func:`_argmax_steps`), the residual being the widest bracket
    around a best bid. Both start from the start line ("start line" in
    ``start``), except a Newton solve on a grid of more than
    ``_COARSE_GRID`` values, which starts from the schedule solved on that
    many (see :func:`_coarse_start`). Raises SolverError if the residual is
    above ``tol`` after ``_MAX_STEPS`` steps."""
    _check_solve_args(grid_size, tol)
    return _solve(config, grid_size, tol)


def _solve(config: HybridAuctionConfig, grid_size: int,
           tol: float) -> EquilibriumSolution:
    """:func:`solve_fixed_point` past its argument check."""
    problem = _Problem(config, grid_size)
    if config.n_neutral == 1:
        method, steps, start = "argmax", _argmax_steps(problem), _START_LINE
    else:
        bids, start = _coarse_start(problem, tol)
        method, steps = "newton", _newton_steps(problem, bids, tol)
    residuals = []
    for step, (bids, residual, known) in enumerate(steps):
        residuals.append(residual)
        if residual <= tol:
            return problem.finish(bids, residual, method, step, tol, residuals[1:],
                                  *known, start=start)
        if step == _MAX_STEPS:
            raise SolverError(
                f"{method} solve did not reach tol={tol:g} after {_MAX_STEPS} "
                f"steps (last residual {residual:.3g})", residual=residual)


def _coarse_start(problem: _Problem, tol: float) -> tuple:
    """The first schedule of a Newton solve, and the ``start`` record of its
    solution. On a grid of more than ``_COARSE_GRID`` values it is the
    schedule solved on ``_COARSE_GRID`` values, read at the fine values
    (nested iteration: the steps Newton needs do not grow as the grid gets
    finer; Deuflhard 2004, Kelley 2003); otherwise, or where the coarse
    solve fails, the start line."""
    if problem.values.size <= _COARSE_GRID:
        return problem.line, _START_LINE
    try:
        coarse = _solve(problem.config, _COARSE_GRID, tol)
    except (SolverError, ValueError):  # ValueError: the coarse grid collapsed
        return problem.line, _START_LINE
    return coarse.bid_function(problem.values), {
        "grid_size": _COARSE_GRID, "iterations": coarse.iterations,
        "residual": coarse.residual}


# ------------------------------ verification ----------------------------------


@dataclass(frozen=True)
class BestResponseReport:
    """Deviation gains at the grid values: ``max_gain`` (at ``at_value``),
    the largest below the gate's top, is what ``bound`` gates; ``top_gain``
    at the top grid value is reported only; ``bid_gap`` is the largest
    distance below the gate's top between a scheduled bid and the best bid
    of the bid grid, at least half its step. ``gains`` holds every grid
    value's gain in grid order."""

    max_gain: float
    at_value: float
    bound: float
    top_gain: float
    bid_gap: float
    gains: np.ndarray = field(repr=False)


def verify_best_response(solution: EquilibriumSolution) -> BestResponseReport:
    """Best-response certificate: what a neutral builder gains by deviating
    from the solved schedule while its rivals play it.

    Every grid value is scored, by :func:`_best_bids`, against ``_CERT_BIDS``
    bids evenly spaced over the value range (a bid below it never wins: the
    rivals bid at least lo, or one neutral builder meets the config's rule;
    a bid above the schedule wins the rival contest outright); values off
    the grid are not, as between grid points the interpolated schedule is
    not the solved one and shows false gains. At an equilibrium the gains
    vanish up to the schedule's error; the bound is the value range times
    ``_GAIN_BOUND`` or, on a grid of n values, ``_GAIN_CELLS / n**2`` if that
    is larger. The gate stops below the grid's top tail (see ``_GATE_STEPS``):
    the gains there carry the grid's tail bias, which can exceed that of a
    mis-shaded schedule.
    """
    config, values, bids = solution.config, solution.values, solution.bids
    n, lo, top = values.size, float(values[0]), float(values[-1])
    bid_grid = np.linspace(lo, top, _CERT_BIDS)
    rival = config.rival_cdf(solution.bid_function.inverse(bid_grid))
    win = np.where(bid_grid > bids[-1], 1.0, rival) * config.reserve_cdf(bid_grid)
    best = _best_bids(values, bid_grid, win)
    gains = (values - bid_grid[best]) * win[best] - (values - bids) * solution.win_prob
    step = -(-(n - 1) // _GATE_STEPS)
    gated = step * ((n - 2) // step) + 1
    i = int(np.argmax(gains[:gated]))
    return BestResponseReport(
        max_gain=float(gains[i]), at_value=float(values[i]),
        bound=(top - lo) * max(_GAIN_BOUND, _GAIN_CELLS / n**2),
        top_gain=float(gains[-1]),
        bid_gap=float(np.max(np.abs(bid_grid[best] - bids)[:gated])),
        gains=gains)
