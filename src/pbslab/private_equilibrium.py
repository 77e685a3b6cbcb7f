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
the second kind (Linz 1985; Brunner 2004). :func:`solve_fixed_point` solves
it by Newton steps, or, with one neutral builder, where the identity is
tangent at its root, by bracketing each value's best bid. The identity is
0/0 at the bottom of the support; the Newton solve anchors that region with the
local power-law asymptote ``bid ~ lo + c * (v - lo)`` where ``c = k / (k + 1)``
and ``k`` is the combined lower-tail exponent of G.

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

# default tolerance, and step cap of a solve (a bracket of doubles stops
# shrinking within about 60 halvings)
_TOL = 1e-6
_MAX_STEPS = 60

# a Newton solve on a finer grid starts from the schedule solved on this one
_COARSE_GRID = 512
_ANCHOR_START = "anchor line"

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
    residual_history: tuple = field(default=(), repr=False)
    start: str | dict = _ANCHOR_START

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
        step (see :func:`solve_fixed_point`), and ``start`` the schedule the
        steps began from: "anchor line", or the coarse grid's size with the
        steps and residual of its solve."""
        return {
            "method": self.method,
            "grid_size": int(self.values.size),
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "tol": float(self.tol),
            "residual_history": [float(r) for r in self.residual_history],
            "start": self.start if isinstance(self.start, str) else dict(self.start),
        }


# ------------------------------ grid machinery -------------------------------


def _power_cumint(values: np.ndarray, g: np.ndarray, lo: float, tail_k: float):
    """Cumulative integral of g over the grid, exact on power-law cells.

    Each cell is integrated with the one-parameter model g ~ A*(t-lo)**kappa
    fitted through its endpoints; plain trapezoid is the kappa->0 special
    case but has an O(1) relative error on the steep cells next to the
    boundary (kappa can reach n_integrated*alpha + (n_neutral-1)*alpha for
    Beta-type laws), which would poison the whole solve. Also returns each
    cell's derivatives in the g at its left and at its right end.
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
    out[0] = 0.0
    np.cumsum(cells, out=out[1:])
    return out, d_left, d_right


def _strictly_increasing(b: np.ndarray) -> np.ndarray:
    """Break exact ties upward by one ulp: for finite b >= 0 the int64 view is
    monotone, so that is a running max of view_i - i (+ 0.0 maps -0.0 to 0)."""
    steps = np.arange(b.size, dtype=np.int64)
    view = (b + 0.0).view(np.int64)
    out = (np.maximum.accumulate(view - steps) + steps).view(np.float64)
    out[:1] = b[:1]
    return out


class _Problem:
    """What one solve fixes before its first step: the equal-probability
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
        eps_v = float(grid[-1] - lo) / grid_size
        probe = max(eps_v, float(grid[1] - lo)) / 2.0
        tail_k = sum(n * lower_tail_exponent(law, lo, probe) for n, law in (
            (config.n_neutral - 1, config.neutral_values),
            (config.n_integrated, config.integrated_values)) if n > 0)
        if tail_k <= 0.0:  # one neutral builder only: a rival CDF's k is > 0
            raise ValueError("integrated values must not start below the neutral values")
        self.config, self.values = config, grid
        self.lo, self.eps_v, self.tail_k = lo, eps_v, tail_k
        self.slope = tail_k / (tail_k + 1.0)
        self.anchor = grid <= lo + eps_v
        self.line = lo + self.slope * (grid - lo)
        self.rival = config.rival_cdf(grid)

    def defect(self, bids: np.ndarray) -> tuple:
        """The shading identity's right-hand side v - int(G)/G, the points
        where it is usable (G above the floor, off the anchor), the sup-norm
        defect |bid - mapped| over them (inf if there are none: such bids
        never win), then G, int(G), the partials of its cells (see
        :func:`_power_cumint`) and the integrated law's CDF for a Newton step."""
        config = self.config
        law_cdf = config.integrated_values.cdf(bids) if config.n_integrated else None
        g = self.rival * config.reserve_cdf(bids, law_cdf)
        integral, d_left, d_right = _power_cumint(self.values, g, self.lo, self.tail_k)
        usable = (g > _G_FLOOR) & ~self.anchor
        ratio = np.zeros_like(self.values)
        np.divide(integral, g, out=ratio, where=usable)
        mapped = self.values - ratio
        sup = float(np.abs(bids - mapped)[usable].max()) if np.any(usable) else math.inf
        return mapped, usable, sup, g, integral, d_left, d_right, law_cdf

    def finish(self, bids, residual, method, iterations, tol,
               history=(), g=None, integral=None,
               start=_ANCHOR_START) -> EquilibriumSolution:
        """The solution at ``bids`` made feasible; ``g`` is G at ``bids`` or
        None, ``integral`` its :func:`_power_cumint` integral or None."""
        kept = _strictly_increasing(np.clip(bids, 0.0, self.values))
        if g is None or not np.array_equal(kept.view(np.int64), bids.view(np.int64)):
            g, integral = self.rival * self.config.reserve_cdf(kept), None
        if integral is None:
            integral = _power_cumint(self.values, g, self.lo, self.tail_k)[0]
        return EquilibriumSolution(
            config=self.config, bid_function=BidFunction(self.values, kept),
            win_prob=g, surplus=integral,
            residual=residual, method=method, iterations=iterations, tol=tol,
            residual_history=tuple(history), start=start)


# --------------------------------- solvers -----------------------------------


def _check_solve_args(grid_size: int, tol: float):
    """Reject fewer than 64 grid points, or a tolerance that is negative, NaN
    or infinite (which would pass the unsolved start line)."""
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def _march(alpha, beta, later, old, values) -> np.ndarray:
    """A Newton step's forward recurrence: bid i is alpha_i + beta_i * S_i,
    S_i the sum of later_j * (bid_j - old_j) over j < i, kept in
    (bid_{i-1}, v_i], where the root lies; a bid at or below its predecessor
    goes halfway to the old bid, or to v_i where the old bid is no higher."""
    bids = []
    change, below = 0.0, -math.inf
    for a, b, w, o, v in zip(alpha.tolist(), beta.tolist(), later.tolist(),
                             old.tolist(), values.tolist()):
        bid = a + b * change
        if not bid > below:
            bid = 0.5 * (below + (o if o > below else v))
        elif bid > v:
            bid = v
        change += w * (bid - o)
        below = bid
        bids.append(bid)
    return np.array(bids)


def _newton_steps(problem: _Problem, bids: np.ndarray):
    """The start schedule ``bids``, then Newton steps on
    phi_i = (v_i - sigma_i) G_i - I_i, each schedule with its defect and
    (G, I). As I_i depends on sigma_0..sigma_i only,
    the Jacobian is D_i on the diagonal and -w_j = -dI/dsigma_j below it, so
    delta_i = (S_i - phi_i) / D_i with S_i the sum of w_j delta_j over j < i
    (:func:`_march`). A point with D_i >= 0 takes the Jacobi image
    v_i - (I_i + S_i) / G_i, and one where G is not usable the anchor line."""
    config, values = problem.config, problem.values
    while True:
        (mapped, usable, residual, g, integral,
         d_left, d_right, law_cdf) = problem.defect(bids)
        yield bids, residual, (g, integral)
        slope = problem.rival * config.reserve_pdf(bids, law_cdf)  # dG_i / dsigma_i
        own = np.append(0.0, d_right) * slope              # dI_i / dsigma_i
        later = own + np.append(d_left, 0.0) * slope       # w_i
        diag = (values - bids) * slope - g - own
        newton = usable & (diag < 0.0)
        # a Newton point's alpha_i is sigma_i - G_i * (mapped_i - sigma_i) / D_i
        alpha = np.where(usable, mapped, problem.line)
        beta = np.zeros_like(values)
        np.divide(-1.0, g, out=beta, where=usable)
        np.divide(1.0, diag, out=beta, where=newton)
        np.add(bids, g * (bids - mapped) * beta, out=alpha, where=newton)
        bids = _march(alpha, beta, later, bids, values)


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
    """The anchor line with its defect and (G, I), then halvings of each
    value's bracket around its argmax of (v - b) * H(b), H the
    reserve CDF, by the sign of (v - b) * H'(b) - H(b), rising where H = 0;
    the bids are the midpoints, the residual the widest bracket, G and I
    None. As the payoff can have two local maxima where H is not log-concave,
    a bracket starts on the two grid cells around the grid value that scores
    best as a bid (:func:`_best_bids`), or on [lo, v] where none wins."""
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
    identity's sup-norm defect off the anchor; with one by "argmax"
    (:func:`_argmax_steps`), the residual being the widest bracket around a
    best bid. Both start from the anchor line, except a Newton solve on a
    grid of more than ``_COARSE_GRID`` values, which starts from the
    schedule solved on that many (see :func:`_coarse_start`). Raises
    SolverError if the residual is above ``tol`` after ``_MAX_STEPS``
    steps."""
    _check_solve_args(grid_size, tol)
    return _solve(config, grid_size, tol)


def _solve(config: HybridAuctionConfig, grid_size: int,
           tol: float) -> EquilibriumSolution:
    """:func:`solve_fixed_point` past its argument check."""
    problem = _Problem(config, grid_size)
    if config.n_neutral == 1:
        method, steps, start = "argmax", _argmax_steps(problem), _ANCHOR_START
    else:
        bids, start = _coarse_start(problem, tol)
        method, steps = "newton", _newton_steps(problem, bids)
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
    schedule solved on ``_COARSE_GRID`` values, read at the fine values,
    with the fine anchor line kept (nested iteration: the steps Newton
    needs do not grow as the grid gets finer; Deuflhard 2004, Kelley 2003);
    otherwise, or where the coarse solve fails, the anchor line."""
    if problem.values.size <= _COARSE_GRID:
        return problem.line, _ANCHOR_START
    try:
        coarse = _solve(problem.config, _COARSE_GRID, tol)
    except (SolverError, ValueError):  # ValueError: the coarse grid collapsed
        return problem.line, _ANCHOR_START
    bids = np.where(problem.anchor, problem.line, coarse.bid_function(problem.values))
    return bids, {"grid_size": _COARSE_GRID, "iterations": coarse.iterations,
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
    bids evenly spaced over the value range (a bid below it never wins, a bid
    above the schedule wins the rival contest outright); values off the grid
    are not, as between grid points the interpolated schedule is not the
    solved one and shows false gains. At an equilibrium the gains vanish up
    to the schedule's error; the bound is the value range times
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
