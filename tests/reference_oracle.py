"""Reference forms the tests hold the solvers to; nothing in the package
calls them.

- closed forms of the single-neutral uniform auction: its bid schedule
  (:func:`closed_form_single_neutral`) and surplus split
  (:func:`surplus_single_neutral`);
- a neutral builder's win probability under a solved schedule
  (:func:`winning_probability`), and the surplus envelope identity it
  must meet, integrated by trapezoids (:func:`envelope_defect`);
- the lognormal mean and variance in closed form
  (:func:`lognormal_moments`);
- the plain damped iteration of the shading identity
  (:func:`damped_reference`), with the isotonic projection
  (:func:`isotonic`) it ends each sweep with;
- a single neutral builder's best payoff against an empirical reserve, in
  closed form piece by piece (:func:`empirical_best_payoff`);
- each value's best bid by brute force over every payoff
  (:func:`brute_best_bids`), and the certificate's deviation gain at every
  grid value built on it (:func:`brute_gains`);
- the candlestick root condition as a checked scalar
  (:func:`candlestick_residual`; the bisection evaluates the same formula
  unchecked, as ``_residual_vec``), and its truncated-mean form through
  :func:`lognormal_truncated_mean`, with ``scipy.special.ndtr`` so that the
  form does not share the package's normal CDF;
- the ``p = 1`` unraveling profit (:func:`unraveling_slow_profit`), taken on
  slow bids up to ``2 v0``, beyond the ``[0, v0]`` that
  :func:`candlestick_residual` accepts.
"""

import math

import numpy as np
from scipy.special import ndtr

from pbslab.common_values import CandlestickConfig, PriceProcess, _residual_vec
from pbslab.distributions import EmpiricalGrid, Lognormal, lognormal_put_value
from pbslab.private_equilibrium import EquilibriumSolution, _Problem


def closed_form_single_neutral(n_integrated: int, v):
    """Equilibrium bid of the single neutral builder against ``n_integrated``
    truthful uniform-[0,1] rivals: a constant shading factor n/(n+1)."""
    if n_integrated < 1:
        raise ValueError("need at least one integrated builder")
    return n_integrated * np.asarray(v, dtype=float) / (n_integrated + 1)


def surplus_single_neutral(n_integrated: int, v) -> tuple:
    """Interim surplus of the single neutral builder, its counterfactual
    surplus were it integrated, and the ratio of the two."""
    if n_integrated < 1:
        raise ValueError("need at least one integrated builder")
    v = np.asarray(v, dtype=float)
    ratio = (n_integrated / (n_integrated + 1)) ** n_integrated
    integrated = v ** (n_integrated + 1) / (n_integrated + 1)
    return ratio * integrated, integrated, ratio


def winning_probability(solution: EquilibriumSolution, v):
    """Win probability of a neutral builder with value v under the solution."""
    bids = solution.bid_function(v)
    return solution.config.rival_cdf(v) * solution.config.reserve_cdf(bids)


def envelope_defect(solution: EquilibriumSolution) -> float:
    """Largest gap between the surplus (v - bid) * x(v) and the trapezoid
    integral of the win probability x up to v; a wrong schedule shows a
    large one."""
    v, x = solution.values, solution.win_prob
    accumulated = np.concatenate(([0.0], np.cumsum(0.5 * (x[1:] + x[:-1]) * np.diff(v))))
    return float(np.max(np.abs((v - solution.bids) * x - accumulated)))


def isotonic(y: np.ndarray) -> np.ndarray:
    """L2 projection onto nondecreasing sequences (pool adjacent violators)."""
    if not np.any(np.diff(y) < 0.0):
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


def damped_reference(config, grid_size=512, tol=1e-6,
                     damping=0.5) -> EquilibriumSolution:
    """The plain damped iteration of the shading identity on the solver's
    grid from its start line: each sweep blends the identity's right-hand
    side, or the start line where G is at or below the floor, into the
    schedule with weight ``damping``, then projects onto monotone schedules
    in [0, v]. Success means the solver's own defect of at most ``tol``."""
    problem = _Problem(config, grid_size)
    grid, line = problem.values, problem.line
    bids = line.copy()
    for sweeps in range(10_000):
        mapped, usable, residual = problem.defect(bids)[:3]
        if residual <= tol:
            return problem.finish(bids, residual, "damped", sweeps, tol)
        bids = (1.0 - damping) * bids + damping * np.where(usable, mapped, line)
        bids = np.clip(isotonic(bids), 0.0, grid)
    raise AssertionError("damped reference did not converge")


def empirical_best_payoff(law: EmpiricalGrid, n_integrated: int, v) -> np.ndarray:
    """max over b of (v - b) * F(b)**n for each value v, F the law's CDF,
    linear on each piece [x_j, x_j+1]: there the payoff is log-concave, its
    stationary point solves F(b) = n * s_j * (v - b), and the piece's best
    bid is that point clipped to [x_j, min(x_j+1, v)]."""
    x, c, n = law.points, law.cdf_values, n_integrated
    v = np.asarray(v, dtype=float)[:, None]
    s = np.diff(c) / np.diff(x)
    stationary = (n * s * v + s * x[:-1] - c[:-1]) / ((n + 1) * s)
    bids = np.minimum(np.clip(stationary, x[:-1], x[1:]), v)
    return np.max((v - bids) * law.cdf(bids) ** n, axis=1)


def brute_best_bids(values, bids, win, rows: int = 256) -> np.ndarray:
    """The first index of the best bid for each value: ``np.argmax`` over the
    full payoff matrix (v - b) * win(b), ``rows`` values at a time."""
    return np.concatenate([np.argmax(np.subtract.outer(values[i:i + rows], bids) * win,
                                     axis=1) for i in range(0, values.size, rows)])


def brute_gains(solution: EquilibriumSolution, n_bids: int = 4000) -> np.ndarray:
    """What each grid value gains by its best deviation to ``n_bids`` bids
    evenly spaced over the value range, its rivals playing the solved
    schedule: a bid above the schedule's top wins the rival contest
    outright, and the win probability is the rival CDF at the value that
    bids it times the reserve CDF."""
    config, v, bids = solution.config, solution.values, solution.bids
    grid = np.linspace(v[0], v[-1], n_bids)
    rival = config.rival_cdf(np.interp(grid, bids, v))
    win = np.where(grid > bids[-1], 1.0, rival) * config.reserve_cdf(grid)
    best = brute_best_bids(v, grid, win)
    return (v - grid[best]) * win[best] - (v - bids) * solution.win_prob


def lognormal_moments(law: Lognormal) -> tuple[float, float]:
    """Mean exp(a + s^2/2) and variance (exp(s^2) - 1) exp(2a + s^2)."""
    a, s2 = law.log_mean, law.log_sd ** 2
    return math.exp(a + 0.5 * s2), (math.exp(s2) - 1.0) * math.exp(2.0 * a + s2)


class NegligibleMassError(ValueError):
    """Truncation event has probability below machine tiny; the conditional
    mean is numerically undefined."""


def lognormal_truncated_mean(law: Lognormal, b: float) -> float:
    """Conditional mean E[V | V < b] for a lognormal V.

    Closed form: exp(a + s^2/2) * Phi((ln b - a - s^2)/s) / Phi((ln b - a)/s).
    Raises :class:`NegligibleMassError` when P(V < b) underflows below machine
    tiny, since the ratio is then 0/0.
    """
    if not b > 0.0:
        raise ValueError(f"truncation point must be positive, got {b}")
    a, s = law.log_mean, law.log_sd
    z = (math.log(b) - a) / s
    mass = float(ndtr(z))
    if mass < np.finfo(float).tiny:
        raise NegligibleMassError(
            f"P(V < {b}) underflows; truncated mean undefined at this point")
    return lognormal_moments(law)[0] * float(ndtr(z - s)) / mass


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


def unraveling_slow_profit(process: PriceProcess, b: float) -> float:
    """Expected profit of a slow bid b when the fast bidder always revises.

    Equals P(V <= b) * (E[V | V <= b] - b) = -E[(b - V)+]; strictly negative
    for every positive bid, which is what forces slow bids to zero.
    """
    if not b > 0.0:
        raise ValueError(f"bid must be positive, got {b}")
    return -lognormal_put_value(process.v0, b, process.log_sd)
