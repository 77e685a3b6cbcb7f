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
from pbslab.distributions import Lognormal, lognormal_put_value
from pbslab.private_equilibrium import EquilibriumSolution


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
