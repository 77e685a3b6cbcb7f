"""Independent oracle for the hybrid bid schedule: RK45 on the ODE form.

Differentiating the shading identity of :mod:`pbslab.private_equilibrium`
gives an ODE for the bid schedule, which this module integrates with
adaptive RK45 on the solver's value grid from a start line of its own
(:func:`_start_exponent`). The tests
hold the solved schedule to it. The ODE is not total on the documented
families: it leaves its admissible region on Beta(0.7,3) 3+3 and with
lognormal integrated values, and reaches its evaluation cap on Beta(0.5,5)
3+3 and on Beta(2,5) neutral values against two or more integrated
builders. The program therefore certifies its schedules by best response
(``verify_best_response``) instead.
"""

from itertools import count

import numpy as np
from scipy.integrate import solve_ivp

from pbslab.distributions import Beta, EmpiricalGrid, Uniform
from pbslab.private_equilibrium import (_G_FLOOR, _MASS_FLOOR, EquilibriumSolution,
                                        HybridAuctionConfig, SolverError,
                                        _Problem)

# rhs calls before solve_ode gives up; the most a tested input used is 30,817
_MAX_NFEV = 40_000


def _start_exponent(law, lo: float, u: float) -> float:
    """The ODE's own lower-tail exponent k of ``law`` at ``lo``, with
    F(lo + u) ~ C * u**k: 0 where F(lo) is above ``_MASS_FLOOR``; at or below
    the law's bottom 1 for uniform and empirical laws and alpha for Beta;
    else u * f / F at ``lo + u``, clamped to [0, 500]. RK45 needs a start
    inside the ODE's admissible region, which this rule gives on the tested
    lognormal inputs (the solver's own exponent does not)."""
    if float(law.cdf(lo)) > _MASS_FLOOR:
        return 0.0
    bottom = law.support[0]
    if lo <= bottom + 1e-12 * max(1.0, abs(bottom)):
        if isinstance(law, (Uniform, EmpiricalGrid)):
            return 1.0
        if isinstance(law, Beta):
            return law.alpha
    u = max(u, 1e-300)
    big_f = float(law.cdf(lo + u))
    if big_f <= 0.0:
        return 500.0
    return float(np.clip(u * float(law.pdf(lo + u)) / big_f, 0.0, 500.0))


class OdeSingularityError(SolverError):
    """The bid-schedule ODE left its admissible domain (denominator <= 0)."""

    def __init__(self, location: float):
        super().__init__(f"ODE singularity at v={location:.6g}")
        self.location = location


def solve_ode(config: HybridAuctionConfig, grid_size: int = 512,
              tol: float = 1e-9) -> EquilibriumSolution:
    """Integrate the differentiated shading identity with adaptive RK45.

    Valid for two or more neutral bidders (with a single one the identity
    does not differentiate into an ODE; use :func:`solve_fixed_point` or the
    closed form). The admissible region is where the reserve CDF term minus
    its density correction is positive. Starting outside it or stepping
    across its edge (a terminal event) raises :class:`OdeSingularityError`,
    more than ``_MAX_NFEV`` right-hand-side evaluations :class:`SolverError`.
    """
    if config.n_neutral < 2:
        raise ValueError("ODE route needs at least two neutral bidders")
    if not tol > 0.0:
        raise ValueError("ODE tolerance must be positive")
    problem = _Problem(config, grid_size)
    grid, lo = problem.values, problem.lo
    eps_v = float(grid[-1] - lo) / grid_size  # values below lo + eps_v bid the line
    v_start = lo + eps_v
    top = float(grid[-1])
    n_int, n_neu = config.n_integrated, config.n_neutral
    f_neu, big_f_neu = config.neutral_values.pdf, config.neutral_values.cdf
    f_int, big_f_int = config.integrated_values.pdf, config.integrated_values.cdf
    evaluations = count(1)

    def reserve_terms(v, b):
        reserve = np.float64(big_f_int(b))  # 0/0 is a nan that RK45 rejects
        return reserve, reserve - n_int * (v - b) * float(f_int(b))

    def rhs(v, y):
        if next(evaluations) > _MAX_NFEV:
            raise SolverError(f"ODE gave up after {_MAX_NFEV} right-hand-side "
                              f"evaluations at v={v:.6g}")
        b = min(float(y[0]), v)  # the schedule never crosses the diagonal
        hazard = float(f_neu(v)) / max(float(big_f_neu(v)), _G_FLOOR)
        base = (n_neu - 1) * hazard * (v - b)
        if n_int == 0:
            return [base]
        reserve, den = reserve_terms(v, b)
        return [base * reserve / den]

    def domain_edge(v, y):
        return reserve_terms(v, min(float(y[0]), v))[1]

    domain_edge.terminal = True
    u = max(eps_v, float(grid[1] - lo)) / 2.0
    k = sum(n * _start_exponent(law, lo, u) for n, law in (
        (n_neu - 1, config.neutral_values), (n_int, config.integrated_values)) if n > 0)
    slope = k / (k + 1.0)
    start = [lo + slope * eps_v]
    if n_int and domain_edge(v_start, start) <= 0.0:
        raise OdeSingularityError(v_start)

    solved = grid >= v_start - 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (v_start, top), start,
                        method="RK45", rtol=tol, atol=tol * max(top - lo, 1.0),
                        t_eval=grid[solved],
                        events=None if n_int == 0 else domain_edge,
                        first_step=eps_v / 2.0, max_step=(top - lo) / 16.0)
    if sol.status == 1 and sol.t_events and sol.t_events[0].size:
        raise OdeSingularityError(float(sol.t_events[0][0]))
    if not sol.success:
        raise SolverError(f"ODE integration failed: {sol.message}")

    bids = lo + slope * (grid - lo)
    bids[solved] = sol.y[0]
    bids = np.minimum(bids, grid)
    return problem.finish(bids, problem.defect(bids)[2], "ode", int(sol.nfev), tol)
