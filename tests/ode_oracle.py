"""Independent oracle for the hybrid bid schedule: RK45 on the ODE form.

Differentiating the shading identity of :mod:`pbslab.private_equilibrium`
gives an ODE for the bid schedule, which this module integrates with
adaptive RK45 on the solver's value grid from its start line. The tests
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

from pbslab.private_equilibrium import (_G_FLOOR, EquilibriumSolution,
                                        HybridAuctionConfig, SolverError,
                                        _Problem)

# rhs calls before solve_ode gives up; the most a tested input used is 30,817
_MAX_NFEV = 40_000


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
    start = [lo + problem.slope * eps_v]
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

    bids = problem.line.copy()
    bids[solved] = sol.y[0]
    bids = np.minimum(bids, grid)
    return problem.finish(bids, problem.defect(bids)[2], "ode", int(sol.nfev), tol)
