"""Numerical laboratory for block-builder auction equilibria.

Solves the private-value hybrid auction (integrated builders face a
second-price rule, neutral builders pay their bid) and the common-value
candlestick auction (a fast bidder may revise after the price moves), and
verifies both equilibria by seeded Monte Carlo simulation.
"""

from .common_values import (CandlestickConfig, CandlestickSolution,
                            PriceProcess, RootNotFoundError,
                            candlestick_residual, fast_expected_profit,
                            law_of_v_delta, slow_win_probability,
                            solve_candlestick, unraveling_slow_profit)
from .distributions import (Beta, EmpiricalGrid, Lognormal, NegligibleMassError,
                            Uniform, ValueDistribution, lognormal_put_value,
                            lognormal_truncated_mean, parse_distribution)
from .private_equilibrium import (BidFunction, EquilibriumSolution,
                                  HybridAuctionConfig, OdeSingularityError,
                                  SolverError, closed_form_single_neutral,
                                  solve_fixed_point, solve_ode,
                                  surplus_single_neutral, verify_best_response,
                                  verify_envelope, winning_probability)
from .simulator import (ReplicationRng, SimReport, simulate_candlestick,
                        simulate_hybrid, sweep)

__version__ = "0.1.0"

__all__ = [
    "Beta", "BidFunction", "CandlestickConfig", "CandlestickSolution",
    "EmpiricalGrid", "EquilibriumSolution", "HybridAuctionConfig", "Lognormal",
    "NegligibleMassError", "OdeSingularityError", "PriceProcess",
    "ReplicationRng", "RootNotFoundError", "SimReport", "SolverError",
    "Uniform", "ValueDistribution", "candlestick_residual",
    "closed_form_single_neutral", "fast_expected_profit", "law_of_v_delta",
    "lognormal_put_value", "lognormal_truncated_mean", "parse_distribution",
    "simulate_candlestick", "simulate_hybrid", "slow_win_probability",
    "solve_candlestick", "solve_fixed_point", "solve_ode",
    "surplus_single_neutral", "sweep", "unraveling_slow_profit",
    "verify_best_response", "verify_envelope", "winning_probability",
]
