"""Candlestick auction: price law, unraveling, break-even root, oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from pbslab.common_values import (CandlestickConfig, PriceProcess, _residual_vec,
                                  fast_expected_profit, law_of_v_delta,
                                  slow_win_probability, solve_candlestick)
from pbslab.distributions import lognormal_put_value
from pbslab.simulator import _candlestick_block

from reference_oracle import (candlestick_residual, lognormal_moments,
                              lognormal_truncated_mean, unraveling_slow_profit)


def _process(v0=1.0, vol=0.2, delta=1.0) -> PriceProcess:
    return PriceProcess(v0, vol, delta)


# ------------------------------- price process ---------------------------------


def test_law_parameters_and_mean():
    law = law_of_v_delta(_process())
    assert law.log_sd == pytest.approx(0.2)
    assert law.log_mean == pytest.approx(-0.02)
    assert lognormal_moments(law)[0] == pytest.approx(1.0, abs=1e-15)


def test_law_tiny_lead_time_is_nearly_point_mass():
    law = law_of_v_delta(_process(delta=1e-12))
    assert float(law.cdf(1.0 - 1e-6)) < 1e-6
    assert float(law.cdf(1.0 + 1e-6)) > 1.0 - 1e-6


def test_law_sampling_oracle():
    process = _process(v0=2.0, vol=0.3, delta=4.0)
    law = law_of_v_delta(process)
    assert law.log_sd == pytest.approx(0.6)
    assert law.log_mean == pytest.approx(math.log(2.0) - 0.18)
    draws = law.quantile(np.random.default_rng(31).random(1_000_000))
    se = math.sqrt(lognormal_moments(law)[1] / draws.size)
    assert abs(float(np.mean(draws)) - 2.0) < 4.0 * se


def test_process_validation():
    with pytest.raises(ValueError):
        PriceProcess(0.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        PriceProcess(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        law_of_v_delta(PriceProcess(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        CandlestickConfig(_process(), 1.2)


@pytest.mark.parametrize("v0,vol,delta", [
    (math.inf, 0.2, 1.0), (math.nan, 0.2, 1.0), (1.0, math.inf, 1.0),
    (1.0, math.nan, 1.0), (1.0, 0.2, math.inf), (1.0, 0.2, math.nan),
    (1.0, 1.4e154, 1.0),   # log_sd ** 2 overflows
    (1.0, 1e100, 1e300),   # vol * sqrt(delta) overflows
])
def test_process_rejects_non_finite_or_overflowing_inputs(v0, vol, delta):
    with pytest.raises(ValueError):
        PriceProcess(v0, vol, delta)


def test_process_accepts_the_largest_squarable_log_sd():
    vol = math.sqrt(1.7976931348623157e308)  # rounds to a double whose square is finite
    assert PriceProcess(1.0, vol, 1.0).log_mean == -0.5 * vol ** 2


# --------------------------------- residual ------------------------------------


def test_residual_at_zero_is_no_revision_payoff():
    config = CandlestickConfig(_process(), 0.4)
    assert candlestick_residual(config, 0.0) == pytest.approx(0.6 * 1.0, abs=0)


def test_residual_endpoint_signs():
    for p in (0.1, 0.5, 0.9):
        config = CandlestickConfig(_process(), p)
        assert candlestick_residual(config, 0.0) > 0.0
        assert candlestick_residual(config, 1.0) < 0.0


def test_residual_without_revision_risk():
    config = CandlestickConfig(_process(), 0.0)
    for b in (0.0, 0.3, 0.99):
        assert candlestick_residual(config, b) == pytest.approx(1.0 - b, abs=1e-15)


def test_residual_rejects_out_of_range_bid():
    config = CandlestickConfig(_process(), 0.5)
    with pytest.raises(ValueError):
        candlestick_residual(config, 1.5)
    with pytest.raises(ValueError):
        candlestick_residual(config, -0.1)


def test_residual_forms_agree_near_the_deep_tail():
    # the shortfall form must stay finite where the truncation mass underflows
    config = CandlestickConfig(_process(), 0.5)
    val = candlestick_residual(config, 1e-6)
    assert val == pytest.approx(0.5 * (1.0 - 1e-6), abs=1e-12)


# ---------------------------------- solver -------------------------------------


def test_solver_endpoints_exact():
    assert solve_candlestick(CandlestickConfig(_process(), 0.0)).b0s == 1.0
    assert solve_candlestick(CandlestickConfig(_process(), 1.0)).b0s == 0.0


def test_solver_degenerate_process():
    for p in (0.0, 0.3, 1.0):
        sol = solve_candlestick(CandlestickConfig(PriceProcess(1.0, 0.0, 1.0), p))
        assert sol.b0s == 1.0
        assert sol.slow_win_prob == 1.0
        assert sol.fast_expected_profit == 0.0


def test_root_validity(candlestick_half):
    config, sol = candlestick_half
    v0 = config.process.v0
    assert abs(sol.residual) <= 1e-10 * v0
    # largest-root property: strictly negative all the way up to v0
    above = sol.b0s + (v0 - sol.b0s) * np.linspace(1e-6, 1.0, 1024)
    assert np.all(_residual_vec(config, above) < 0.0)


def _oracle_root(config: CandlestickConfig, n_dense: int = 100_000) -> float:
    """Largest root located on a dense grid, with the truncated integral by
    adaptive quadrature; fully independent of the solver's shortfall form."""
    process, p = config.process, config.p
    law = law_of_v_delta(process)
    v0 = process.v0

    def residual(b: float) -> float:
        integral = quad(lambda x: x * float(law.pdf(x)), 0.0, b, limit=300)[0]
        return (1.0 - p) * (v0 - b) + p * (integral - b * float(law.cdf(b)))

    grid = np.linspace(v0, 0.0, n_dense)
    partial = np.concatenate([[0.0], np.cumsum(
        0.5 * (grid[:-1] * np.asarray(law.pdf(grid[:-1]), dtype=float)
               + grid[1:] * np.asarray(law.pdf(grid[1:]), dtype=float))
        * np.diff(grid))])  # running integral downward from v0
    full = quad(lambda x: x * float(law.pdf(x)), 0.0, v0, limit=300)[0]
    truncated = full + partial  # integral of x*pdf from 0 to grid[k]
    dense_res = (1.0 - p) * (v0 - grid) + p * (
        truncated - grid * np.asarray(law.cdf(grid), dtype=float))
    k = int(np.argmax(dense_res > 0.0))
    assert k > 0, "oracle found no sign change"
    return brentq(residual, grid[k], grid[k - 1], xtol=1e-13)


def test_solver_matches_dense_grid_quadrature_oracle(candlestick_half):
    config, sol = candlestick_half
    assert abs(sol.b0s - _oracle_root(config)) < 1e-8


@given(v0=st.floats(1e-300, 1e300), vol=st.floats(0.01, 2.0),
       delta=st.floats(0.01, 10.0),
       p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_root_is_the_sign_change_between_adjacent_doubles(v0, vol, delta, p):
    config = CandlestickConfig(PriceProcess(v0, vol, delta), p)
    b0s = solve_candlestick(config).b0s
    assert _residual_vec(config, b0s) <= 0.0 < _residual_vec(config, np.nextafter(b0s, 0.0))


@pytest.mark.parametrize("v0", [1e-300, 1.7e308])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_root_scales_with_v0_across_the_double_range(v0, p):
    """The profit condition is homogeneous in (v0, b), so b0s/v0 does not
    depend on v0, down to tiny values and up to the largest doubles."""
    unit = solve_candlestick(CandlestickConfig(_process(), p)).b0s
    sol = solve_candlestick(CandlestickConfig(_process(v0=v0), p))
    assert abs(sol.b0s / v0 - unit) <= 1e-15


def test_b0s_nonincreasing_in_p():
    previous = math.inf
    for p in np.linspace(0.0, 1.0, 11):
        b = solve_candlestick(CandlestickConfig(_process(), float(p))).b0s
        assert b <= previous + 1e-12
        previous = b


def test_solution_to_dict_schema(candlestick_half):
    _, sol = candlestick_half
    d = sol.to_dict()
    assert set(d) == {"v0", "vol", "delta", "p", "b0s", "slow_win_prob",
                      "fast_profit", "residual", "iterations"}


# ------------------------- win probabilities and profits ------------------------


def test_slow_win_probability_limits():
    assert slow_win_probability(CandlestickConfig(_process(), 0.0), 1.0) == 1.0
    assert slow_win_probability(CandlestickConfig(_process(), 1.0), 0.0) == 0.0


def test_slow_win_probability_composition(candlestick_half):
    config, sol = candlestick_half
    z = (math.log(sol.b0s) + 0.02) / 0.2
    expected = 0.5 * (0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))) + 0.5
    assert sol.slow_win_prob == pytest.approx(expected, abs=1e-12)


def test_fast_bid_decision_strictness(candlestick_half):
    """The simulated fast bidder outbids iff the revised value strictly
    exceeds the slow bid."""
    config, sol = candlestick_half
    law = law_of_v_delta(config.process)
    # both rows revise (second uniform below p); values 1.2x and 0.8x the bid
    u = np.array([[0.0, 0.0, float(law.cdf(1.2 * sol.b0s))],
                  [0.0, 0.0, float(law.cdf(0.8 * sol.b0s))]])
    assert _candlestick_block(sol, u)["win_rate_fast"].tolist() == [1.0, 0.0]
    # a motionless value always revises to v0 = b0s: ties stay with the slow bid
    still = CandlestickConfig(_process(vol=0.0), 1.0)
    tie = _candlestick_block(solve_candlestick(still), np.zeros((1, 3)))
    assert tie["win_rate_fast"].tolist() == [0.0]


def test_unraveling_profit_negative_everywhere():
    for vol in (0.1, 0.2, 0.5):
        process = _process(vol=vol)
        for b in np.linspace(0.05, 2.0, 40):
            assert unraveling_slow_profit(process, float(b)) < 0.0


def test_unraveling_vanishes_at_zero_bid():
    assert abs(unraveling_slow_profit(_process(), 1e-9)) < 1e-12


def test_unraveling_put_identity():
    assert unraveling_slow_profit(_process(), 1.0) == pytest.approx(
        -lognormal_put_value(1.0, 1.0, 0.2), abs=1e-15)


def test_unraveling_rejects_nonpositive_bids():
    with pytest.raises(ValueError):
        unraveling_slow_profit(_process(), 0.0)


def test_fast_profit_limits():
    assert fast_expected_profit(CandlestickConfig(_process(), 0.0), 1.0) == 0.0
    # wins everything at a price of zero: pockets the martingale mean
    assert fast_expected_profit(CandlestickConfig(_process(), 1.0), 0.0) == \
        pytest.approx(1.0, abs=1e-12)


def test_fast_profit_sampling_oracle(candlestick_half):
    config, sol = candlestick_half
    law = law_of_v_delta(config.process)
    rng = np.random.default_rng(77)
    draws = law.quantile(rng.random(1_000_000))
    gains = config.p * np.maximum(draws - sol.b0s, 0.0)
    se = float(np.std(gains, ddof=1)) / math.sqrt(draws.size)
    assert abs(float(np.mean(gains)) - sol.fast_expected_profit) < 3.0 * se


def test_zero_profit_identity(candlestick_half):
    """The solved bid makes the win-and-lose decomposition balance exactly."""
    config, sol = candlestick_half
    law = law_of_v_delta(config.process)
    mass = float(law.cdf(sol.b0s))
    adverse = mass * (lognormal_truncated_mean(law, sol.b0s) - sol.b0s)
    total = (1 - config.p) * (1.0 - sol.b0s) + config.p * adverse
    assert abs(total) < 1e-10


# ------------------------------ property checks --------------------------------


@given(v0=st.floats(0.1, 5.0), vol=st.floats(0.02, 1.0),
       delta=st.floats(0.01, 10.0), p=st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_solution_properties(v0, vol, delta, p):
    config = CandlestickConfig(PriceProcess(v0, vol, delta), p)
    assert candlestick_residual(config, 0.0) > 0.0
    assert candlestick_residual(config, v0) < 0.0
    sol = solve_candlestick(config)
    assert 0.0 <= sol.b0s <= v0
    assert abs(sol.residual) <= 1e-9 * v0
    assert 0.0 <= sol.slow_win_prob <= 1.0
    assert sol.fast_expected_profit >= 0.0
