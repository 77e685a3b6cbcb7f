"""Hybrid-auction equilibrium solvers: closed forms, cross-validation, checks."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pbslab import private_equilibrium as pe
from pbslab.distributions import Beta, EmpiricalGrid, Lognormal, Uniform, parse_distribution
from pbslab.private_equilibrium import (BidFunction, EquilibriumSolution,
                                        HybridAuctionConfig, SolverError,
                                        solve_fixed_point, verify_best_response)

import ode_oracle
from ode_oracle import OdeSingularityError, solve_ode
from reference_oracle import (brute_best_bids, brute_gains, closed_form_single_neutral,
                              damped_reference, empirical_best_payoff, envelope_defect,
                              surplus_single_neutral, winning_probability)

UNIT = Uniform(0.0, 1.0)


# -------------------------------- closed forms ---------------------------------


def test_closed_form_bid_values():
    assert closed_form_single_neutral(3, 0.8) == pytest.approx(0.6)
    assert closed_form_single_neutral(1, 1.0) == pytest.approx(0.5)
    assert closed_form_single_neutral(3, 0.0) == 0.0


def test_closed_form_surplus_values():
    neutral, integrated, ratio = surplus_single_neutral(3, 1.0)
    assert neutral == pytest.approx(27 / 256)
    assert integrated == pytest.approx(1 / 4)
    assert ratio == pytest.approx(27 / 64)

    neutral, integrated, ratio = surplus_single_neutral(1, 1.0)
    assert ratio == pytest.approx(0.5)
    assert integrated == pytest.approx(0.5)
    assert neutral == pytest.approx(0.25)  # ratio * integrated

    neutral, integrated, ratio = surplus_single_neutral(2, 0.0)
    assert neutral == 0.0 and integrated == 0.0
    assert ratio == pytest.approx((2 / 3) ** 2)


# ----------------------------------- solver ------------------------------------


@pytest.mark.parametrize("n_integrated", [1, 2, 3, 5])
def test_fixed_point_matches_single_neutral_closed_form(n_integrated):
    config = HybridAuctionConfig(n_integrated, 1, UNIT, UNIT)
    sol = solve_fixed_point(config)
    target = closed_form_single_neutral(n_integrated, sol.values)
    assert np.max(np.abs(sol.bids - target)) < 1e-3


@pytest.mark.parametrize("n_neutral", [2, 3])
def test_no_reserve_reduces_to_first_price(n_neutral):
    """Dropping the integrated side yields the classical shading (n-1)/n * v."""
    config = HybridAuctionConfig(0, n_neutral, UNIT, UNIT)
    sol = solve_fixed_point(config)
    target = sol.values * (n_neutral - 1) / n_neutral
    assert np.max(np.abs(sol.bids - target)) < 1e-3


def test_boundary_slope_three_by_three(uniform_3_3):
    _, sol = uniform_3_3
    low = (sol.values > 0) & (sol.values < 0.05)
    slopes = sol.bids[low] / sol.values[low]
    assert np.allclose(slopes, 5 / 6, atol=2e-2)


def test_shading_bounds_uniform_matrix():
    for n_int in (1, 3):
        for n_neu in (2, 3, 5):
            sol = solve_fixed_point(HybridAuctionConfig(n_int, n_neu, UNIT, UNIT))
            floor = n_int * sol.values / (n_int + 1)
            assert np.all(sol.bids >= floor - 1e-3)
            assert np.all(sol.bids <= sol.values + 1e-12)


def test_solution_monotonicity_invariants(beta_3_3):
    _, sol = beta_3_3
    assert np.all(np.diff(sol.bids) > 0)
    assert np.all(np.diff(sol.win_prob) >= -1e-12)
    assert np.all(np.diff(sol.surplus) >= -1e-15)
    assert sol.surplus[0] == 0.0
    assert np.all((sol.win_prob >= 0) & (sol.win_prob <= 1))
    assert sol.residual <= sol.tol


def test_empirical_grid_plays_like_uniform():
    emp = EmpiricalGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    sol = solve_fixed_point(HybridAuctionConfig(3, 1, emp, emp))
    assert np.max(np.abs(sol.bids - 0.75 * sol.values)) < 1e-3


class _CountingBeta(Beta):
    """Beta law that records the size of every ``cdf`` argument."""

    def __init__(self, alpha, beta, sizes):
        super().__init__(alpha, beta)
        object.__setattr__(self, "sizes", sizes)

    def cdf(self, x):
        self.sizes.append(np.size(x))
        return super().cdf(x)


@pytest.mark.parametrize("grid", [512, 8192])
def test_solve_never_evaluates_the_neutral_cdf_on_the_grid(grid):
    """The rival CDF on the value grid comes from the grid's own levels: a
    solve evaluates the neutral law's CDF only at single points, once per
    grid it solves on (the lower-tail probe; at 8192 the grid-512 solve it
    starts from adds its own), never on the grid."""
    sizes = []
    config = HybridAuctionConfig(3, 3, Beta(2, 2), _CountingBeta(2, 2, sizes))
    sol = solve_fixed_point(config, grid)
    assert sol.iterations > 1
    assert sizes == [1] * (1 if grid <= pe._COARSE_GRID else 2)
    plain = solve_fixed_point(HybridAuctionConfig(3, 3, Beta(2, 2), Beta(2, 2)), grid)
    assert np.array_equal(sol.bids, plain.bids)
    assert np.array_equal(sol.surplus, plain.surplus)


@pytest.mark.parametrize("n_neutral, method, more", [(3, "newton", 1), (1, "argmax", 3)])
def test_solve_evaluates_integrated_cdf_once_per_step(n_neutral, method, more):
    """A Newton step or an argmax halving evaluates the integrated law once,
    its density reusing that CDF: an argmax halving on the whole grid, a
    Newton step on the points it marched. A Newton solve adds its start
    line, and its win probabilities are the last step's G; an argmax solve
    adds its start line, its bracket scoring and its final midpoints, all on
    the whole grid. Evaluating the CDF again for the density and the win
    probabilities took 12 calls for 5 Newton steps and 35 for 16 halvings."""
    sizes = []
    config = HybridAuctionConfig(3, n_neutral, _CountingBeta(2, 2, sizes), Beta(2, 2))
    sol = solve_fixed_point(config, 512)
    assert sol.method == method and sol.iterations > 1
    n = sol.values.size
    calls = sizes[sizes.index(n):]  # from the start line on, past the tail probe
    assert len(calls) == sol.iterations + more
    steps = list(sol.marched) if method == "newton" else [n] * (len(calls) - 1)
    assert calls == [n, *steps]
    plain = solve_fixed_point(HybridAuctionConfig(3, n_neutral, Beta(2, 2), Beta(2, 2)), 512)
    assert np.array_equal(sol.bids, plain.bids)
    assert np.array_equal(sol.win_prob, plain.win_prob)
    assert np.array_equal(sol.surplus, plain.surplus)


@pytest.mark.parametrize("move", ["none", "tie", "above value"])
def test_finish_reuses_g_only_where_no_bid_moves(move):
    """``finish`` returns the G it is given as the win probabilities only
    if clipping to [0, v] and breaking ties leave every bid as it is;
    otherwise it evaluates G at the bids it returns."""
    config = HybridAuctionConfig(3, 3, Beta(2, 2), Beta(2, 2))
    problem = pe._Problem(config, 512)
    bids = problem.line.copy()
    if move == "tie":
        bids[100] = bids[99]
    elif move == "above value":
        bids[-1] = problem.values[-1] + 0.5
    stale = np.full_like(bids, -1.0)
    sol = problem.finish(bids, 0.0, "newton", 0, 1e-6, g=stale)
    if move == "none":
        assert sol.win_prob is stale
    else:
        assert np.array_equal(sol.win_prob,
                              problem.rival * config.reserve_cdf(sol.bids))


# ------------------------- Newton and argmax paths ---------------------------


LOGNORMAL = Lognormal(0.0, 0.5)
LOGNORMAL_2_4 = HybridAuctionConfig(2, 4, LOGNORMAL, LOGNORMAL)
SOLVER_MATRIX = {
    "beta(0.7,3) 3+3": (HybridAuctionConfig(3, 3, Beta(0.7, 3), Beta(0.7, 3)), 512),
    "beta(0.7,3) 3+3 g8192": (HybridAuctionConfig(3, 3, Beta(0.7, 3), Beta(0.7, 3)), 8192),
    "beta(2,2) 3+3": (HybridAuctionConfig(3, 3, Beta(2, 2), Beta(2, 2)), 512),
    "beta(2,2) 8+8": (HybridAuctionConfig(8, 8, Beta(2, 2), Beta(2, 2)), 512),
    "beta(2,2) 3+3 g4096": (HybridAuctionConfig(3, 3, Beta(2, 2), Beta(2, 2)), 4096),
    "beta(0.5,5) 3+3": (HybridAuctionConfig(3, 3, Beta(0.5, 5), Beta(0.5, 5)), 512),
    "beta(0.5,5) 3+3 g4096": (HybridAuctionConfig(3, 3, Beta(0.5, 5), Beta(0.5, 5)), 4096),
    "uniform/beta(2,5) 3+2": (HybridAuctionConfig(3, 2, UNIT, Beta(2, 5)), 512),
    "beta(2,2) 5+1": (HybridAuctionConfig(5, 1, Beta(2, 2), Beta(2, 2)), 512),
    "beta(2,2) 0+4": (HybridAuctionConfig(0, 4, Beta(2, 2), Beta(2, 2)), 512),
    "lognormal 2+4": (LOGNORMAL_2_4, 512),
    "lognormal 2+4 g8192": (LOGNORMAL_2_4, 8192),
    "lognormal/beta(2,2) 2+4": (HybridAuctionConfig(2, 4, LOGNORMAL, Beta(2, 2)), 512),
    "beta(5,2)/lognormal 2+4": (HybridAuctionConfig(2, 4, Beta(5, 2), LOGNORMAL), 512),
}
NEWTON_ROWS = [name for name, (config, _) in SOLVER_MATRIX.items()
               if config.n_neutral > 1]


def test_power_cumint_partials_match_central_differences():
    """A Newton step chains each cell's derivatives in its end values: they
    match central differences on power-law cells, a cell whose exponent is
    clipped, the boundary cell and trapezoid cells next to a zero."""
    values = np.linspace(0.0, 1.0, 10)
    g = np.array([0.0, 1e-3, 4e-3, 0.0, 0.05, 0.3, 0.31, 0.9, 0.2, 0.25])
    _, d_left, d_right = pe._power_cumint(values, g, 0.0, 2.0)
    cells = np.arange(g.size - 1)
    expected = np.zeros((g.size, g.size - 1))  # d cell_c / d g_j in row j
    expected[cells, cells] = d_left
    expected[cells + 1, cells] = d_right
    for j in np.flatnonzero(g > 0.0):
        h = 1e-4 * g[j]
        up, down = g.copy(), g.copy()
        up[j] += h
        down[j] -= h
        numeric = (np.diff(pe._power_cumint(values, up, 0.0, 2.0)[0])
                   - np.diff(pe._power_cumint(values, down, 0.0, 2.0)[0])) / (2.0 * h)
        np.testing.assert_allclose(numeric, expected[j], rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("name", NEWTON_ROWS)
def test_newton_matches_damped_reference(name):
    """Same tolerance, fewer steps: the Newton schedule meets ``tol`` on its
    own bids and lies within 5e-5 (surplus 2e-6) of the damped one."""
    config, grid_size = SOLVER_MATRIX[name]
    sol = solve_fixed_point(config, grid_size)
    ref = damped_reference(config, grid_size)
    assert sol.method == "newton"
    assert pe._Problem(config, grid_size).defect(sol.bids)[2] <= sol.tol
    assert np.max(np.abs(sol.bids - ref.bids)) <= 5e-5
    assert np.max(np.abs(sol.surplus - ref.surplus)) <= 2e-6
    assert sol.iterations < ref.iterations


@pytest.mark.parametrize("name", list(SOLVER_MATRIX))
def test_solver_matrix_passes_the_certificate(name):
    """Every row solves to ``tol`` and passes the certificate, lognormal 2+4
    at grid 8192 and the single-neutral Beta row included."""
    config, grid_size = SOLVER_MATRIX[name]
    sol = solve_fixed_point(config, grid_size)
    report = verify_best_response(sol)
    assert sol.residual <= sol.tol
    assert report.max_gain <= report.bound


@pytest.mark.parametrize("n_integrated", [1, 2, 3, 5])
def test_argmax_brackets_the_single_neutral_closed_form(n_integrated):
    """Uniform values, whose start line is already the answer: each halving
    keeps n/(n+1) * v inside every value's bracket, and the midpoints are
    the closed form up to half the widest bracket."""
    problem = pe._Problem(HybridAuctionConfig(n_integrated, 1, UNIT, UNIT), 512)
    target = closed_form_single_neutral(n_integrated, problem.values)
    steps = pe._argmax_steps(problem)
    next(steps)  # the start line
    for _, (bids, width, _) in zip(range(30), steps):
        assert np.max(np.abs(bids - target)) <= 0.5 * width + 1e-15
    assert width < 1e-8


@pytest.mark.parametrize("n_integrated", [1, 3])
def test_argmax_where_the_reserve_starts_above_zero(n_integrated):
    """Integrated values on [0.5, 1.5]: the reserve CDF is 0 below 0.5, and
    the brackets move up there, so a value above 0.5 bids the argmax
    (n v + 0.5)/(n + 1) of (v - b)(b - 0.5)**n, and a value below it, which
    no bid lets win, ends at its value. With n = 1 the start line 0.5 v
    never wins, so the identity has no point to check it on; it was once
    returned after 0 steps as if it met ``tol``."""
    config = HybridAuctionConfig(n_integrated, 1, Uniform(0.5, 1.5), UNIT)
    sol = solve_fixed_point(config)
    v = sol.values
    target = np.where(v > 0.5, (n_integrated * v + 0.5) / (n_integrated + 1), v)
    assert np.max(np.abs(sol.bids - target)) <= 0.5 * sol.residual + 1e-15
    report = verify_best_response(sol)
    assert report.max_gain <= report.bound


# x = 0, 0.2, 0.5, 1, 2 / cdf 0, 0.1, 0.5, 0.9, 1: its log CDF is not concave, so
# (v - b) * F(b)**n can have two local maxima, at 0.75 v and 0.75 v + 0.03125
# for n = 3 and v in about (0.225, 0.267)
KINKED = EmpiricalGrid(np.array([0.0, 0.2, 0.5, 1.0, 2.0]),
                       np.array([0.0, 0.1, 0.5, 0.9, 1.0]))


@pytest.mark.parametrize("n_integrated, neutral, grid_size", [
    (3, KINKED, 512), (3, KINKED, 4096), (2, KINKED, 512), (1, KINKED, 512),
    (1, KINKED, 4096), (1, Beta(2, 2), 512)],
    ids=["3+1", "3+1 g4096", "2+1", "1+1", "1+1 g4096", "1+1 beta(2,2) neutral"])
def test_argmax_bids_the_global_best_against_an_empirical_reserve(
        n_integrated, neutral, grid_size):
    """At every grid value the solved bid earns the exact best payoff of
    (v - b) * F(b)**n up to 1e-6 (payoffs, not bids, as at a tie of two
    peaks both bids are best). Bracketing each value on [0, v] found a lower
    local maximum: 7e-6 short on 3+1, 5e-3 on 1+1."""
    config = HybridAuctionConfig(n_integrated, 1, KINKED, neutral)
    sol = solve_fixed_point(config, grid_size)
    v = sol.values
    got = (v - sol.bids) * config.reserve_cdf(sol.bids)
    assert np.max(empirical_best_payoff(KINKED, n_integrated, v) - got) <= 1e-6
    report = verify_best_response(sol)
    assert report.max_gain <= report.bound


@pytest.mark.parametrize("name", ["beta(0.5,5) 3+3 g4096", "lognormal 2+4",
                                  "lognormal 2+4 g8192"])
def test_hard_rows_converge_in_10_steps(name):
    """The damped reference takes 127, 56 and 203 sweeps here. Lognormal
    2+4's top cell takes the Jacobi image; Newton steps alone take 13 and
    18 steps there."""
    config, grid_size = SOLVER_MATRIX[name]
    sol = solve_fixed_point(config, grid_size)
    assert sol.iterations <= 10
    assert sol.residual <= sol.tol


@pytest.mark.parametrize("law", [Beta(0.7, 3), Beta(2, 2)])
def test_beta_three_by_three_converges_in_30_sweeps(law):
    """The damped iteration takes 88 and 59 sweeps here."""
    sol = solve_fixed_point(HybridAuctionConfig(3, 3, law, law))
    assert sol.iterations <= 30
    assert sol.residual <= sol.tol


@pytest.mark.parametrize("config", [LOGNORMAL_2_4,
                                    HybridAuctionConfig(2, 4, Uniform(0.5, 1.5), UNIT)],
                         ids=["lognormal 2+4", "uniform(0.5,1.5)/uniform 2+4"])
def test_newton_steps_stay_monotone_and_keep_the_line_below_the_floor(monkeypatch,
                                                                      config):
    """On lognormal 2+4 the top cell's diagonal is not negative in early
    steps, so that point takes the Jacobi image. Every schedule the identity
    sees is strictly increasing, in [0, v] and, where its G is at or below
    the floor (no bid below 0.5 beats a reserve from 0.5), on the start
    line."""
    seen = []

    def spy(problem, bids, *partial):
        seen.append((problem, bids.copy()))
        return defect(problem, bids, *partial)

    defect = pe._Problem.defect
    monkeypatch.setattr(pe._Problem, "defect", spy)
    sol = solve_fixed_point(config)
    assert sol.residual <= sol.tol
    assert len(seen) == sol.iterations + 1
    line = seen[0][1]
    for problem, bids in seen:
        assert np.all(np.diff(bids) > 0.0)
        assert np.all((bids >= 0.0) & (bids <= problem.values))
        floor = problem.rival * config.reserve_cdf(bids) <= pe._G_FLOOR
        assert floor[0] and np.array_equal(bids[floor], line[floor])


# ------------------------------ the grid's levels ------------------------------


def _same_bits(a, b) -> bool:
    """Whether two arrays hold the same float bits, or both are None."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _empirical(xs, cdfs) -> EmpiricalGrid:
    return EmpiricalGrid(np.append(0.0, np.sort(xs) / 1000),
                         np.concatenate(([0.0], np.sort(cdfs) / 1000, [1.0])))


# the four families over the census ranges, an empirical law of 3 to 6 nodes
LAWS = st.one_of(
    st.builds(lambda lo, w: Uniform(lo, lo + w), st.floats(0.0, 1.0), st.floats(0.1, 2.0)),
    st.builds(Beta, st.floats(0.3, 8.0), st.floats(0.3, 8.0)),
    st.builds(Lognormal, st.floats(-1.0, 1.0), st.floats(0.1, 1.5)),
    st.integers(3, 6).flatmap(lambda nodes: st.builds(
        _empirical,
        st.lists(st.integers(50, 2000), min_size=nodes - 1, max_size=nodes - 1, unique=True),
        st.lists(st.integers(1, 999), min_size=nodes - 2, max_size=nodes - 2, unique=True))))


@settings(max_examples=60, deadline=None)
@given(law=LAWS, grid=st.integers(64, 8192), n_neutral=st.integers(1, 5))
@example(law=Beta(0.7, 3), grid=8192, n_neutral=3)
@example(law=Beta(8, 0.3), grid=8192, n_neutral=3)  # 4.8e-8 from F(v)
@example(law=Beta(0.3, 0.3), grid=8192, n_neutral=5)
@example(law=LOGNORMAL, grid=8192, n_neutral=3)  # the grid stops at level _TOP_Q
@example(law=Lognormal(-27.7, 0.5), grid=8192, n_neutral=4)  # values near 1e-12
@example(law=Uniform(1.0, 1.0 + 1e-13), grid=8192, n_neutral=3)  # 451 distinct values
@example(law=_empirical([1020, 1156, 1255, 1821], [119, 211, 753]), grid=4096, n_neutral=2)
def test_rival_cdf_is_the_grids_levels(law, grid, n_neutral):
    """The grid's levels never fall along it and match the neutral CDF at
    its values within 32 * (f(v) * ulp(v) + ulp(q)), the rounding of the
    value, so the rival factor read off them is ``rival_cdf`` at the
    values up to that rounding, and with one neutral builder exactly 1."""
    config = HybridAuctionConfig(2, n_neutral, law, law)
    problem = pe._Problem(config, grid)
    values, levels = problem.values, problem.levels
    assert levels.size == values.size <= grid
    assert levels[0] == 0.0 and np.all(np.diff(levels) >= 0.0)
    top_q = 1.0 if np.isfinite(law.support[1]) else pe._TOP_Q
    assert values[-1] == law.quantile(top_q) and levels[-1] <= top_q
    cdf, pdf = law.cdf(values), law.pdf(values)
    rounding = 32.0 * (pdf * np.spacing(values) + np.spacing(levels))
    assert np.all(np.abs(levels - cdf) <= rounding)
    rival = config.rival_cdf(values)
    assert np.all(np.abs(problem.rival - rival) <= (n_neutral - 1) * rounding)
    if n_neutral == 1:
        assert _same_bits(problem.rival, rival)


def _list_march(alpha, beta, later, old, values, below) -> tuple:
    """:func:`pe._march` as a list filled in a loop, the form it replaced,
    and how many bids each clamp set: (at or below the predecessor, above
    the value)."""
    bids, change, clamps = [], 0.0, [0, 0]
    for a, b, w, o, v in zip(alpha.tolist(), beta.tolist(), later.tolist(),
                             old.tolist(), values.tolist()):
        bid = a + b * change
        if not bid > below:
            bid = 0.5 * (below + (o if o > below else v))
            clamps[0] += 1
        elif bid > v:
            bid = v
            clamps[1] += 1
        change += w * (bid - o)
        below = bid
        bids.append(bid)
    return np.array(bids), tuple(clamps)


def _march_args(seed: int, n: int, below: float) -> tuple:
    """Random march inputs whose steps are wide enough to reach both clamps."""
    rng = np.random.default_rng(seed)
    values = np.sort(rng.uniform(0.1, 1.0, n))
    old = values * np.sort(rng.uniform(0.2, 1.0, n))
    alpha = old + rng.normal(0.0, 0.3, n)
    return alpha, rng.normal(0.0, 2.0, n), rng.normal(0.0, 0.5, n), old, values, below


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 300),
       below=st.sampled_from([-math.inf, 0.0, 0.05]))
def test_march_matches_the_list_recurrence_bit_for_bit(seed, n, below):
    """The generator march returns the bits of the list recurrence."""
    args = _march_args(seed, n, below)
    got = pe._march(*args)
    assert got.dtype == np.float64 and _same_bits(got, _list_march(*args)[0])


@pytest.mark.parametrize("seed", range(5))
def test_march_inputs_reach_both_clamps(seed):
    """The random inputs of the bit-for-bit test reach both clamps, a bid at
    or below its predecessor and a bid above its value, and the two marches
    agree there too."""
    args = _march_args(seed, 300, -math.inf)
    want, (low, high) = _list_march(*args)
    assert low > 0 and high > 0
    assert _same_bits(pe._march(*args), want)


# ------------------------------- settled points --------------------------------


# a G that starts above the neutral bottom, a steep lower tail, a heavy tail and
# no reserve, at grid 256
PARTIAL_PROBLEMS = {name: pe._Problem(config, 256) for name, config in {
    "uniform(0.5,1.5)/uniform 2+4": HybridAuctionConfig(2, 4, Uniform(0.5, 1.5), UNIT),
    "beta(0.7,3) 3+3": HybridAuctionConfig(3, 3, Beta(0.7, 3), Beta(0.7, 3)),
    "lognormal 2+4": LOGNORMAL_2_4,
    "beta(2,2) 0+4": HybridAuctionConfig(0, 4, Beta(2, 2), Beta(2, 2)),
}.items()}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(list(PARTIAL_PROBLEMS)), seed=st.integers(0, 2 ** 32 - 1),
       cut=st.floats(0.0, 1.0))
def test_partial_defect_is_the_full_defect_bit_for_bit(name, seed, cut):
    """Evaluated from any start index, onto the G, int(G) and largest
    usable defect below it of random bids that agree there, the defect of
    random bids is what a full evaluation gives, bit for bit: every array
    from the start on, G and int(G) in full, and the residual."""
    problem = PARTIAL_PROBLEMS[name]
    v, rng = problem.values, np.random.default_rng(seed)
    n = v.size
    start = min(int(cut * (n + 1)), n)
    before = v * np.sort(rng.uniform(0.2, 1.0, n))
    bids = before.copy()
    bids[start:] = v[start:] * np.sort(rng.uniform(0.2, 1.0, n - start))
    mapped, usable, _, g, integral = problem.defect(before)[:5]
    below = np.abs(before - mapped)[:start][usable[:start]]
    kept = (g, integral, float(np.max(below, initial=-np.inf)))
    partial = problem.defect(bids, start, kept)
    full = problem.defect(bids)
    assert partial[2] == full[2]
    for k in (3, 4):  # G and int(G)
        assert _same_bits(partial[k], full[k])
    for k in (0, 1, 5, 6, 7):  # mapped, usable, the cell partials and the law's CDF
        assert _same_bits(partial[k], None if full[k] is None else full[k][start:])


@pytest.mark.parametrize("law, floor", [
    (Beta(0.7, 3), False), (Beta(2, 2), False), (LOGNORMAL, False), (Uniform(0.5, 1.5), True)],
    ids=["beta(0.7,3)", "beta(2,2)", "lognormal", "uniform(0.5,1.5)/uniform 2+4"])
def test_every_usable_point_marches_at_zero_tolerance(law, floor):
    """With tol = 0 no point settles: each of five steps marches from the
    first usable point of its start on, every point where G is above the
    floor at the start line. That is all but the support bottom, except
    where G starts below the floor, as below a reserve that starts at 0.5
    (205 of 512 points march there)."""
    config = HybridAuctionConfig(2, 4, law, UNIT) if floor else HybridAuctionConfig(3, 3, law, law)
    problem = pe._Problem(config, 512)
    steps = pe._newton_steps(problem, problem.line, 0.0)
    bids = next(steps)[0]
    for _, (after, _, (_, _, marched)) in zip(range(5), steps):
        usable = problem.defect(bids)[1]
        assert marched[-1] == usable.size - np.argmax(usable)
        bids = after
    free = np.count_nonzero(problem.defect(problem.line)[1])
    assert len(marched) == 5 and all(m == free for m in marched)
    assert (free == problem.values.size - 1) is not floor


# the solves of the benchmark's workloads: law, n_integrated, n_neutral, grid,
# steps and the SHA-256 of the schedule, both of the solve that keeps no
# settled points
BENCHMARK_SOLVES = [
    ("beta(2,2)", 3, 3, 512, 5,
     "aa976acb6fc9e224e8e259e132d0a63560cfa7908d4c57ab430fee44848fcdb9"),
    ("beta(2,2)", 8, 8, 512, 4,
     "09f981bc4d27cbe5d927da19dbec8d158bab4a9d443adecd1f85e2728e7810cf"),
    ("beta(2,2)", 3, 3, 4096, 2,
     "43f40aedae9479b450c72ad9b1506a46a2f1a2482cc9030855fa0d66990516b4"),
    ("lognormal(0,0.5)", 2, 4, 512, 7,
     "c742ff8aa2a60937c1d2d7c9f4c26b43cd5a395f2b8cfa9277252d15631fc9b0"),
    ("uniform(0,1)", 3, 3, 512, 0,
     "1f1c3ebd7818f40042808097ca8cab2e08654dd4e1084d91fb71ee5a952bb34f"),
    ("uniform(0,1)", 3, 1, 512, 0,
     "2c959878cf4627182aa1130ea7ef6784229e3f83b9a9608bf3995aae050d83a4"),
    ("beta(0.7,3)", 3, 3, 8192, 3,
     "991769bc2a93730cb4fa0e0d7c4c082e15e1b56a8d1e2cc97a869e7884b19693"),
    ("beta(0.7,3)", 3, 3, 512, 5,
     "4ae38d7ee38d0d58a452fce4560838e8631b61f28ea64bc6c2a17c08246c48ce"),
]


def _schedule_digest(sol) -> str:
    return hashlib.sha256(sol.bids.tobytes()).hexdigest()


@pytest.mark.parametrize("law, na, nb, grid, steps, digest", BENCHMARK_SOLVES,
                         ids=[f"{law} {na}+{nb} g{grid}"
                              for law, na, nb, grid, *_ in BENCHMARK_SOLVES])
def test_settled_points_keep_benchmark_steps_and_schedules(monkeypatch, law, na, nb,
                                                           grid, steps, digest):
    """Keeping settled points changes no benchmark solve's step count and
    moves its schedule by less than 1e-8 (4.2e-9 at most, on Beta(0.7,3)
    3+3 at grid 8192), and the schedule still certifies. The schedule before
    is the solve with nothing settled, ``_SETTLED`` = 0, whose digest is
    recorded above; argmax and 0-step solves do not move a bit. Reading the
    rival CDF off the grid's levels moved the recorded Newton schedules by
    at most 3.6e-15, and no step count."""
    dist = parse_distribution(law)
    config = HybridAuctionConfig(na, nb, dist, dist)
    sol = solve_fixed_point(config, grid)
    monkeypatch.setattr(pe, "_SETTLED", 0.0)
    before = solve_fixed_point(config, grid)
    assert _schedule_digest(before) == digest
    assert sol.iterations == before.iterations == steps
    assert np.max(np.abs(sol.bids - before.bids)) <= 1e-8
    if nb == 1 or steps == 0:
        assert _schedule_digest(sol) == digest
    report = verify_best_response(sol)
    assert sol.residual <= sol.tol and report.max_gain <= report.bound


@pytest.mark.parametrize("law, na, nb, grid", [row[:4] for row in BENCHMARK_SOLVES if row[2] > 1],
                         ids=[f"{law} {na}+{nb} g{grid}"
                              for law, na, nb, grid, *_ in BENCHMARK_SOLVES if nb > 1])
def test_every_marched_point_has_g_above_the_floor(marched_g, law, na, nb, grid):
    """G never falls along the grid, so a Newton step, which marches from a
    usable point, marches usable points only: on each benchmark solve, G at
    the bids every step starts from is above the floor wherever it marches."""
    dist = parse_distribution(law)
    sol = solve_fixed_point(HybridAuctionConfig(na, nb, dist, dist), grid)
    assert len(marched_g) >= sol.iterations
    assert all(np.all(g > pe._G_FLOOR) for g in marched_g)


# ------------------------------ nested iteration -------------------------------


NESTED_LAWS = {"beta(2,2)": Beta(2, 2), "beta(0.7,3)": Beta(0.7, 3),
               "beta(0.5,5)": Beta(0.5, 5), "lognormal": LOGNORMAL}


def _line_start_solve(config, grid_size):
    """The Newton solve on ``grid_size`` started from the start line."""
    problem = pe._Problem(config, grid_size)
    steps = pe._newton_steps(problem, problem.line, pe._TOL)
    for step, (bids, residual, known) in zip(range(pe._MAX_STEPS + 1), steps):
        if residual <= pe._TOL:
            return problem.finish(bids, residual, "newton", step, pe._TOL, (), *known)
    pytest.fail(f"no convergence from the start line at grid {grid_size}")


@pytest.mark.parametrize("grid", [1024, 4096, 8192])
@pytest.mark.parametrize("counts", [(3, 3), (2, 4)], ids=["3+3", "2+4"])
@pytest.mark.parametrize("law", list(NESTED_LAWS))
def test_fine_grid_starts_from_the_coarse_schedule(law, counts, grid):
    """A Newton solve on a grid finer than 512 starts from the grid-512
    schedule and records that solve as its ``start``. It meets ``tol`` and
    certifies, as the solve from the start line does, and the two
    schedules lie within 10 * tol times the value range of each other
    (8.1 times at most here, on Beta(0.5,5) 3+3 at grid 1024)."""
    config = HybridAuctionConfig(*counts, NESTED_LAWS[law], NESTED_LAWS[law])
    coarse = solve_fixed_point(config, 512)
    nested = solve_fixed_point(config, grid)
    line = _line_start_solve(config, grid)
    assert nested.start == {"grid_size": 512, "iterations": coarse.iterations,
                            "residual": coarse.residual}
    for sol in (nested, line):
        assert sol.residual <= sol.tol
        report = verify_best_response(sol)
        assert report.max_gain <= report.bound
    value_range = nested.values[-1] - nested.values[0]
    assert np.max(np.abs(nested.bids - line.bids)) <= 10 * pe._TOL * value_range


def test_fine_start_is_the_coarse_schedule(monkeypatch):
    """The grid-512 solve starts from its start line; the grid-8192 solve
    starts from the grid-512 schedule read at its values, all of them."""
    starts = []

    def spy(problem, bids, tol):
        starts.append((problem, bids))
        return newton_steps(problem, bids, tol)

    newton_steps = pe._newton_steps
    coarse = solve_fixed_point(LOGNORMAL_2_4, 512)
    monkeypatch.setattr(pe, "_newton_steps", spy)
    sol = solve_fixed_point(LOGNORMAL_2_4, 8192)
    (coarse_problem, coarse_start), (problem, start) = starts
    assert coarse_problem.values.size == 512 and coarse_start is coarse_problem.line
    assert problem.values.size == sol.values.size == 8192
    assert np.array_equal(start, coarse.bid_function(problem.values))


def test_fine_grid_falls_back_to_the_line_where_the_coarse_solve_fails(monkeypatch,
                                                                      deadline):
    """Census row 212 with a coarse grid of 64: the grid-64 solve stops at
    the step cap (ROADMAP item 4), so the grid-512 solve starts from the
    start line, takes the same steps bit for bit as a solve started there
    and certifies."""
    config = HybridAuctionConfig(1, 5, Lognormal(0.354, 0.142), Beta(1.169, 5.287))
    monkeypatch.setattr(pe, "_COARSE_GRID", 64)
    with pytest.raises(SolverError):
        solve_fixed_point(config, 64)
    sol = solve_fixed_point(config, 512)
    assert sol.start == "start line"
    line = _line_start_solve(config, 512)
    assert sol.bids.tobytes() == line.bids.tobytes()
    assert sol.iterations == line.iterations
    report = verify_best_response(sol)
    assert report.max_gain <= report.bound


def test_fine_grid_falls_back_to_the_line_where_the_coarse_grid_collapses():
    """A law with 98% of its mass between two adjacent doubles: its grid of
    32768 values keeps 659 distinct ones, but the grid-512 problem keeps
    fewer than 64 and raises ValueError, so the fine solve starts from its
    start line instead of failing."""
    law = EmpiricalGrid(np.array([0.0, 1.0, 1.0 + 4.5e-16, 2.0]),
                        np.array([0.0, 0.01, 0.99, 1.0]))
    config = HybridAuctionConfig(3, 3, law, law)
    with pytest.raises(ValueError, match="collapsed"):
        pe._Problem(config, 512)
    problem = pe._Problem(config, 32768)
    assert problem.values.size > 512
    bids, start = pe._coarse_start(problem, pe._TOL)
    assert bids is problem.line and start == "start line"


def test_metadata_reports_solver_path(uniform_3_3, uniform_3_1):
    """An exact start line takes 0 steps, reports no history and keeps the
    damped solution bit for bit, on either path."""
    for (config, exact), method in ((uniform_3_3, "newton"), (uniform_3_1, "argmax")):
        meta = exact.metadata()
        assert exact.iterations == 0
        assert meta["method"] == method and meta["residual_history"] == []
        assert meta["start"] == "start line"
        assert meta["marched"] == ([] if method == "newton" else None)
        assert exact.bids.tobytes() == damped_reference(config).bids.tobytes()

    for n_neutral, method in ((3, "newton"), (1, "argmax")):
        law = Beta(0.7, 3)
        sol = solve_fixed_point(HybridAuctionConfig(3, n_neutral, law, law))
        meta = sol.metadata()
        assert meta["method"] == method
        assert len(meta["residual_history"]) == sol.iterations > 0
        assert meta["residual_history"][-1] == sol.residual
        assert meta["start"] == "start line"
        if method == "newton":
            assert len(meta["marched"]) == sol.iterations
            assert all(0 < m <= sol.values.size for m in meta["marched"])
        else:
            assert meta["marched"] is None
        assert "restarts" not in meta

    config = HybridAuctionConfig(3, 3, Beta(0.7, 3), Beta(0.7, 3))
    coarse, fine = solve_fixed_point(config), solve_fixed_point(config, 1024).metadata()
    assert fine["start"] == {"grid_size": 512, "iterations": coarse.iterations,
                             "residual": coarse.residual}
    assert len(fine["residual_history"]) == fine["iterations"] > 0


def test_metadata_keeps_every_step_of_the_history(uniform_3_3):
    _, sol = uniform_3_3
    for n in (63, 64, 65, 200):
        history = dataclasses.replace(
            sol, residual_history=tuple(np.arange(n, dtype=float))).metadata()[
                "residual_history"]
        assert history == list(np.arange(n, dtype=float))


@pytest.mark.parametrize("n_neutral, method", [(3, "newton"), (1, "argmax")])
def test_non_convergence_raises_with_residual(monkeypatch, n_neutral, method):
    config = HybridAuctionConfig(3, n_neutral, Beta(2, 2), Beta(2, 2))
    monkeypatch.setattr(pe, "_MAX_STEPS", 2)
    with pytest.raises(SolverError, match=f"{method} solve did not reach tol=1e-12 "
                                          "after 2 steps") as err:
        solve_fixed_point(config, tol=1e-12)
    assert err.value.residual is not None and err.value.residual > 1e-12


@pytest.mark.parametrize("bad", [
    dict(grid_size=32),
    dict(tol=-1e-9),
    dict(tol=float("nan")),
    dict(tol=float("inf")),
])
def test_solver_argument_validation(bad):
    with pytest.raises(ValueError):
        solve_fixed_point(HybridAuctionConfig(1, 2, UNIT, UNIT), **bad)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_ode_rejects_unmeetable_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        solve_ode(HybridAuctionConfig(1, 2, UNIT, UNIT), tol=tol)


def test_config_validation():
    with pytest.raises(ValueError):
        HybridAuctionConfig(-1, 2, UNIT, UNIT)
    with pytest.raises(ValueError):
        HybridAuctionConfig(1, 0, UNIT, UNIT)
    with pytest.raises(ValueError):  # nobody to compete against
        HybridAuctionConfig(0, 1, UNIT, UNIT)


@pytest.mark.parametrize("n_integrated", [1, 3])
def test_single_neutral_rule_is_the_configs(n_integrated):
    """With one neutral builder, integrated values whose CDF at the neutral
    bottom is above 1e-9 are rejected at construction; with two, or within
    1e-9, they are not. The solver's grid machinery holds no such rule: a
    config that skips it gets a lower-tail exponent of 0."""
    neutral = Uniform(0.5, 1.5)
    with pytest.raises(ValueError, match="must not start below the neutral values"):
        HybridAuctionConfig(n_integrated, 1, UNIT, neutral)
    with pytest.raises(ValueError, match="must not start below the neutral values"):
        HybridAuctionConfig(n_integrated, 1, Uniform(0.5 - 2e-9, 1.5), neutral)
    HybridAuctionConfig(n_integrated, 1, Uniform(0.5 - 5e-10, 1.5), neutral)
    config = HybridAuctionConfig(n_integrated, 2, UNIT, neutral)
    object.__setattr__(config, "n_neutral", 1)
    assert pe._Problem(config, 512).tail_k == 0.0


# ---------------------------------- ODE oracle ---------------------------------


def test_ode_agrees_with_fixed_point_uniform(uniform_3_3, uniform_3_3_ode):
    _, fp = uniform_3_3
    assert np.max(np.abs(fp.bids - uniform_3_3_ode.bids)) < 2e-3


def test_ode_agrees_with_fixed_point_beta(beta_3_3, beta_3_3_ode):
    _, fp = beta_3_3
    assert np.max(np.abs(fp.bids - beta_3_3_ode.bids)) < 2e-3


def test_ode_two_bidder_benchmark():
    sol = solve_ode(HybridAuctionConfig(0, 2, UNIT, UNIT))
    assert np.max(np.abs(sol.bids - sol.values / 2)) < 1e-4


def test_ode_rejects_single_neutral():
    with pytest.raises(ValueError):
        solve_ode(HybridAuctionConfig(3, 1, UNIT, UNIT))


def test_ode_reports_singularity_where_density_vanishes(deadline):
    """Beta(0.7,3) values: the admissible region ends just below v = 1, where
    the value density vanishes; the ODE must stop there, not crawl."""
    skewed = Beta(0.7, 3)
    with pytest.raises(OdeSingularityError) as info:
        solve_ode(HybridAuctionConfig(3, 3, skewed, skewed))
    assert 0.999 < info.value.location < 1.0


def test_ode_reports_a_start_past_the_domain_edge(deadline):
    """Lognormal integrated values: the tail-exponent start line lies past the
    admissible edge, where the slope is negative and tiny; integrating from
    there would return a flat schedule instead of an error."""
    config = HybridAuctionConfig(2, 4, Lognormal(0.0, 0.5), Beta(2, 2))
    with pytest.raises(OdeSingularityError) as info:
        solve_ode(config)
    assert info.value.location < 0.01


def test_ode_solves_lognormal_without_warnings(deadline):
    """Trial stages below the support bottom divide 0 by 0; RK45 rejects
    them and no RuntimeWarning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_ode(LOGNORMAL_2_4)
    assert sol.iterations > 1_000


def test_ode_gives_up_after_evaluation_cap(monkeypatch, deadline):
    monkeypatch.setattr(ode_oracle, "_MAX_NFEV", 1_000)
    with pytest.raises(SolverError,
                       match="gave up after 1000 right-hand-side evaluations"):
        solve_ode(LOGNORMAL_2_4)


@pytest.mark.parametrize("counts", [(3, 3), (1, 2), (2, 4)])
def test_uniform_solution_satisfies_displayed_ode_form(counts):
    """For uniform values the schedule solves
    sigma' * v * ((na+1)sigma - na*v) = (nb-1) * sigma * (v - sigma)."""
    n_int, n_neu = counts
    sol = solve_ode(HybridAuctionConfig(n_int, n_neu, UNIT, UNIT))
    v, b = sol.values, sol.bids
    slope = np.gradient(b, v)
    inner = slice(2, -2)
    lhs = slope[inner] * v[inner] * ((n_int + 1) * b[inner] - n_int * v[inner])
    rhs = (n_neu - 1) * b[inner] * (v[inner] - b[inner])
    assert np.max(np.abs(lhs - rhs)) < 1e-6


# ------------------------------- verifications ---------------------------------


def test_winning_probability_values(uniform_3_1):
    _, sol = uniform_3_1
    assert winning_probability(sol, 1.0) == pytest.approx(0.75 ** 3, abs=1e-3)
    assert winning_probability(sol, 0.0) == pytest.approx(0.0, abs=1e-12)
    two = solve_fixed_point(HybridAuctionConfig(0, 2, UNIT, UNIT))
    assert winning_probability(two, 0.5) == pytest.approx(0.5, abs=1e-3)


def test_envelope_residual_closed_form(uniform_3_1):
    _, sol = uniform_3_1
    assert envelope_defect(sol) < 1e-6


def test_envelope_residual_all_solutions(uniform_3_3, beta_3_3):
    for _, sol in (uniform_3_3, beta_3_3):
        assert envelope_defect(sol) < 10 * max(sol.tol, 1e-6)


def test_envelope_detects_perturbed_schedule(uniform_3_1):
    config, sol = uniform_3_1
    bumped = np.minimum(sol.bids + 0.05, sol.values)
    from pbslab.private_equilibrium import _strictly_increasing
    bf = BidFunction(sol.values, _strictly_increasing(bumped))
    x = config.rival_cdf(sol.values) * config.reserve_cdf(bf.bids)
    fake = EquilibriumSolution(config=config, bid_function=bf, win_prob=x,
                               surplus=sol.surplus, residual=0.0,
                               method="perturbed", iterations=0, tol=sol.tol)
    assert envelope_defect(fake) > 1e-2


def _strictly_increasing_loop(b):
    """The loop that ``_strictly_increasing`` vectorizes, as its reference."""
    out = b.copy()
    for i in range(1, out.size):
        if out[i] <= out[i - 1]:
            out[i] = np.nextafter(out[i - 1], np.inf)
    return out


@given(runs=st.lists(st.tuples(
           st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0]),
                     st.floats(0.0, 2.0)),
           st.integers(1, 6)), min_size=1, max_size=20),
       ascending=st.booleans())
@settings(max_examples=200, deadline=None)
def test_strictly_increasing_matches_reference_loop(runs, ascending):
    """Bit-for-bit equal to the loop on nonnegative input with runs of exact
    ties, signed zeros and subnormals, sorted or not."""
    from pbslab.private_equilibrium import _strictly_increasing
    values, repeats = zip(*runs)
    b = np.repeat(np.array(values), repeats)
    if ascending:
        b = np.sort(b, kind="stable")
    got = _strictly_increasing(b)
    assert got.tobytes() == _strictly_increasing_loop(b).tobytes()
    assert np.all(np.diff(got) > 0.0)


def test_best_response_closed_form_case(uniform_3_1):
    _, sol = uniform_3_1
    assert verify_best_response(sol).gains.max() <= 1e-6


def test_best_response_three_by_three(uniform_3_3):
    _, sol = uniform_3_3
    report = verify_best_response(sol)
    assert report.gains.max() <= 1e-3
    # a zero-value bidder cannot profit from any bid
    gains_at_zero = report.gains[0]
    assert gains_at_zero <= 1e-12


def test_best_response_beta(beta_3_3):
    _, sol = beta_3_3
    assert verify_best_response(sol).gains.max() <= 1e-3


# the configs the certificate's bound was set on, each at grids 64 to 4096
CERTIFICATE_MATRIX = {
    "beta(2,2) 3+3": (3, 3, Beta(2, 2), Beta(2, 2)),
    "beta(2,2) 8+8": (8, 8, Beta(2, 2), Beta(2, 2)),
    "lognormal 2+4": (2, 4, LOGNORMAL, LOGNORMAL),
    "uniform 3+3": (3, 3, UNIT, UNIT),
    "uniform 3+1": (3, 1, UNIT, UNIT),
    "uniform 1+2": (1, 2, UNIT, UNIT),
    "uniform 0+3": (0, 3, UNIT, UNIT),
    "beta(0.7,3) 3+3": (3, 3, Beta(0.7, 3), Beta(0.7, 3)),
    "beta(0.5,5) 3+3": (3, 3, Beta(0.5, 5), Beta(0.5, 5)),
    "uniform/beta(2,5) 3+2": (3, 2, UNIT, Beta(2, 5)),
    "beta(5,2)/beta(2,2) 2+4": (2, 4, Beta(5, 2), Beta(2, 2)),
    "lognormal 1+1": (1, 1, LOGNORMAL, LOGNORMAL),
    "lognormal 2+1": (2, 1, LOGNORMAL, LOGNORMAL),
}
CERTIFICATE_CASES = [(name, grid) for name in CERTIFICATE_MATRIX
                     for grid in (64, 128, 256, 512, 4096)]
# the grids where the bound is meant to catch a 2% mis-shading
SHADED_CASES = [(name, grid) for name, grid in CERTIFICATE_CASES if grid >= 512]


@pytest.fixture(scope="module")
def certificate_solutions():
    return {(name, grid): solve_fixed_point(
                HybridAuctionConfig(*CERTIFICATE_MATRIX[name]), grid)
            for name, grid in CERTIFICATE_CASES}


@pytest.mark.parametrize("name, grid", CERTIFICATE_CASES)
def test_certificate_passes_solved_schedules_with_headroom(certificate_solutions,
                                                           name, grid):
    sol = certificate_solutions[(name, grid)]
    report = verify_best_response(sol)
    n, value_range = sol.values.size, sol.values[-1] - sol.values[0]
    assert report.bound == pytest.approx(value_range * max(1e-5, 10.0 / n**2))
    assert 3.0 * report.max_gain <= report.bound
    assert report.at_value < sol.values[-1]
    assert report.gains.size == sol.values.size


@pytest.mark.parametrize("name, grid", SHADED_CASES)
def test_certificate_fails_schedules_shaded_2_percent_more(certificate_solutions,
                                                           mis_shade, name, grid):
    sol = certificate_solutions[(name, grid)]
    report = verify_best_response(mis_shade(sol))
    assert report.max_gain > report.bound


# x = 0, 0.1, 0.3, 0.35, 0.8, 2 / cdf 0, 0.05, 0.4, 0.5, 0.9, 1: a density that
# jumps at every node, around which solved schedules misbid on a short range
# of values
EMPIRICAL_E = EmpiricalGrid(np.array([0.0, 0.1, 0.3, 0.35, 0.8, 2.0]),
                            np.array([0.0, 0.05, 0.4, 0.5, 0.9, 1.0]))


@pytest.mark.parametrize("law, grid", [(EMPIRICAL_E, 512), (Beta(2, 2), 4096)],
                         ids=["E 3+3 g512", "beta(2,2) 3+3 g4096"])
def test_certificate_gates_every_grid_value_below_the_top_tail(law, grid):
    """``max_gain`` is the largest brute-force gain over grid values 0 to
    k * ((n - 2) // k), k = ceil((n - 1) / 64): 504 at grid 512, 4032 at
    4096. On E the largest, 6.2 times the bound at index 474, lies on a
    short range of misbidding values: over every 8th value the largest gain
    is 0.55 times the bound."""
    sol = solve_fixed_point(HybridAuctionConfig(3, 3, law, law), grid)
    report = verify_best_response(sol)
    n = sol.values.size
    k = -(-(n - 1) // 64)
    gains = brute_gains(sol)[:k * ((n - 2) // k) + 1]
    assert report.max_gain == gains.max()
    assert report.at_value == sol.values[np.argmax(gains)]


# ------------------------------ best-bid kernel --------------------------------


@given(values=st.lists(st.integers(0, 40), min_size=1, max_size=30, unique=True),
       bids=st.lists(st.integers(0, 40), min_size=1, max_size=30, unique=True),
       steps=st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=30, max_size=30))
@settings(max_examples=300, deadline=None)
def test_best_bids_matches_brute_force_on_ties_and_flat_runs(values, bids, steps):
    """Eighths for values and bids and quarters for a win probability with
    runs of zeros and flat runs keep every payoff exact, so exact ties are
    common; the kernel returns the first best bid, as ``np.argmax`` does."""
    values = np.sort(np.array(values, dtype=float)) / 8
    bids = np.sort(np.array(bids, dtype=float)) / 8
    win = np.cumsum(steps[:bids.size], dtype=float) / 4
    assert np.array_equal(pe._best_bids(values, bids, win),
                          brute_best_bids(values, bids, win))


@pytest.mark.parametrize("grid", [64, 512, 4096])
@pytest.mark.parametrize("law", [Beta(2, 2), Beta(0.5, 0.5), LOGNORMAL, KINKED, EMPIRICAL_E],
                         ids=["beta(2,2)", "beta(0.5,0.5)", "lognormal", "K", "E"])
def test_best_bids_matches_brute_force_on_solver_arrays(monkeypatch, law, grid):
    """The arrays of the argmax bracket start (3+1) and of the certificate
    (3+1 and 2+4), index for index."""
    calls = []

    def spy(values, bids, win):
        calls.append((values, bids, win))
        return best_bids(values, bids, win)

    best_bids = pe._best_bids
    monkeypatch.setattr(pe, "_best_bids", spy)
    for n_integrated, n_neutral in [(3, 1), (2, 4)]:
        config = HybridAuctionConfig(n_integrated, n_neutral, law, law)
        verify_best_response(solve_fixed_point(config, grid))
    assert len(calls) == 3
    for values, bids, win in calls:
        assert np.array_equal(best_bids(values, bids, win),
                              brute_best_bids(values, bids, win))


def test_surplus_below_truthful_counterfactual(uniform_3_3, beta_3_3):
    """Shading costs surplus relative to bidding one's value under the same
    win-probability schedule."""
    for config, sol in (uniform_3_3, beta_3_3):
        v = sol.values
        truthful_x = np.asarray(config.rival_cdf(v), dtype=float) * \
            np.asarray(config.reserve_cdf(v), dtype=float)
        counterfactual = np.concatenate(
            [[0.0], np.cumsum(0.5 * (truthful_x[1:] + truthful_x[:-1]) * np.diff(v))])
        assert np.all(sol.surplus <= counterfactual + 1e-9)


def test_integrated_class_advantage_quadrature(uniform_3_1):
    """Independent oracle: with the closed-form schedule, the integrated side
    wins 1 - integral of (0.75 v)^3."""
    _, sol = uniform_3_1
    neutral_rate = quad(lambda v: (0.75 * v) ** 3, 0, 1)[0]
    q = sol.values  # uniform: value equals its own CDF level
    mc_free_rate = np.trapezoid(sol.win_prob, q)
    assert mc_free_rate == pytest.approx(neutral_rate, abs=1e-6)


# ------------------------------- serialization ---------------------------------


def test_solution_table_and_metadata(uniform_3_1):
    _, sol = uniform_3_1
    table = sol.table()
    assert list(table) == ["v", "sigma", "x", "S"]
    assert all(arr.shape == sol.values.shape for arr in table.values())
    meta = sol.metadata()
    assert meta["method"] == "argmax"
    assert meta["residual"] <= meta["tol"]


def test_bid_function_validation():
    with pytest.raises(ValueError):
        BidFunction(np.array([0.0, 1.0]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        BidFunction(np.array([0.0, 1.0]), np.array([0.1, 1.2]))
    bf = BidFunction(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    assert bf(0.5) == pytest.approx(0.25)
    assert bf.inverse(0.25) == pytest.approx(0.5)


# ----------------------------- bid-schedule lookup -----------------------------


_SKEWED = EmpiricalGrid(np.array([0.0, 0.1, 0.15, 0.6, 1.0]),
                        np.array([0.0, 0.4, 0.7, 0.9, 1.0]))

# (n_integrated, n_neutral, law of both classes, grid size)
_SCHEDULES = {
    "uniform-3+1-64": (3, 1, UNIT, 64),
    "uniform-3+3-8192": (3, 3, UNIT, 8192),
    "beta(2,2)-3+3-512": (3, 3, Beta(2, 2), 512),
    "beta(0.7,3)-3+3-8192": (3, 3, Beta(0.7, 3), 8192),
    "lognormal-2+4-512": (2, 4, LOGNORMAL, 512),
    "lognormal-3+3-8192": (3, 3, LOGNORMAL, 8192),
    "empirical-2+2-1024": (2, 2, _SKEWED, 1024),
    # a range of 450 ulps: np.unique keeps 451 of the 1024 grid values
    "collapsed-3+3-1024": (3, 3, Uniform(1.0, 1.0 + 1e-13), 1024),
    # thousands of grid values crowd the first buckets
    "crowded-3+3-8192": (3, 3, Beta(0.002, 1.0), 8192),
}


@pytest.fixture(scope="module", params=list(_SCHEDULES), ids=list(_SCHEDULES))
def schedule(request):
    n_int, n_neu, law, grid = _SCHEDULES[request.param]
    solution = solve_fixed_point(HybridAuctionConfig(n_int, n_neu, law, law), grid)
    return law, solution.bid_function


def test_schedule_cases_exercise_the_lookup(schedule):
    """Each case goes through the bucket table, not the np.interp fallback."""
    assert schedule[1]._table is not None


def test_collapsed_case_lost_grid_values():
    n_int, n_neu, law, grid = _SCHEDULES["collapsed-3+3-1024"]
    solution = solve_fixed_point(HybridAuctionConfig(n_int, n_neu, law, law), grid)
    assert solution.values.size == 451


def test_bid_lookup_matches_interp_at_knots_and_ends(schedule):
    """Every grid value, its neighbours one ulp away, values beyond both ends,
    infinities, NaN and signed zeros, in grid order and shuffled."""
    _, bf = schedule
    v = bf.values
    probes = np.concatenate([
        v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf),
        [v[0] - 1.0, -np.inf, np.inf, 2.0 * v[-1] + 1.0, np.nan, -0.0, 0.0]])
    for x in (probes, np.random.default_rng(3).permutation(probes)):
        assert _same_bits(bf(x), np.interp(x, v, bf.bids))


def test_bid_lookup_matches_interp_on_random_draws(schedule):
    """2**17 draws per schedule from its law and from a range reaching past
    both grid ends, called as 8,192-value blocks and as one 2-d array."""
    law, bf = schedule
    v = bf.values
    rng = np.random.default_rng(17)
    pad = 0.01 * (v[-1] - v[0])
    x = np.concatenate([np.asarray(law.quantile(rng.random(2 ** 16)), dtype=float),
                        rng.uniform(v[0] - pad, v[-1] + pad, 2 ** 16)])
    rng.shuffle(x)
    want = np.interp(x, v, bf.bids)
    blocks = np.concatenate([bf(block) for block in np.split(x, 16)])
    assert _same_bits(blocks, want)
    assert _same_bits(bf(x.reshape(16, -1)), want.reshape(16, -1))


def test_cell_lookup_is_the_binary_search_cell(schedule):
    _, bf = schedule
    v = bf.values
    lookup, _ = bf._table
    x = np.concatenate([v, np.nextafter(v[1:], -np.inf), np.nextafter(v[:-1], np.inf),
                        np.random.default_rng(5).uniform(v[0], v[-1], 50_000)])
    assert np.array_equal(lookup.cells(x), np.searchsorted(v, x, "right") - 1)


def test_bid_lookup_keeps_interp_types(beta_3_3):
    """Scalars and 0-d arrays go through np.interp, lists and arrays of any
    size through the lookup; the return type and bits are np.interp's for
    every kind of input."""
    bf = beta_3_3[1].bid_function
    inputs = [0.5, np.float64(0.25), np.array(0.75), np.nan, [0.2, 0.5],
              np.linspace(-1.0, 2.0, 1000).tolist(), np.array([]),
              np.arange(300), np.linspace(0.0, 1.0, 600).reshape(20, 30)]
    for x in inputs:
        got, want = bf(x), np.interp(x, bf.values, bf.bids)
        assert type(got) is type(want)
        assert _same_bits(got, want)


def test_bid_lookup_steps_aside_where_its_arithmetic_differs():
    """A bid of -0.0, which ``slope * 0.0 + bid`` would turn into +0.0, a
    slope that overflows and an infinite top value, whose bucket scale is
    zero, leave the schedule to np.interp."""
    v = np.linspace(0.0, 1.0, 300)
    signed_zero = BidFunction(v, np.concatenate([[-0.0], 0.5 * v[1:]]))
    steep = BidFunction(np.concatenate([[0.0, 5e-324], v[1:]]),
                        np.concatenate([[0.0, 1e-13], 0.5 * v[1:]]))
    infinite_top = BidFunction(np.append(v[:-1], np.inf), 0.5 * v)
    for bf in (signed_zero, steep, infinite_top):
        assert bf._table is None
        x = np.tile(bf.values, 2)
        assert _same_bits(bf(x), np.interp(x, bf.values, bf.bids))


# ---------------------------- no integrated builders ----------------------------


NO_RESERVE_LAWS = {name: parse_distribution(name) for name in (
    "uniform(0,1)", "uniform(0.5,1.5)", "beta(2,2)", "beta(0.7,3)", "beta(0.5,5)",
    "beta(5,2)", "lognormal(0,0.5)", "lognormal(0,1)", "lognormal(0,1.4)")}
NO_RESERVE_LAWS.update(K=KINKED, E=EMPIRICAL_E)


@pytest.mark.parametrize("n_neutral", [2, 3, 5])
@pytest.mark.parametrize("law", list(NO_RESERVE_LAWS))
def test_no_reserve_matches_the_first_price_closed_form(deadline, law, n_neutral):
    """With no integrated builders the auction is a symmetric first-price
    auction, whose schedule is v - int_lo^v F(t)**(n-1) dt / F(v)**(n-1)
    (Krishna, *Auction Theory*, ch. 2). At grid 4096 the bids at the grid
    values nearest q = 0.1, 0.5 and 0.9 lie within 2e-5 of it by quadrature
    (1.0e-5 at most, on lognormal(0,0.5) 0+2 at q = 0.1). G does not depend
    on the bids, so one Newton step meets ``tol``."""
    dist = NO_RESERVE_LAWS[law]
    sol = solve_fixed_point(HybridAuctionConfig(0, n_neutral, dist, dist), 4096)
    lo, nodes = sol.values[0], getattr(dist, "points", np.empty(0))

    def rival(t):
        return float(dist.cdf(t)) ** (n_neutral - 1)

    for q in (0.1, 0.5, 0.9):
        i = int(np.searchsorted(sol.values, dist.quantile(q)))
        v = float(sol.values[i])
        kinks = nodes[(nodes > lo) & (nodes < v)].tolist() or None
        area = quad(rival, lo, v, points=kinks, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        assert abs(sol.bids[i] - (v - area / rival(v))) <= 2e-5
    assert sol.iterations <= 1


# ----------------------------- property-based sweep ----------------------------


@given(n_int=st.integers(0, 4), n_neu=st.integers(1, 4),
       dist=st.sampled_from([UNIT, Beta(2, 2), LOGNORMAL]))
@settings(max_examples=25, deadline=None)
def test_solver_invariants_property(n_int, n_neu, dist):
    if n_int == 0 and n_neu == 1:
        return
    config = HybridAuctionConfig(n_int, n_neu, dist, dist)
    sol = solve_fixed_point(config, grid_size=128, tol=1e-5)
    assert np.all(np.diff(sol.bids) > 0)
    assert np.all(sol.bids <= sol.values + 1e-12)
    assert np.all(sol.bids >= -1e-12)
    assert sol.residual <= 1e-5
