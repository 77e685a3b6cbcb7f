"""Monte Carlo engine: stream determinism, payment rules, statistical agreement."""

import csv

import numpy as np
import pytest

from pbslab import (Beta, CandlestickConfig, EmpiricalGrid, HybridAuctionConfig,
                    Lognormal, PriceProcess, ReplicationRng, Uniform,
                    simulate_candlestick, simulate_hybrid, solve_candlestick,
                    solve_fixed_point, sweep)
from pbslab import simulator
from pbslab.cli import main
from pbslab.simulator import (_candlestick_block, _hybrid_block,
                              _hybrid_full_rows, _replications, pick_winners,
                              sweep_header)

UNIT = Uniform(0.0, 1.0)


def _outcomes(seed, reps, width, block_fn):
    """Per-replication outcome arrays, read from the simulator's block runner."""
    parts = list(_replications(seed, reps, width, block_fn))
    return {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}


def _hybrid_outcomes(config, sol, reps, seed):
    width = config.n_integrated + config.n_neutral + 1  # values + tie-break
    return _outcomes(seed, reps, width, lambda u: _hybrid_block(config, sol, u))


def _candlestick_outcomes(config, sol, n_slow, reps, seed):
    return _outcomes(seed, reps, 3,
                     lambda u: _candlestick_block(config, sol, n_slow, u))


# ------------------------------- random streams --------------------------------


def test_block_streams_are_independent_of_total():
    rng = ReplicationRng(7)
    a = rng.block_stream(3).random((10, 4))
    b = rng.block_stream(3).random((25, 4))
    assert np.array_equal(a, b[:10])


def test_seed_validation():
    with pytest.raises(ValueError):
        ReplicationRng(-1)
    with pytest.raises(ValueError):
        ReplicationRng(2 ** 64)


@pytest.mark.parametrize("model", ["hybrid", "candlestick"])
def test_outcome_prefix_stability(model, uniform_3_1, candlestick_half):
    if model == "hybrid":
        def outcomes(reps):
            return _hybrid_outcomes(*uniform_3_1, reps, seed=11)
    else:
        def outcomes(reps):
            return _candlestick_outcomes(*candlestick_half, 2, reps, seed=11)
    short, long = outcomes(10_000), outcomes(30_000)
    for key in short:
        assert np.array_equal(short[key], long[key][:10_000])


def test_reports_are_bit_identical(uniform_3_1):
    config, sol = uniform_3_1
    r1 = simulate_hybrid(config, sol, 50_000, seed=3)
    r2 = simulate_hybrid(config, sol, 50_000, seed=3)
    assert r1.to_dict() == r2.to_dict()


# ----------------------------- hybrid payment rules ----------------------------


def test_integrated_winner_pays_next_highest(uniform_3_1):
    """Integrated bids (0.9, 0.5, 0.2) against a neutral bid of 0.6."""
    config, sol = uniform_3_1
    # uniform values: quantiles are identities; sigma(0.8) = 0.6 exactly
    u = np.array([[0.9, 0.5, 0.2, 0.8, 0.123]])
    out = _hybrid_block(config, sol, u)
    assert bool(out["integrated_won"][0]) is True
    assert out["payment"][0] == pytest.approx(0.6, abs=1e-9)
    assert out["winner_value"][0] == pytest.approx(0.9)
    assert out["surplus"][0] == pytest.approx(0.3, abs=1e-9)


def test_neutral_winner_pays_own_bid():
    config = HybridAuctionConfig(1, 1, UNIT, UNIT)
    sol = solve_fixed_point(config)  # sigma(v) = v/2
    u = np.array([[0.3, 0.8, 0.99]])
    out = _hybrid_block(config, sol, u)
    assert bool(out["integrated_won"][0]) is False
    assert out["payment"][0] == pytest.approx(0.4, abs=1e-9)
    assert out["surplus"][0] == pytest.approx(0.4, abs=1e-9)


def test_run_once_returns_outcome(uniform_3_1):
    """One replication through a one-row block: one winner among the four
    bidders, the only one holding surplus, and revenue is its payment."""
    config, sol = uniform_3_1
    out = _hybrid_block(config, sol, np.random.default_rng(0).random((1, 5)))
    winner = int(out["winner"][0])
    assert bool(out["integrated_won"][0]) == (winner < config.n_integrated)
    assert out["surplus"][0] == out["winner_value"][0] - out["payment"][0]
    assert out["surplus"].shape == (1,)
    assert 0 <= winner < 4
    report = simulate_hybrid(config, sol, 10_000, seed=0)
    payment = _hybrid_outcomes(config, sol, 10_000, seed=0)["payment"]
    assert report.stats["revenue"].mean == pytest.approx(payment.mean(), rel=1e-12)


def test_tie_break_is_uniform():
    bids = np.full((40_000, 4), 0.5)
    tie_u = np.random.default_rng(8).random(40_000)
    winners = pick_winners(bids, tie_u)
    counts = np.bincount(winners, minlength=4)
    # multinomial(1/4): 4-sigma band around 10_000
    assert np.all(np.abs(counts - 10_000) < 4 * np.sqrt(40_000 * 0.25 * 0.75))


def test_accounting_identity(uniform_3_3):
    config, sol = uniform_3_3
    out = _hybrid_outcomes(config, sol, 10_000, seed=21)
    assert np.allclose(out["payment"] + out["surplus"], out["winner_value"],
                       atol=1e-12)
    # integrated winners never pay more than they bid
    integrated = out["integrated_won"]
    assert np.all(out["payment"][integrated] <= out["winning_bid"][integrated] + 1e-12)
    assert np.allclose(out["payment"][~integrated], out["winning_bid"][~integrated])


# ----------------------- hybrid kernel against the full row --------------------

KERNEL_LAWS = {
    "uniform": UNIT,
    "beta": Beta(5.0, 0.5),  # saturates at 1.0 for uniforms within 2**-50 of 1
    "lognormal": Lognormal(0.0, 0.5),
    "empirical": EmpiricalGrid(np.array([0.0, 0.2, 0.5, 1.0, 2.0]),
                               np.array([0.0, 0.1, 0.5, 0.9, 1.0])),
}
KERNEL_SHAPES = [(0, 3), (1, 1), (3, 1), (3, 3), (8, 8)]


def _kernel_case(n_int, n_neu, fa, fb):
    """A config and a coarse solution: the kernel reads only the bid schedule."""
    config = HybridAuctionConfig(n_int, n_neu, fa, fb)
    return config, solve_fixed_point(config, grid_size=128, tol=1e-4)


def _edge_blocks(width, rng, m=256):
    """Blocks of uniforms whose rows tie or nearly tie; the last column is the
    tie-break uniform."""
    base = rng.random((m, 1))
    blocks = {
        "random": rng.random((m, width)),
        "equal": np.repeat(base, width, axis=1),
        # 0 to 2 representable doubles above a common base
        "adjacent": (base.view(np.int64) + rng.integers(0, 3, (m, width))).view(float),
        # past the bid grid's top, where np.interp clamps and bids tie
        "saturated": 1.0 - rng.integers(1, 4, (m, width)) * 2.0 ** -53,
    }
    for u in blocks.values():
        u[:, -1] = rng.random(m)
    return blocks


def _nondecreasing_rows(config, sol, u):
    """Rows whose computed values, and neutral bids, do not decrease as the
    uniforms of a class rise: the kernel's assumption. scipy's betaincinv
    breaks it at the last bit for about 1.5% of adjacent doubles."""
    n_int, n_neu = config.n_integrated, config.n_neutral
    ok = np.ones(len(u), dtype=bool)
    for law, cols, maps in ((config.integrated_values, u[:, :n_int], []),
                            (config.neutral_values, u[:, n_int:n_int + n_neu],
                             [sol.bid_function])):
        x = np.asarray(law.quantile(np.sort(cols, axis=1)), dtype=float)
        for xs in [x] + [f(x) for f in maps]:
            ok &= np.all(np.diff(xs, axis=1) >= 0.0, axis=1)
    return ok


def _assert_kernel_matches(config, sol, u, monkeypatch):
    """On every row where the quantiles do not decrease, the kernel's outputs
    equal the full row's bit for bit. Returns the number of rows the kernel
    sent to the full row (the only caller of pick_winners)."""
    expected = _hybrid_full_rows(config, sol, u)
    fallback_rows = []

    def recording(bids, tie_u):
        fallback_rows.append(len(bids))
        return pick_winners(bids, tie_u)

    monkeypatch.setattr(simulator, "pick_winners", recording)
    got = _hybrid_block(config, sol, u)
    monkeypatch.undo()
    rows = _nondecreasing_rows(config, sol, u)
    assert rows.mean() > 0.9
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key].dtype == expected[key].dtype, key
        assert np.array_equal(got[key][rows], expected[key][rows]), key
    return sum(fallback_rows)


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: "%d+%d" % s)
@pytest.mark.parametrize("law", KERNEL_LAWS)
def test_kernel_equals_full_rows_on_ties(law, shape, monkeypatch):
    n_int, n_neu = shape
    fb = KERNEL_LAWS[law]
    config, sol = _kernel_case(n_int, n_neu, fb, fb)
    rng = np.random.default_rng(sum(shape))
    for name, u in _edge_blocks(n_int + n_neu + 1, rng).items():
        fallback = _assert_kernel_matches(config, sol, u, monkeypatch)
        if name == "random":
            assert fallback == 0
        elif name == "equal" and n_int + n_neu > 2:  # a tie in the winning class
            assert fallback == len(u)

    if n_int:
        # an exact cross-class tie: a uniform(0,16) value is 16 times its
        # uniform, exactly, and 16 lies above every bid here
        config, sol = _kernel_case(n_int, n_neu, Uniform(0.0, 16.0), fb)
        u = rng.random((256, n_int + n_neu + 1))
        top_bid = sol.bid_function(fb.quantile(u[:, n_int:n_int + n_neu].max(axis=1)))
        u[:, :n_int] *= top_bid[:, None] / 16.0
        u[:, 0] = top_bid / 16.0
        assert _assert_kernel_matches(config, sol, u, monkeypatch) == len(u)


class _CountingLaw:
    """A value law that counts the values passed to its ``quantile``."""

    def __init__(self, law):
        self.law, self.values = law, 0

    def quantile(self, q):
        self.values += np.size(q)
        return self.law.quantile(q)

    def __getattr__(self, name):
        return getattr(self.law, name)


@pytest.mark.parametrize("n", [3, 8])
def test_kernel_draws_at_most_three_quantiles_per_replication(n):
    law = _CountingLaw(Beta(2, 2))
    config = HybridAuctionConfig(n, n, law, law)
    sol = solve_fixed_point(HybridAuctionConfig(n, n, law.law, law.law))
    _hybrid_outcomes(config, sol, 20_000, seed=4)
    assert law.values <= 3 * 20_000


# --------------------------- statistical verification --------------------------


def test_hybrid_agreement_closed_form(uniform_3_1):
    config, sol = uniform_3_1
    report = simulate_hybrid(config, sol, 200_000, seed=42)
    assert report.agreement_ok
    assert report.analytic["surplus_neutral_per_bidder"] == \
        pytest.approx(27 / 1280, abs=1e-6)
    assert report.analytic["win_rate_integrated"] == \
        pytest.approx(1 - 27 / 256, abs=1e-6)
    rates = report.stats["win_rate_integrated"].mean + \
        report.stats["win_rate_neutral"].mean
    assert rates == pytest.approx(1.0, abs=1e-12)


def test_hybrid_agreement_beta(beta_3_3):
    config, sol = beta_3_3
    assert simulate_hybrid(config, sol, 100_000, seed=5).agreement_ok


def test_error_shrinks_like_sqrt_reps(uniform_3_1):
    config, sol = uniform_3_1
    widths = [simulate_hybrid(config, sol, n, seed=9)
              .stats["surplus_neutral_per_bidder"].half_width
              for n in (10_000, 100_000, 1_000_000)]
    for a, b in zip(widths, widths[1:]):
        assert 2.5 < a / b < 4.0  # about sqrt(10) per decade


def test_candlestick_agreement(candlestick_half):
    config, sol = candlestick_half
    report = simulate_candlestick(config, sol, 2, 200_000, seed=42)
    assert report.agreement_ok
    slow = report.stats["slow_profit"]
    assert abs(slow.mean) <= 3 * slow.half_width  # zero-profit straddle
    assert report.stats["revenue"].mean == pytest.approx(sol.b0s)
    assert report.stats["revenue"].half_width < 1e-12


def test_candlestick_no_revision_is_exact():
    config = CandlestickConfig(PriceProcess(1.0, 0.2, 1.0), 0.0)
    sol = solve_candlestick(config)
    report = simulate_candlestick(config, sol, 3, 10_000, seed=1)
    assert report.stats["win_rate_slow"].mean == 1.0
    assert report.stats["slow_profit"].mean == 0.0
    assert report.stats["slow_profit"].half_width == 0.0


def test_candlestick_always_revises_unravels():
    config = CandlestickConfig(PriceProcess(1.0, 0.2, 1.0), 1.0)
    sol = solve_candlestick(config)
    report = simulate_candlestick(config, sol, 2, 10_000, seed=1)
    assert report.stats["win_rate_fast"].mean == 1.0  # v_delta > 0 = b0s always
    assert report.stats["slow_profit"].mean == 0.0
    fast = report.stats["fast_profit"]
    assert abs(fast.mean - 1.0) <= 3 * fast.half_width


def test_candlestick_outcome_values(candlestick_half):
    config, sol = candlestick_half
    out = _candlestick_outcomes(config, sol, 2, 10_000, seed=4)
    assert np.all(out["revenue"] == sol.b0s)
    assert np.all((out["slow_winner"] >= 0) & (out["slow_winner"] < 2))
    # fast profit only when fast wins, and then strictly positive
    assert np.all(out["fast_profit"][out["fast_won"]] > 0.0)
    assert np.all(out["fast_profit"][~out["fast_won"]] == 0.0)


def test_replication_floor_and_n_slow(uniform_3_1, candlestick_half):
    config, sol = uniform_3_1
    with pytest.raises(ValueError):
        simulate_hybrid(config, sol, 100, seed=0)
    ccfg, csol = candlestick_half
    with pytest.raises(ValueError):
        simulate_candlestick(ccfg, csol, 1, 10_000, seed=0)


# ----------------------------------- sweeps ------------------------------------


def _candlestick_point(axis, v0=1.0, vol=0.2, delta=1.0, p=0.5):
    """A ``solve_point`` for ``sweep``: the candlestick model with ``axis`` at x."""
    def solve_point(x):
        params = {"v0": v0, "vol": vol, "delta": delta, "p": p, axis: x}
        config = CandlestickConfig(
            PriceProcess(params["v0"], params["vol"], params["delta"]), params["p"])
        solution = solve_candlestick(config)
        return ({"b0s": solution.b0s},
                lambda reps, seed: simulate_candlestick(config, solution, 2, reps, seed))
    return solve_point


def _hybrid_point(axis, na=1, nb=1):
    """A ``solve_point`` for ``sweep``: the uniform hybrid model with ``axis`` at x."""
    def solve_point(x):
        counts = {"na": na, "nb": nb, axis: x}
        solution = solve_fixed_point(
            HybridAuctionConfig(counts["na"], counts["nb"], UNIT, UNIT))
        v, b = solution.values, solution.bids
        return {"slope_fit": float(np.dot(b, v) / np.dot(v, v))}, None
    return solve_point


def test_sweep_over_revision_probability():
    rows = sweep("p", [0.0, 0.25, 0.5, 0.75, 1.0],
                 _candlestick_point("p", v0=1.0, vol=0.2, delta=1.0))
    assert [r["status"] for r in rows] == ["ok"] * 5
    assert rows[0]["b0s"] == 1.0
    assert rows[-1]["b0s"] == 0.0
    b = [r["b0s"] for r in rows]
    assert all(x >= y for x, y in zip(b, b[1:]))


def test_sweep_over_integrated_count():
    rows = sweep("na", [1, 2, 3, 5], _hybrid_point("na", nb=1))
    slopes = [r["slope_fit"] for r in rows]
    assert slopes == pytest.approx([1 / 2, 2 / 3, 3 / 4, 5 / 6], abs=1e-6)


def test_sweep_nb_axis():
    rows = sweep("nb", [2, 3], _hybrid_point("nb", na=0))
    assert [r["slope_fit"] for r in rows] == pytest.approx([0.5, 2 / 3], abs=1e-3)


def test_sweep_empty_grid():
    assert sweep("p", [], _candlestick_point("p")) == []
    assert sweep_header("p") == ["axis_value", "b0s", "slow_win_prob",
                                 "fast_profit", "status"]
    assert sweep_header("na") == ["axis_value", "slope_fit", "residual", "status"]


def test_sweep_records_per_point_failures():
    rows = sweep("p", [0.5, 1.5], _candlestick_point("p"))  # 1.5 is out of range
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error:")
    assert rows[1]["b0s"] == ""


def _sweep_statuses(tmp_path, *flags):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        return [row["status"] for row in csv.DictReader(fh)]


def test_sweep_error_status_names_the_exception(tmp_path):
    rows = sweep("p", [1.5], _candlestick_point("p"))
    assert rows[0]["status"].startswith("error: ValueError: ")
    statuses = _sweep_statuses(tmp_path, "--axis", "na", "--grid", "1.5", "--nb", "1")
    assert statuses[0].startswith("error: ValueError: ")


def test_sweep_propagates_programming_errors(monkeypatch, tmp_path):
    """Only solver and input errors become rows; a bug must not exit 0."""
    def broken(config, **kwargs):
        raise TypeError("bug inside a sweep point")

    monkeypatch.setattr("pbslab.cli.solve_candlestick", broken)
    with pytest.raises(TypeError, match="bug inside a sweep point"):
        main(["sweep", "--axis", "p", "--grid", "0.5", "--v0", "1",
              "--out", str(tmp_path / "sweep.csv")])


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError):
        sweep("volatility", [0.1], _candlestick_point("vol"))


def test_sweep_with_verification():
    rows = sweep("p", [0.5], _candlestick_point("p", v0=1.0, vol=0.2, delta=1.0),
                 verify_reps=20_000, seed=2)
    assert rows[0]["status"] == "ok"
