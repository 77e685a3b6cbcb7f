"""Monte Carlo engine: stream determinism, payment rules, statistical agreement."""

import csv
import dataclasses
import errno
import inspect
import os
import signal
import threading

import numpy as np
import pytest
from scipy import stats

from pbslab.cli import build_parser, main, sweep
from pbslab.common_values import CandlestickConfig, PriceProcess, solve_candlestick
from pbslab.distributions import Beta, EmpiricalGrid, Lognormal, Uniform
from pbslab.private_equilibrium import HybridAuctionConfig, solve_fixed_point
from pbslab.simulator import (BLOCK_SIZE, ReplicationRng, _block_moments,
                              _candlestick_block, _hybrid_block, _replications,
                              _run_stats, _RunningStat, _split_map,
                              simulate_candlestick, simulate_hybrid)

from full_row_oracle import full_rows, full_uniforms

UNIT = Uniform(0.0, 1.0)
# a hybrid row: top neutral, top integrated, second integrated, tie-break
HYBRID_WIDTH = 4


def _outcomes(seed, reps, width, block_fn):
    """Per-replication series, read from the simulator's block runner."""
    parts = list(_replications(seed, reps, width, block_fn))
    return {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}


def _hybrid_outcomes(sol, reps, seed):
    return _outcomes(seed, reps, HYBRID_WIDTH, lambda u: _hybrid_block(sol, u))


def _candlestick_outcomes(sol, reps, seed):
    return _outcomes(seed, reps, 3, lambda u: _candlestick_block(sol, u))


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
            return _hybrid_outcomes(uniform_3_1[1], reps, seed=11)
    else:
        def outcomes(reps):
            return _candlestick_outcomes(candlestick_half[1], reps, seed=11)
    short, long = outcomes(10_000), outcomes(30_000)
    for key in short:
        assert np.array_equal(short[key], long[key][:10_000])


def test_reports_are_bit_identical(uniform_3_1):
    _, sol = uniform_3_1
    r1 = simulate_hybrid(sol, 50_000, seed=3)
    r2 = simulate_hybrid(sol, 50_000, seed=3)
    assert r1.to_dict() == r2.to_dict()


# ----------------------------- hybrid payment rules ----------------------------


def test_integrated_winner_pays_next_highest(uniform_3_1):
    """Integrated bids (0.9, 0.5, 0.2) against a neutral bid of 0.6."""
    _, sol = uniform_3_1
    # uniform values: quantiles are identities; sigma(0.8) = 0.6 exactly; the
    # top of three integrated uniforms is u1**(1/3), the second top·u2**(1/2)
    u = np.array([[0.8, 0.9 ** 3, (0.5 / 0.9) ** 2, 0.123]])
    out = _hybrid_block(sol, u)
    assert out["win_rate_integrated"][0] == 1.0
    assert out["revenue"][0] == pytest.approx(0.6, abs=1e-9)
    # the winner's value is what it paid plus the surplus its class shares
    surplus = 3 * out["surplus_integrated_per_bidder"][0]
    assert out["revenue"][0] + surplus == pytest.approx(0.9)
    assert surplus == pytest.approx(0.3, abs=1e-9)


def test_neutral_winner_pays_own_bid():
    config = HybridAuctionConfig(1, 1, UNIT, UNIT)
    sol = solve_fixed_point(config)  # sigma(v) = v/2
    u = np.array([[0.8, 0.3, 0.5, 0.99]])  # neutral 0.8, integrated 0.3
    out = _hybrid_block(sol, u)
    assert out["win_rate_integrated"][0] == 0.0
    assert out["revenue"][0] == pytest.approx(0.4, abs=1e-9)
    assert out["surplus_neutral_per_bidder"][0] == pytest.approx(0.4, abs=1e-9)


def test_run_once_returns_outcome(uniform_3_1):
    """One replication through a one-row block: one winner, the only one
    holding surplus, and revenue is its payment."""
    _, sol = uniform_3_1
    out = _hybrid_block(sol, np.random.default_rng(0).random((1, HYBRID_WIDTH)))
    assert all(series.shape == (1,) for series in out.values())
    assert out["win_rate_integrated"][0] + out["win_rate_neutral"][0] == 1.0
    loser = "neutral" if out["win_rate_integrated"][0] else "integrated"
    assert out[f"surplus_{loser}_per_bidder"][0] == 0.0
    report = simulate_hybrid(sol, 10_000, seed=0)
    revenue = _hybrid_outcomes(sol, 10_000, seed=0)["revenue"]
    assert report.stats["revenue"].mean == pytest.approx(revenue.mean(), rel=1e-12)


def test_tie_break_is_uniform():
    """An exact tie between the top integrated value and the top neutral bid
    goes to either class with probability 1/2."""
    sol = _kernel_case(3, 1, Uniform(0.0, 16.0), UNIT)
    u, _ = _cross_tie_rows(sol, np.random.default_rng(8), 41_000)
    won = _hybrid_block(sol, u[:40_000])["win_rate_integrated"]
    assert won.size == 40_000
    # binomial(1/2): 4-sigma band around 20_000
    assert abs(int(won.sum()) - 20_000) < 4 * np.sqrt(40_000 * 0.25)


def test_accounting_identity(uniform_3_3):
    """Revenue plus both classes' surplus is the winner's value, and the
    winner's bid bounds its payment; the winner's value and bid come from
    the full-row auction with the same order statistics."""
    _, sol = uniform_3_3
    rng = np.random.default_rng(21)
    u = rng.random((10_000, HYBRID_WIDTH))
    out = _hybrid_block(sol, u)
    full = full_rows(sol, full_uniforms(sol, u, rng))
    revenue, config = out["revenue"], sol.config
    surplus = (config.n_integrated * out["surplus_integrated_per_bidder"]
               + config.n_neutral * out["surplus_neutral_per_bidder"])
    assert np.allclose(revenue + surplus, full["winner_value"], atol=1e-12)
    # integrated winners never pay more than they bid
    integrated = out["win_rate_integrated"] == 1.0
    assert np.all(revenue[integrated] <= full["winning_bid"][integrated] + 1e-12)
    assert np.allclose(revenue[~integrated], full["winning_bid"][~integrated])


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
    """A coarse solution: the kernel reads only the bid schedule and the laws."""
    return solve_fixed_point(HybridAuctionConfig(n_int, n_neu, fa, fb),
                             grid_size=128, tol=1e-4)


def _edge_blocks(rng, m=256):
    """Blocks of kernel rows whose uniforms tie or nearly tie; the last
    column is the tie-break uniform."""
    base = rng.random((m, 1))
    shape = (m, HYBRID_WIDTH)
    blocks = {
        "random": rng.random(shape),
        "equal": np.repeat(base, HYBRID_WIDTH, axis=1),
        # 0 to 2 representable doubles above a common base
        "adjacent": (base.view(np.int64) + rng.integers(0, 3, shape)).view(float),
        # past the bid grid's top, where np.interp clamps and bids tie
        "saturated": 1.0 - rng.integers(1, 4, shape) * 2.0 ** -53,
    }
    for u in blocks.values():
        u[:, -1] = rng.random(m)
    return blocks


def _cross_tie_rows(sol, rng, m):
    """Kernel rows whose top integrated value equals the top neutral bid
    exactly, and that bid. The integrated law is Uniform(0,16): a value is 16
    times its uniform, exactly, and 16 lies above every bid here."""
    config = sol.config
    n_int, n_neu = config.n_integrated, config.n_neutral
    u = rng.random((m, HYBRID_WIDTH))
    neu_value = np.asarray(config.neutral_values.quantile(u[:, 0] ** (1 / n_neu)))
    top_bid = sol.bid_function(neu_value)
    target = top_bid / 16.0
    # the n-th power of the tying top uniform, stepped by ulps until its
    # n-th root gives that uniform back
    u1 = target ** n_int
    for _ in range(4 * n_int):
        root = u1 ** (1 / n_int)
        u1 = np.where(root < target, np.nextafter(u1, 1.0),
                      np.where(root > target, np.nextafter(u1, 0.0), u1))
    u[:, 1] = u1
    # pow is not correctly rounded: a few targets are no double's n-th root
    tied = 16.0 * u1 ** (1 / n_int) == top_bid
    assert tied.mean() > 0.99
    return u[tied], top_bid[tied]


def _nondecreasing_rows(sol, u):
    """Full rows whose computed values, and neutral bids, do not decrease as
    the uniforms of a class rise, as the quantile of an order statistic
    presumes. The Beta quantile breaks it at the last bit for about 1% of
    adjacent doubles (Beta(2,2): 1,939 of 200,000 pairs, against 3,045 for
    scipy's betaincinv)."""
    config = sol.config
    n_int, n_neu = config.n_integrated, config.n_neutral
    ok = np.ones(len(u), dtype=bool)
    for law, cols, maps in ((config.integrated_values, u[:, :n_int], []),
                            (config.neutral_values, u[:, n_int:n_int + n_neu],
                             [sol.bid_function])):
        x = np.asarray(law.quantile(np.sort(cols, axis=1)), dtype=float)
        for xs in [x] + [f(x) for f in maps]:
            ok &= np.all(np.diff(xs, axis=1) >= 0.0, axis=1)
    return ok


def _oracle_series(sol, full):
    """The per-replication series of a hybrid report, from the full-row
    oracle's outcomes ``full``."""
    config = sol.config
    won = full["integrated_won"]
    return {
        "revenue": full["payment"],
        "win_rate_integrated": won.astype(float),
        "win_rate_neutral": (~won).astype(float),
        "surplus_integrated_per_bidder":
            np.where(won, full["surplus"], 0.0) / max(config.n_integrated, 1),
        "surplus_neutral_per_bidder":
            np.where(won, 0.0, full["surplus"]) / config.n_neutral,
    }


def _assert_kernel_matches(sol, u, rng):
    """On every row where the quantiles do not decrease, the kernel's series
    equal, bit for bit, those of the full-row oracle's outcomes on full rows
    with the same order statistics. Returns the kernel's series and the
    oracle's outcomes."""
    full_u = full_uniforms(sol, u, rng)
    full = full_rows(sol, full_u)
    expected = _oracle_series(sol, full)
    got = _hybrid_block(sol, u)
    rows = _nondecreasing_rows(sol, full_u)
    assert rows.mean() > 0.9
    assert got.keys() == expected.keys()
    for key in got:
        assert got[key].dtype == expected[key].dtype, key
        assert np.array_equal(got[key][rows], expected[key][rows]), key
    return got, full


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: "%d+%d" % s)
@pytest.mark.parametrize("law", KERNEL_LAWS)
def test_kernel_equals_full_rows_on_ties(law, shape):
    n_int, n_neu = shape
    fb = KERNEL_LAWS[law]
    sol = _kernel_case(n_int, n_neu, fb, fb)
    rng = np.random.default_rng(sum(shape))
    for u in _edge_blocks(rng).values():
        _assert_kernel_matches(sol, u, rng)

    if n_int:
        sol = _kernel_case(n_int, n_neu, Uniform(0.0, 16.0), fb)
        u, top_bid = _cross_tie_rows(sol, rng, 256)
        got, full = _assert_kernel_matches(sol, u, rng)
        assert np.array_equal(full["winning_bid"], top_bid)
        neutral = got["win_rate_neutral"] == 1.0
        assert np.array_equal(got["revenue"][neutral], top_bid[neutral])
        assert 0 < got["win_rate_integrated"].sum() < len(u)  # the tie-break decides


class _CountingLaw:
    """A value law that records the probabilities passed to its ``quantile``."""

    def __init__(self, law):
        self.law, self.calls = law, []

    @property
    def values(self):
        return sum(q.size for q in self.calls)

    def quantile(self, q):
        self.calls.append(np.asarray(q, dtype=float))
        return self.law.quantile(q)

    def __getattr__(self, name):
        return getattr(self.law, name)


@pytest.mark.parametrize("n", [3, 8])
def test_kernel_draws_at_most_three_quantiles_per_replication(n):
    law = _CountingLaw(Beta(2, 2))
    sol = solve_fixed_point(HybridAuctionConfig(n, n, law.law, law.law))
    # the kernel draws from the laws of the solution's config
    counted = dataclasses.replace(sol, config=HybridAuctionConfig(n, n, law, law))
    _hybrid_outcomes(counted, 20_000, seed=4)
    assert law.values <= 3 * 20_000


@pytest.mark.parametrize("n", [2, 3, 8])
def test_kernel_samples_order_statistics_of_uniforms(n):
    """The top of n uniforms has CDF x^n, the second n·x^(n−1) − (n−1)·x^n.
    Integrated values in [2, 3] lie above every bid, so the integrated class
    wins every row and its second is drawn on all of them."""
    integrated, neutral = _CountingLaw(Uniform(2.0, 3.0)), _CountingLaw(UNIT)
    sol = _kernel_case(n, n, UNIT, UNIT)
    counted = dataclasses.replace(
        sol, config=HybridAuctionConfig(n, n, integrated, neutral))
    won = _hybrid_outcomes(counted, 100_000, seed=12)["win_rate_integrated"]
    assert (won == 1.0).all()

    def top_cdf(x):
        return x ** n

    def second_cdf(x):
        return n * x ** (n - 1) - (n - 1) * x ** n

    # per block: the integrated top, then its second
    for calls, cdf in ((neutral.calls, top_cdf), (integrated.calls[0::2], top_cdf),
                       (integrated.calls[1::2], second_cdf)):
        q = np.concatenate(calls)
        assert q.size == 100_000
        assert stats.kstest(q, cdf).pvalue > 1e-3


# ------------------------------- block statistics ------------------------------


def _merge_with_numpy(n, mean, m2, block):
    """The Welford merge with the block's mean and M2 from ``ndarray.mean``
    and ``ndarray.var``, the form the accumulator must equal bit for bit."""
    m = block.size
    b_mean, b_m2 = float(block.mean()), float(block.var()) * m
    delta, total = b_mean - mean, n + m
    return total, mean + delta * m / total, m2 + (b_m2 + delta * delta * n * m / total)


@pytest.mark.parametrize("m", [1, 2, 848, 1808, 8192])
def test_running_stat_blocks_match_numpy_mean_and_var(m):
    """Blocks of the sizes a run meets (1,808 rows end a 10,000-rep run), of
    the kinds the series hold: fractions, 0/1 indicators, heavy tails and
    constants, merged one after another."""
    rng = np.random.default_rng(m)
    blocks = [np.full(m, 0.1)]
    for _ in range(4):
        blocks += [rng.random(m), (rng.random(m) < 0.3).astype(float),
                   rng.lognormal(0.0, 2.0, m), rng.normal(-5.0, 1e-3, m)]
    stat, want = _RunningStat(), (0, 0.0, 0.0)
    for block in blocks:
        stat.merge(*_block_moments(block))
        want = _merge_with_numpy(*want, block)
        assert (stat.n, stat.mean.hex(), stat.m2.hex()) == \
            (want[0], want[1].hex(), want[2].hex())


# --------------------------------- two processes --------------------------------


def _no_fork():
    raise AssertionError("os.fork was called")


def _hex(stats):
    return {k: (s.mean.hex(), s.half_width.hex()) for k, s in stats.items()}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# 4 blocks, the last of one row; exactly 4 full blocks; 13 blocks
@pytest.mark.parametrize("reps", [24_577, 32_768, 100_000])
@pytest.mark.parametrize("model", ["hybrid", "candlestick"])
def test_forked_run_equals_serial_run(model, reps, cpus, forks, uniform_3_1,
                                      candlestick_half):
    def run():
        if model == "hybrid":
            return simulate_hybrid(uniform_3_1[1], reps, seed=3)
        return simulate_candlestick(candlestick_half[1], reps, seed=3)

    cpus(1)
    serial = run()
    assert forks == []
    cpus(2)
    forked = run()
    assert len(forks) == 1
    assert (serial.processes, forked.processes) == (1, 2)
    assert _hex(forked.stats) == _hex(serial.stats)
    assert forked.to_dict() == serial.to_dict()
    _assert_no_child_left()


def test_short_runs_stay_in_one_process(cpus, monkeypatch, uniform_3_1):
    """Three blocks (the sweep's verification size) are below the cutoff."""
    cpus(2)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert simulate_hybrid(uniform_3_1[1], 3 * BLOCK_SIZE, seed=3).processes == 1


def test_no_fork_while_another_thread_runs(cpus, monkeypatch, uniform_3_1):
    cpus(2)
    monkeypatch.setattr(os, "fork", _no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        report = simulate_hybrid(uniform_3_1[1], 100_000, seed=3)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert report.processes == 1


def _series_failing_on(block, seed, width=3):
    """A series function that raises on ``block``, known by its first row."""
    first_row = ReplicationRng(seed).block_stream(block).random((1, width))[0]

    def series(u):
        if np.array_equal(u[0], first_row):
            raise ValueError(f"no series for block {block}")
        return {"x": u[:, 0]}

    return series


# 13 blocks: this process computes blocks 0-6 and the child 7-12
@pytest.mark.parametrize("block", [3, 10])
def test_block_error_is_raised_as_in_a_serial_run(block, cpus, forks):
    """An error in this process's half kills the child; one in the child's
    half is raised here with the same type and message. No child is left."""
    series = _series_failing_on(block, seed=5)
    errors = []
    for n in (1, 2):
        cpus(n)
        with pytest.raises(ValueError) as info:
            _run_stats(5, 100_000, 3, series)
        errors.append((info.type, str(info.value)))
        _assert_no_child_left()
    assert len(forks) == 1
    assert errors == [(ValueError, f"no series for block {block}")] * 2


def test_blocks_of_a_child_that_dies_are_computed_here(cpus, forks):
    parent = os.getpid()

    def series(u):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return {"x": u[:, 0], "y": u[:, 1] * u[:, 2]}

    cpus(1)
    serial, one = _run_stats(5, 100_000, 3, series)
    cpus(2)
    forked, processes = _run_stats(5, 100_000, 3, series)
    assert (len(forks), one, processes) == (1, 1, 1)
    assert _hex(forked) == _hex(serial)
    _assert_no_child_left()


def test_run_stays_in_one_process_when_fork_fails(cpus, monkeypatch, uniform_3_1):
    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    cpus(1)
    serial = simulate_hybrid(uniform_3_1[1], 100_000, seed=3)
    cpus(2)
    monkeypatch.setattr(os, "fork", fork)
    report = simulate_hybrid(uniform_3_1[1], 100_000, seed=3)
    assert report.processes == 1
    assert _hex(report.stats) == _hex(serial.stats)


# 3 items split 2 | 1, 6 split 3 | 3, 7 split 4 | 3
@pytest.mark.parametrize("n", [3, 6, 7])
def test_split_map_forks_before_the_first_item(n, cpus, monkeypatch):
    """The fork comes before any item is computed; this process then
    computes the first half of the items and the child the second, each
    as one contiguous slice."""
    events, real = [], os.fork

    def fork():
        events.append("fork")
        return real()

    def fn(items):
        seen = tuple(events)  # in the child, what it inherited
        events.append(tuple(items))
        return [(x, os.getpid(), tuple(items), seen) for x in items]

    cpus(2)
    monkeypatch.setattr(os, "fork", fork)
    results, processes = _split_map(fn, range(n))
    split = (n + 1) // 2
    here, there = range(split), range(split, n)
    assert events == ["fork", tuple(here)]
    assert processes == 2
    assert results[:split] == [(x, os.getpid(), tuple(here), ("fork",)) for x in here]
    child = results[split][1]
    assert child != os.getpid()
    assert results[split:] == [(x, child, tuple(there), ("fork",)) for x in there]
    _assert_no_child_left()


def test_forked_simulate_prints_one_verdict_line(tmp_path, cpus, forks, capfd):
    """The child writes nothing to the shared stdout and stderr."""
    cpus(2)
    assert main(["simulate", "--model", "hybrid", "--na", "3", "--nb", "1",
                 "--reps", "100000", "--seed", "42",
                 "--out", str(tmp_path / "r.json")]) == 0
    out, err = capfd.readouterr()
    assert len(forks) == 1
    assert [line.split(":")[0] for line in out.splitlines()] == ["PASS"]
    assert err == ""
    _assert_no_child_left()


# --------------------------- statistical verification --------------------------


def test_hybrid_agreement_closed_form(uniform_3_1):
    _, sol = uniform_3_1
    report = simulate_hybrid(sol, 200_000, seed=42)
    assert report.agreement_ok
    assert report.analytic["surplus_neutral_per_bidder"] == \
        pytest.approx(27 / 1280, abs=1e-6)
    assert report.analytic["win_rate_integrated"] == \
        pytest.approx(1 - 27 / 256, abs=1e-6)
    rates = report.stats["win_rate_integrated"].mean + \
        report.stats["win_rate_neutral"].mean
    assert rates == pytest.approx(1.0, abs=1e-12)


def test_hybrid_agreement_beta(beta_3_3):
    _, sol = beta_3_3
    assert simulate_hybrid(sol, 100_000, seed=5).agreement_ok


def test_error_shrinks_like_sqrt_reps(uniform_3_1):
    _, sol = uniform_3_1
    widths = [simulate_hybrid(sol, n, seed=9)
              .stats["surplus_neutral_per_bidder"].half_width
              for n in (10_000, 100_000, 1_000_000)]
    for a, b in zip(widths, widths[1:]):
        assert 2.5 < a / b < 4.0  # about sqrt(10) per decade


def test_candlestick_agreement(candlestick_half):
    _, sol = candlestick_half
    report = simulate_candlestick(sol, 200_000, seed=42)
    assert report.agreement_ok
    slow = report.stats["slow_profit"]
    assert abs(slow.mean) <= 3 * slow.half_width  # zero-profit straddle
    assert report.stats["revenue"].mean == pytest.approx(sol.b0s)
    assert report.stats["revenue"].half_width < 1e-12


def test_candlestick_no_revision_is_exact():
    config = CandlestickConfig(PriceProcess(1.0, 0.2, 1.0), 0.0)
    sol = solve_candlestick(config)
    report = simulate_candlestick(sol, 10_000, seed=1)
    assert report.stats["win_rate_slow"].mean == 1.0
    assert report.stats["slow_profit"].mean == 0.0
    assert report.stats["slow_profit"].half_width == 0.0


def test_candlestick_always_revises_unravels():
    config = CandlestickConfig(PriceProcess(1.0, 0.2, 1.0), 1.0)
    sol = solve_candlestick(config)
    report = simulate_candlestick(sol, 10_000, seed=1)
    assert report.stats["win_rate_fast"].mean == 1.0  # v_delta > 0 = b0s always
    assert report.stats["slow_profit"].mean == 0.0
    fast = report.stats["fast_profit"]
    assert abs(fast.mean - 1.0) <= 3 * fast.half_width


def test_candlestick_outcome_values(candlestick_half):
    _, sol = candlestick_half
    out = _candlestick_outcomes(sol, 10_000, seed=4)
    assert np.all(out["revenue"] == sol.b0s)
    # fast profit only when fast wins, and then strictly positive
    fast_won = out["win_rate_fast"] == 1.0
    assert np.all(out["fast_profit"][fast_won] > 0.0)
    assert np.all(out["fast_profit"][~fast_won] == 0.0)


def test_replication_floor(uniform_3_1, candlestick_half):
    _, sol = uniform_3_1
    with pytest.raises(ValueError):
        simulate_hybrid(sol, 100, seed=0)
    _, csol = candlestick_half
    with pytest.raises(ValueError):
        simulate_candlestick(csol, 100, seed=0)


def test_simulators_take_the_same_parameters():
    """Both models run from a solution, a replication count and a seed."""
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(simulate_candlestick) == names(simulate_hybrid)


# ----------------------------------- sweeps ------------------------------------


def _sweep(*flags):
    """The rows ``cli.sweep`` returns for ``pbslab sweep`` with ``flags``."""
    return sweep(build_parser().parse_args(["sweep", *flags, "--out", "unused.csv"]))


def _sweep_csv(tmp_path, *flags):
    """The CSV that ``pbslab sweep`` with ``flags`` writes: header and rows."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def test_sweep_over_revision_probability():
    rows = _sweep("--axis", "p", "--grid", "0,0.25,0.5,0.75,1",
                  "--v0", "1", "--vol", "0.2", "--delta", "1")
    assert [r["status"] for r in rows] == ["ok"] * 5
    assert rows[0]["b0s"] == 1.0
    assert rows[-1]["b0s"] == 0.0
    b = [r["b0s"] for r in rows]
    assert all(x >= y for x, y in zip(b, b[1:]))


def test_sweep_over_integrated_count():
    rows = _sweep("--axis", "na", "--grid", "1,2,3,5", "--nb", "1")
    slopes = [r["slope_fit"] for r in rows]
    assert slopes == pytest.approx([1 / 2, 2 / 3, 3 / 4, 5 / 6], abs=1e-6)


def test_sweep_nb_axis():
    rows = _sweep("--axis", "nb", "--grid", "2,3", "--na", "0")
    assert [r["slope_fit"] for r in rows] == pytest.approx([0.5, 2 / 3], abs=1e-3)


@pytest.mark.parametrize("axis", ["p", "na"])
def test_sweep_empty_grid_is_rejected(axis):
    with pytest.raises(ValueError, match="--grid holds no axis values"):
        _sweep("--axis", axis, "--grid", "")


def test_sweep_records_per_point_failures(tmp_path):
    _, rows = _sweep_csv(tmp_path, "--axis", "p", "--grid", "0.5,1.5")  # 1.5 is out of range
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error:")
    assert rows[1]["b0s"] == ""


def test_sweep_error_status_names_the_exception(tmp_path):
    [row] = _sweep("--axis", "p", "--grid", "1.5")
    assert row["status"].startswith("error: ValueError: ")
    _, rows = _sweep_csv(tmp_path, "--axis", "na", "--grid", "1.5", "--nb", "1")
    assert rows[0]["status"].startswith("error: ValueError: ")


def test_sweep_propagates_programming_errors(monkeypatch, tmp_path):
    """Only solver and input errors become rows; a bug must not exit 0."""
    def broken(config, **kwargs):
        raise TypeError("bug inside a sweep point")

    monkeypatch.setattr("pbslab.cli.solve_candlestick", broken)
    with pytest.raises(TypeError, match="bug inside a sweep point"):
        main(["sweep", "--axis", "p", "--grid", "0.5", "--v0", "1",
              "--out", str(tmp_path / "sweep.csv")])


def test_sweep_rejects_unknown_axis(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--axis", "volatility", "--grid", "0.1",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_with_verification():
    rows = _sweep("--axis", "p", "--grid", "0.5", "--v0", "1", "--vol", "0.2",
                  "--delta", "1", "--verify-reps", "20000", "--seed", "2")
    assert rows[0]["status"] == "ok"
