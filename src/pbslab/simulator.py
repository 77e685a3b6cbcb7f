"""Monte Carlo verification of the solved auction equilibria.

Plays both auctions with the analytic strategies and reports class-level
revenue, surplus and win rates with 95% confidence half-widths, so every
equilibrium claim (zero profit, win probabilities, surplus splits) can be
checked statistically against its closed-form counterpart.

Randomness is counter-based and replication-addressable: replication ``r``
draws a fixed-width row of uniforms from the Philox stream of block
``r // BLOCK_SIZE`` (one counter block per batch), so the outcome of any
replication is a pure function of ``(seed, r)`` - independent of the total
replication count, scheduling or worker count. All values are produced by
inverse-transform sampling of those uniforms.

Both auctions run through one block runner, :func:`_replications`, which
maps each block's uniforms through a model's block function; the simulate
functions feed the per-replication series it yields into running means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .common_values import (CandlestickConfig, CandlestickSolution,
                            RootNotFoundError, law_of_v_delta)
from .private_equilibrium import (EquilibriumSolution, HybridAuctionConfig,
                                  SolverError)

__all__ = [
    "BLOCK_SIZE",
    "ReplicationRng",
    "Stat",
    "SimReport",
    "pick_winners",
    "simulate_hybrid",
    "simulate_candlestick",
    "sweep",
]

BLOCK_SIZE = 8192
_MIN_REPS = 10_000  # below this the normal-approximation intervals get shaky
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class ReplicationRng:
    """Counter-based stream factory: block b gets its own Philox counter range."""

    seed: int

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must be a 64-bit nonnegative integer")

    def block_stream(self, block: int) -> np.random.Generator:
        # disjoint 2**128-draw counter ranges; a block never exhausts its range
        return np.random.Generator(np.random.Philox(key=self.seed, counter=block << 128))


class _RunningStat:
    """Mergeable count/mean/M2 accumulator (parallel Welford update)."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add_block(self, arr: np.ndarray):
        m = arr.size
        b_mean = float(arr.mean())
        b_m2 = float(arr.var()) * m
        delta = b_mean - self.mean
        total = self.n + m
        self.mean += delta * m / total
        self.m2 += b_m2 + delta * delta * self.n * m / total
        self.n = total

    def stat(self) -> "Stat":
        sd = math.sqrt(self.m2 / (self.n - 1)) if self.n > 1 else 0.0
        return Stat(self.mean, _Z95 * sd / math.sqrt(self.n))


@dataclass(frozen=True)
class Stat:
    mean: float
    half_width: float


@dataclass(frozen=True)
class SimReport:
    """Aggregated Monte Carlo estimates; a pure function of (config, solution,
    reps, seed), bit-identical across reruns."""

    model: str
    reps: int
    seed: int
    config: dict
    stats: dict[str, Stat]
    analytic: dict[str, float]
    checks: list[dict] = field(default_factory=list)

    @property
    def agreement_ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "reps": self.reps,
            "seed": self.seed,
            "config": self.config,
            "stats": {k: {"mean": s.mean, "half_width": s.half_width}
                      for k, s in self.stats.items()},
            "analytic": self.analytic,
            "checks": self.checks,
            "agreement_ok": self.agreement_ok,
        }


def _replications(seed: int, reps: int, width: int, block_fn):
    """Yield ``block_fn`` of each block's ``(m, width)`` uniforms, in order.

    Row ``i`` of block ``b`` is replication ``b * BLOCK_SIZE + i``, so a
    longer run extends a shorter one with the same seed.
    """
    rng = ReplicationRng(seed)
    for start in range(0, reps, BLOCK_SIZE):
        m = min(BLOCK_SIZE, reps - start)
        yield block_fn(rng.block_stream(start // BLOCK_SIZE).random((m, width)))


def _run_stats(seed: int, reps: int, width: int, series_fn) -> dict[str, Stat]:
    """Mean and half-width of every per-replication series ``series_fn`` maps
    a block's uniforms to."""
    if reps < _MIN_REPS:
        raise ValueError(f"need at least {_MIN_REPS} replications")
    acc: dict[str, _RunningStat] = {}
    for series in _replications(seed, reps, width, series_fn):
        for name, values in series.items():
            acc.setdefault(name, _RunningStat()).add_block(values)
    return {name: a.stat() for name, a in acc.items()}


def _check(name: str, stat: Stat, target: float) -> dict:
    return {
        "name": name,
        "estimate": stat.mean,
        "target": target,
        "half_width": stat.half_width,
        "ok": bool(abs(stat.mean - target) <= 3.0 * stat.half_width),
    }


# --------------------------------- hybrid -------------------------------------


def pick_winners(bids: np.ndarray, tie_u: np.ndarray) -> np.ndarray:
    """Row-wise argmax with uniform random tie-breaking among top bids."""
    winners = np.argmax(bids, axis=1)
    top = bids[np.arange(bids.shape[0]), winners]
    tie_rows = np.flatnonzero((bids == top[:, None]).sum(axis=1) > 1)
    for r in tie_rows:
        tied = np.flatnonzero(bids[r] == top[r])
        winners[r] = tied[min(int(tie_u[r] * tied.size), tied.size - 1)]
    return winners


def _top_two(u: np.ndarray):
    """Column and value of each row's largest entry, and the second largest
    entry (``None`` for a single column)."""
    col = np.argmax(u, axis=1)
    top = u[np.arange(u.shape[0]), col]
    second = np.partition(u, -2, axis=1)[:, -2] if u.shape[1] > 1 else None
    return col, top, second


def _hybrid_block(config: HybridAuctionConfig, solution: EquilibriumSolution,
                  u: np.ndarray) -> dict[str, np.ndarray]:
    """Play one batch of auctions from a matrix of uniforms (one row per rep).

    The quantile functions and the bid schedule are nondecreasing, so each
    class's largest uniform gives its top value. A row evaluates the top
    integrated value, the top neutral value and its bid, and the second
    value of the winning class: at most three quantiles. Rows where that
    second ties or passes its top, or the two tops tie, are replayed by
    :func:`_hybrid_full_rows`, which breaks ties uniformly at random. So the
    outputs equal the full row's bit for bit wherever the computed values
    do not decrease as a row's uniforms rise (scipy's ``betaincinv`` can
    drop by one ulp between adjacent doubles).
    """
    n_int, n_neu = config.n_integrated, config.n_neutral
    m = u.shape[0]
    neu_col, neu_u, neu_u2 = _top_two(u[:, n_int:n_int + n_neu])
    neu_value = np.asarray(config.neutral_values.quantile(neu_u), dtype=float)
    neu_bid = solution.bid_function(neu_value)
    if n_int:
        int_col, int_u, int_u2 = _top_two(u[:, :n_int])
        int_value = np.asarray(config.integrated_values.quantile(int_u), dtype=float)
    else:  # no reserve: every row goes to the top neutral bid
        int_col, int_value = np.zeros(m, dtype=np.intp), np.full(m, -np.inf)
    integrated_won = int_value > neu_bid
    ambiguous = int_value == neu_bid

    # integrated winners pay the next-highest bid, neutral winners their own
    payment = neu_bid.copy()
    won = np.flatnonzero(integrated_won)
    if n_int > 1:
        second = np.asarray(config.integrated_values.quantile(int_u2[won]), dtype=float)
        payment[won] = np.maximum(second, neu_bid[won])
        ambiguous[won] |= second >= int_value[won]
    lost = np.flatnonzero(~integrated_won)
    if n_neu > 1:
        second = np.asarray(config.neutral_values.quantile(neu_u2[lost]), dtype=float)
        ambiguous[lost] |= solution.bid_function(second) >= neu_bid[lost]

    winner_value = np.where(integrated_won, int_value, neu_value)
    out = {
        "winner": np.where(integrated_won, int_col, n_int + neu_col),
        "integrated_won": integrated_won,
        "winning_bid": np.where(integrated_won, int_value, neu_bid),
        "payment": payment,
        "winner_value": winner_value,
        "surplus": winner_value - payment,
    }
    tied = np.flatnonzero(ambiguous)
    if tied.size:
        for key, values in _hybrid_full_rows(config, solution, u[tied]).items():
            out[key][tied] = values
    return out


def _hybrid_full_rows(config: HybridAuctionConfig, solution: EquilibriumSolution,
                      u: np.ndarray) -> dict[str, np.ndarray]:
    """:func:`_hybrid_block` drawing every bidder's value; ties go to
    :func:`pick_winners`."""
    n_int, n_neu = config.n_integrated, config.n_neutral
    m = u.shape[0]
    vals_int = np.asarray(config.integrated_values.quantile(u[:, :n_int]),
                          dtype=float).reshape(m, n_int)
    vals_neu = np.asarray(config.neutral_values.quantile(u[:, n_int:n_int + n_neu]),
                          dtype=float).reshape(m, n_neu)
    bids_neu = solution.bid_function(vals_neu)

    values = np.concatenate([vals_int, vals_neu], axis=1)
    bids = np.concatenate([vals_int, bids_neu], axis=1)  # integrated bid truthfully
    winner = pick_winners(bids, u[:, -1])
    rows = np.arange(m)
    winning_bid = bids[rows, winner]
    runner_up = np.partition(bids, -2, axis=1)[:, -2]
    integrated_won = winner < n_int

    # integrated winners pay the next-highest bid, neutral winners their own
    payment = np.where(integrated_won, runner_up, winning_bid)
    winner_value = values[rows, winner]
    return {
        "winner": winner,
        "integrated_won": integrated_won,
        "winning_bid": winning_bid,
        "payment": payment,
        "winner_value": winner_value,
        "surplus": winner_value - payment,
    }


def _hybrid_analytic(config: HybridAuctionConfig,
                     solution: EquilibriumSolution) -> dict[str, float]:
    # the solution grid is quantile-spaced, so expectations over the neutral
    # value law are plain integrals against the grid's CDF levels
    q = np.asarray(config.neutral_values.cdf(solution.values), dtype=float)
    per_bidder_surplus = float(np.trapezoid(solution.surplus, q))
    neutral_rate = config.n_neutral * float(np.trapezoid(solution.win_prob, q))
    return {
        "surplus_neutral_per_bidder": per_bidder_surplus,
        "win_rate_neutral": neutral_rate,
        "win_rate_integrated": 1.0 - neutral_rate,
    }


def simulate_hybrid(config: HybridAuctionConfig, solution: EquilibriumSolution,
                    reps: int, seed: int) -> SimReport:
    """Aggregate ``reps`` independent hybrid auctions into a SimReport and
    compare against the analytic surplus and win rates at 3 half-widths."""
    n_int = max(config.n_integrated, 1)

    def series(u):
        out = _hybrid_block(config, solution, u)
        won_int = out["integrated_won"]
        return {
            "revenue": out["payment"],
            "win_rate_integrated": won_int.astype(float),
            "win_rate_neutral": (~won_int).astype(float),
            "surplus_integrated_per_bidder":
                np.where(won_int, out["surplus"], 0.0) / n_int,
            "surplus_neutral_per_bidder":
                np.where(~won_int, out["surplus"], 0.0) / config.n_neutral,
        }

    width = config.n_integrated + config.n_neutral + 1  # values + tie-break
    stats = _run_stats(seed, reps, width, series)
    analytic = _hybrid_analytic(config, solution)
    checks = [_check(name, stats[name], analytic[name]) for name in analytic]
    return SimReport(model="hybrid", reps=reps, seed=seed,
                     config=config.describe(), stats=stats, analytic=analytic,
                     checks=checks)


# ------------------------------- candlestick ----------------------------------


def _candlestick_block(config: CandlestickConfig, solution: CandlestickSolution,
                       n_slow: int, u: np.ndarray) -> dict[str, np.ndarray]:
    """One batch of candlestick auctions from uniforms (tie, revision, value)."""
    process, p = config.process, config.p
    b0s = solution.b0s
    m = u.shape[0]
    slow_winner = np.minimum((u[:, 0] * n_slow).astype(int), n_slow - 1)
    revised = u[:, 1] < p
    if process.is_degenerate:
        v_delta = np.full(m, process.v0)
    else:
        v_delta = np.asarray(law_of_v_delta(process).quantile(u[:, 2]), dtype=float)

    fast_won = revised & (v_delta > b0s)  # strict: ties stay with the slow bid
    # without a revision the value stays at its time-0 level for the winner
    slow_value = np.where(revised, v_delta, process.v0)
    slow_profit = np.where(fast_won, 0.0, slow_value - b0s)
    fast_profit = np.where(fast_won, v_delta - b0s, 0.0)
    return {
        "slow_winner": slow_winner,
        "fast_won": fast_won,
        "revenue": np.full(m, b0s),
        "slow_profit": slow_profit,
        "fast_profit": fast_profit,
    }


def simulate_candlestick(config: CandlestickConfig, solution: CandlestickSolution,
                         n_slow: int, reps: int, seed: int) -> SimReport:
    """Play the candlestick auction with all slow bidders at the solved bid;
    the slow class must break even and the win rates must match the solution."""
    if n_slow < 2:
        raise ValueError("the zero-profit condition presumes at least two slow bidders")

    def series(u):
        out = _candlestick_block(config, solution, n_slow, u)
        fast_won = out["fast_won"]
        return {
            "revenue": out["revenue"],
            "win_rate_slow": (~fast_won).astype(float),
            "win_rate_fast": fast_won.astype(float),
            "slow_profit": out["slow_profit"],
            "fast_profit": out["fast_profit"],
        }

    stats = _run_stats(seed, reps, 3, series)
    analytic = {
        "slow_profit": 0.0,
        "win_rate_slow": solution.slow_win_prob,
        "fast_profit": solution.fast_expected_profit,
    }
    checks = [_check(name, stats[name], analytic[name]) for name in analytic]
    cfg = config.describe()
    cfg["n_slow"] = n_slow
    return SimReport(model="candlestick", reps=reps, seed=seed, config=cfg,
                     stats=stats, analytic=analytic, checks=checks)


# ---------------------------------- sweeps ------------------------------------

CANDLESTICK_AXES = ("p", "vol", "delta")
PRIVATE_AXES = ("na", "nb")
_CANDLESTICK_HEADER = ["axis_value", "b0s", "slow_win_prob", "fast_profit", "status"]
_PRIVATE_HEADER = ["axis_value", "slope_fit", "residual", "status"]


def sweep_header(axis: str) -> list[str]:
    return _CANDLESTICK_HEADER if axis in CANDLESTICK_AXES else _PRIVATE_HEADER


def sweep(axis: str, grid, solve_point, verify_reps: int = 0,
          seed: int = 0) -> list[dict]:
    """Solve (and optionally verify) one point per value ``x`` of ``grid``.

    ``solve_point(x)`` returns the row's fields and a ``verify(reps, seed)``
    giving the point's :class:`SimReport`. Rows come back in grid order. A
    point whose solve or verification fails with a solver or input error
    keeps that error in its row's ``status`` (``error: <class>: <message>``)
    instead of aborting the sweep; any other exception propagates.
    """
    if axis not in CANDLESTICK_AXES + PRIVATE_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; "
                         f"choose from {CANDLESTICK_AXES + PRIVATE_AXES}")
    if verify_reps and verify_reps < _MIN_REPS:
        raise ValueError(f"need at least {_MIN_REPS} replications")
    rows = []
    for x in grid:
        row = dict.fromkeys(sweep_header(axis), "")
        row["axis_value"] = x
        try:
            fields, verify = solve_point(x)
            row.update(fields, status="ok")
            if verify_reps and not verify(verify_reps, seed).agreement_ok:
                row["status"] = "verify-failed"
        except (SolverError, RootNotFoundError, ValueError) as exc:
            row["status"] = f"error: {type(exc).__name__}: {exc}"
        rows.append(row)
    return rows
