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
maps each block's uniforms through a model's block function to the
per-replication series its report accumulates; the simulate functions
reduce each series to each block's count, mean and M2, and merge those in
block order into running means.

:func:`_split_map` splits work between two processes where this one may run
on two CPUs and no other Python thread is alive: a forked child computes the
second half of the items. A run of ``_MIN_FORK_BLOCKS`` or more blocks splits
its blocks and merges their moments in block order, bit-identical to a serial
run; a verified sweep of shorter runs splits its points instead.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .common_values import CandlestickSolution, law_of_v_delta
from .distributions import ndtri
from .private_equilibrium import EquilibriumSolution

__all__ = [
    "BLOCK_SIZE",
    "ReplicationRng",
    "Stat",
    "SimReport",
    "simulate_hybrid",
    "simulate_candlestick",
]

BLOCK_SIZE = 8192
_MIN_REPS = 10_000  # below this the normal-approximation intervals get shaky
_Z95 = 1.959963984540054
_BELOW_ONE = np.nextafter(1.0, 0.0)  # the largest uniform a Philox draw gives
# Fewest blocks a run splits between two processes. A fork round trip
# costs about 4 ms, more than the one block a 3-block run would move: forked,
# the 3-block runs of a verified sweep over p took 112 ms instead of 30 ms.
# Every run of 7 or more blocks got faster. Verified sweeps split points instead.
_MIN_FORK_BLOCKS = 4


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

    def merge(self, m: int, b_mean: float, b_m2: float):
        """Merge a block's count, mean and M2."""
        delta = b_mean - self.mean
        total = self.n + m
        self.mean += delta * m / total
        self.m2 += b_m2 + delta * delta * self.n * m / total
        self.n = total

    def stat(self) -> "Stat":
        sd = math.sqrt(self.m2 / (self.n - 1)) if self.n > 1 else 0.0
        return Stat(self.mean, _Z95 * sd / math.sqrt(self.n))


def _block_moments(arr: np.ndarray) -> tuple[int, float, float]:
    """A float block's count, mean and M2: ``arr.mean()`` and ``arr.var() *
    m`` bit for bit, from the same sums and divisions, without the second
    sum ``var`` takes for its own mean."""
    m = arr.size
    b_mean = float(np.add.reduce(arr) / m)
    dev = arr - b_mean
    np.multiply(dev, dev, out=dev)
    return m, b_mean, float(np.add.reduce(dev) / m) * m


@dataclass(frozen=True)
class Stat:
    mean: float
    half_width: float


@dataclass(frozen=True)
class SimReport:
    """Aggregated Monte Carlo estimates; a pure function of (solution, reps,
    seed), bit-identical across reruns."""

    model: str
    reps: int
    seed: int
    config: dict
    stats: dict[str, Stat]
    analytic: dict[str, float]
    checks: list[dict] = field(default_factory=list)
    processes: int = 1  # how many computed blocks: how it ran, so not in to_dict()

    @property
    def agreement_ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        del out["processes"]
        return {**out, "agreement_ok": self.agreement_ok}


def _replications(seed: int, reps: int, width: int, block_fn, blocks=None):
    """Yield ``block_fn`` of each block's ``(m, width)`` uniforms, in order,
    for the blocks of ``blocks`` (a range; every block of the run if None).

    Row ``i`` of block ``b`` is replication ``b * BLOCK_SIZE + i``, so a
    longer run extends a shorter one with the same seed.
    """
    rng = ReplicationRng(seed)
    for block in range(_n_blocks(reps)) if blocks is None else blocks:
        m = min(BLOCK_SIZE, reps - block * BLOCK_SIZE)
        yield block_fn(rng.block_stream(block).random((m, width)))


def _n_blocks(reps: int) -> int:
    return -(-reps // BLOCK_SIZE)


def _check_run(reps: int, seed: int):
    if reps < _MIN_REPS:
        raise ValueError(f"need at least {_MIN_REPS} replications")
    ReplicationRng(seed)  # checks the seed


def _may_fork() -> bool:
    """Whether work may split between two processes: this process may run
    on two CPUs (Linux only), and no other Python thread is alive, which
    could hold a lock the child would then never see released."""
    return (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


class _Child:
    """``work()`` run in a forked child process while this one goes on.

    The child sends its pickled result back through a pipe and leaves by
    ``os._exit``, so it never returns into the caller, flushes no stdio
    buffer and runs no ``atexit`` handler. If ``work`` raises, the child
    sends nothing. Leaving the ``with`` block kills a child not waited for
    and reaps it, so none outlives the block.
    """

    def __init__(self, work):
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # no process to spare: result() gives nothing
            self.pid = None
        if self.pid == 0:
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as pipe:
                    pickle.dump(work(), pipe)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(write_fd)
        self._pipe = open(read_fd, "rb")

    def result(self):
        """Wait for the child: its result, or None where it raised or died."""
        data = self._pipe.read()
        if self.pid is None:
            return None
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        # the bytes come from this program's own child
        return pickle.loads(data) if status == 0 else None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _split_map(fn, items) -> tuple[list, int]:
    """``fn(items)`` and the number of processes that computed it; ``fn`` maps
    a slice of ``items`` to its results, so a block runner keeps its buffers
    from block to block (run per block, it took 4x the page faults).

    Where :func:`_may_fork` and there are three or more items, a child
    forked before any item is computed computes the second half while this
    process computes the first, each building the lazy tables it uses (the
    Beta quantile's, the bid lookup's; about 1 ms per Beta law). Items the
    child did not deliver (it raised or died) are computed here, so an
    exception in them is raised here, as in a serial run."""
    if len(items) < 3 or not _may_fork():
        return fn(items), 1
    split = (len(items) + 1) // 2
    with _Child(lambda: fn(items[split:])) as child:
        results = fn(items[:split])
        rest = child.result()
    return results + (fn(items[split:]) if rest is None else rest), 1 if rest is None else 2


def _run_stats(seed: int, reps: int, width: int, series_fn) -> tuple[dict[str, Stat], int]:
    """Mean and half-width of every per-replication series ``series_fn`` maps
    a block's uniforms to, and the number of processes that computed blocks
    (a run of ``_MIN_FORK_BLOCKS`` or more blocks splits by :func:`_split_map`)."""
    _check_run(reps, seed)

    def moments(blocks):
        return [{name: _block_moments(values) for name, values in series.items()}
                for series in _replications(seed, reps, width, series_fn, blocks)]

    blocks = range(_n_blocks(reps))
    per_block, processes = (_split_map(moments, blocks) if len(blocks) >= _MIN_FORK_BLOCKS
                            else (moments(blocks), 1))
    acc: dict[str, _RunningStat] = {}
    for block in per_block:
        for name, block_moments in block.items():
            acc.setdefault(name, _RunningStat()).merge(*block_moments)
    return {name: a.stat() for name, a in acc.items()}, processes


def _report(model: str, solution, reps: int, seed: int, width: int, block_fn,
            analytic: dict[str, float]) -> SimReport:
    """The report of ``reps`` replications of ``block_fn(solution, u)`` on
    ``width`` uniforms each, each ``analytic`` target checked against its
    series' mean at 3 half-widths."""
    stats, processes = _run_stats(seed, reps, width, partial(block_fn, solution))
    checks = []
    for name, target in analytic.items():
        stat = stats[name]
        checks.append({"name": name, "estimate": stat.mean, "target": target,
                       "half_width": stat.half_width,
                       "ok": bool(abs(stat.mean - target) <= 3.0 * stat.half_width)})
    return SimReport(model=model, reps=reps, seed=seed,
                     config=solution.config.describe(), stats=stats,
                     analytic=analytic, checks=checks, processes=processes)


# --------------------------------- hybrid -------------------------------------


def _top_uniform(u: np.ndarray, n: int) -> np.ndarray:
    """The largest of ``n`` uniforms, sampled from one: ``u**(1/n)``, kept
    below 1 like a drawn uniform where the power rounds up to 1."""
    return np.minimum(u ** (1 / n), _BELOW_ONE)


def _hybrid_block(solution: EquilibriumSolution, u: np.ndarray) -> dict[str, np.ndarray]:
    """Play one batch of auctions from a ``(m, 4)`` matrix of uniforms and
    return the per-replication series a hybrid report accumulates.

    Integrated builders bid their values and neutral builders a
    nondecreasing shade of theirs, so three order statistics decide a row,
    each sampled directly (Devroye 1986, ch. V): column 0 gives the top
    neutral uniform, U^(1/n), column 1 the top integrated one, column 2 the
    integrated second, the top times U^(1/(n-1)), drawn only where the
    integrated class wins, and column 3 < 1/2 gives an exact tie between the
    top integrated value and the top neutral bid to the integrated builder.
    A row evaluates at most three quantiles and never compares two values
    of one class.
    """
    config = solution.config
    n_int, n_neu = config.n_integrated, config.n_neutral
    neu_value = np.asarray(config.neutral_values.quantile(_top_uniform(u[:, 0], n_neu)),
                           dtype=float)
    neu_bid = solution.bid_function(neu_value)
    if n_int:
        int_top = _top_uniform(u[:, 1], n_int)
        int_value = np.asarray(config.integrated_values.quantile(int_top), dtype=float)
    else:  # no reserve: every row goes to the top neutral bid
        int_value = np.full(u.shape[0], -np.inf)
    integrated_won = (int_value > neu_bid) | ((int_value == neu_bid) & (u[:, 3] < 0.5))

    # integrated winners pay the next-highest bid, neutral winners their own
    payment = neu_bid.copy()
    if n_int > 1:
        won = np.flatnonzero(integrated_won)
        second_top = int_top[won] * u[won, 2] ** (1 / (n_int - 1))
        second = np.asarray(config.integrated_values.quantile(second_top), dtype=float)
        payment[won] = np.maximum(second, neu_bid[won])
    return {
        "revenue": payment,
        "win_rate_integrated": integrated_won.astype(float),
        "win_rate_neutral": (~integrated_won).astype(float),
        "surplus_integrated_per_bidder":
            np.where(integrated_won, int_value - payment, 0.0) / max(n_int, 1),
        "surplus_neutral_per_bidder":
            np.where(integrated_won, 0.0, neu_value - payment) / n_neu,
    }


def _hybrid_analytic(solution: EquilibriumSolution) -> dict[str, float]:
    # the solution grid is quantile-spaced, so expectations over the neutral
    # value law are plain integrals against the grid's CDF levels
    config = solution.config
    q = np.asarray(config.neutral_values.cdf(solution.values), dtype=float)
    per_bidder_surplus = float(np.trapezoid(solution.surplus, q))
    neutral_rate = config.n_neutral * float(np.trapezoid(solution.win_prob, q))
    return {
        "surplus_neutral_per_bidder": per_bidder_surplus,
        "win_rate_neutral": neutral_rate,
        "win_rate_integrated": 1.0 - neutral_rate,
    }


def simulate_hybrid(solution: EquilibriumSolution, reps: int, seed: int) -> SimReport:
    """Aggregate ``reps`` independent hybrid auctions into a SimReport and
    compare against the analytic surplus and win rates at 3 half-widths."""
    return _report("hybrid", solution, reps, seed, 4, _hybrid_block,
                   _hybrid_analytic(solution))


# ------------------------------- candlestick ----------------------------------


def _candlestick_block(solution: CandlestickSolution,
                       u: np.ndarray) -> dict[str, np.ndarray]:
    """One batch of candlestick auctions from uniforms (tie, revision, value),
    as the per-replication series a candlestick report accumulates. The slow
    bids are equal, so the tie column goes unread; it is still drawn, so that
    each replication keeps its uniforms."""
    process, p = solution.config.process, solution.config.p
    b0s = solution.b0s
    m = u.shape[0]
    revised = u[:, 1] < p
    # without a revision the value stays at its time-0 level, so only the
    # revised rows evaluate the value law's quantile
    v_delta = np.full(m, process.v0)
    if not process.is_degenerate:
        moved = np.flatnonzero(revised)
        v_delta[moved] = law_of_v_delta(process).quantile(u[moved, 2])

    fast_won = revised & (v_delta > b0s)  # strict: ties stay with the slow bid
    profit = v_delta - b0s
    return {
        "revenue": np.full(m, b0s),
        "win_rate_slow": (~fast_won).astype(float),
        "win_rate_fast": fast_won.astype(float),
        "slow_profit": np.where(fast_won, 0.0, profit),
        "fast_profit": np.where(fast_won, profit, 0.0),
    }


def simulate_candlestick(solution: CandlestickSolution, reps: int, seed: int) -> SimReport:
    """Play the candlestick auction with all slow bidders at the solved bid;
    the slow class must break even and the win rates must match the solution."""
    # no moment sum overflows unless reps times the largest value squared does
    process = solution.config.process
    log_top = max(math.log(process.v0), process.log_mean + process.log_sd * ndtri(_BELOW_ONE))
    if reps > 0 and 2.0 * log_top + math.log(reps) > math.log(np.finfo(float).max):
        raise ValueError(f"v0={process.v0:g} overflows the moments of {reps} replications")
    return _report("candlestick", solution, reps, seed, 3, _candlestick_block, {
        "slow_profit": 0.0,
        "win_rate_slow": solution.slow_win_prob,
        "fast_profit": solution.fast_expected_profit,
    })
