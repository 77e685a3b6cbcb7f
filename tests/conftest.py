import dataclasses
import os
import signal

import pytest

from pbslab import private_equilibrium as pe
from pbslab.common_values import CandlestickConfig, PriceProcess, solve_candlestick
from pbslab.distributions import Beta, Uniform
from pbslab.private_equilibrium import (BidFunction, HybridAuctionConfig,
                                        _strictly_increasing, solve_fixed_point)

from ode_oracle import solve_ode

UNIT = Uniform(0.0, 1.0)

# wall-clock limit of the ``deadline`` fixture; the solves it guards take
# under a second
DEADLINE_S = 5.0


@pytest.fixture
def deadline():
    """Fail the test once it has run DEADLINE_S seconds, so that a solver
    which stops making progress fails fast instead of stalling the suite."""
    def expire(signum, frame):
        pytest.fail(f"test still running after its {DEADLINE_S:g} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the simulator sees: 1 keeps all work in one
    process, 2 lets long runs and verified sweeps fork, whatever this
    machine has."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
    return set_cpus


@pytest.fixture
def forks(monkeypatch):
    """The list of ``os.fork`` calls this process makes."""
    calls, real = [], os.fork

    def fork():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.fixture
def marched_g(monkeypatch):
    """The list of G at the bids each Newton step starts from, one array of
    the points it marches per step."""
    problems, seen = [], []

    def newton_steps(problem, bids, tol):
        problems.append(problem)  # a coarse solve ends before its fine solve starts
        yield from real_steps(problem, bids, tol)

    def march(alpha, beta, later, old, values, below):
        problem = problems[-1]
        start = problem.values.size - values.size
        seen.append(problem.rival[start:] * problem.config.reserve_cdf(old))
        return real_march(alpha, beta, later, old, values, below)

    real_steps, real_march = pe._newton_steps, pe._march
    monkeypatch.setattr(pe, "_newton_steps", newton_steps)
    monkeypatch.setattr(pe, "_march", march)
    return seen


@pytest.fixture(scope="session")
def mis_shade():
    """A function that lowers every bid of a solution by 2%, with the win
    probabilities of the lowered schedule."""
    def shade(solution):
        config, v = solution.config, solution.values
        bids = _strictly_increasing(0.98 * solution.bids)
        return dataclasses.replace(
            solution, bid_function=BidFunction(v, bids),
            win_prob=config.rival_cdf(v) * config.reserve_cdf(bids))
    return shade


@pytest.fixture(scope="session")
def uniform_3_1():
    config = HybridAuctionConfig(3, 1, UNIT, UNIT)
    return config, solve_fixed_point(config)

@pytest.fixture(scope="session")
def uniform_3_3():
    config = HybridAuctionConfig(3, 3, UNIT, UNIT)
    return config, solve_fixed_point(config)


@pytest.fixture(scope="session")
def uniform_3_3_ode(uniform_3_3):
    config, _ = uniform_3_3
    return solve_ode(config)


@pytest.fixture(scope="session")
def beta_3_3():
    config = HybridAuctionConfig(3, 3, Beta(2, 2), Beta(2, 2))
    return config, solve_fixed_point(config)


@pytest.fixture(scope="session")
def beta_3_3_ode(beta_3_3):
    config, _ = beta_3_3
    return solve_ode(config)


@pytest.fixture(scope="session")
def candlestick_half():
    config = CandlestickConfig(PriceProcess(1.0, 0.2, 1.0), 0.5)
    return config, solve_candlestick(config)
