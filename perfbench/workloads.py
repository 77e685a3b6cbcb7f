"""The benchmark's workloads: fixed lists of ``pbslab`` CLI commands.

Each workload is one pass over a list of commands. The workload seed only
feeds the Monte Carlo ``--seed`` of the commands that take one, so the same
seed gives the same commands and the same outputs. ``solve-auto`` draws no
random numbers, so its commands do not depend on the seed.

Every command names the outcomes that count as correct. Two inputs hit
documented defects of the program and stay in the lists as commands that
are expected to fail today, so that a fix shows up as a rise in the share of
commands that succeed:

- the lognormal 2+4 Monte Carlo check exits 4 (a tail bias of the grid);
- the Beta(0.7,3) 3+3 ``auto`` solve never returns (the ODE cross-check
  crawls), so it runs under a short budget.

Both may also succeed, so that the fix does not read as a wrong output.
A Monte Carlo check of a command that is expected to pass can still fail by
chance at a given seed (each check is a 3-half-width test), so ``simulate``
commands may exit 4 too; the harness then checks the estimates against a
wider 6-half-width band, and the failure counts against ``ok_frac``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("mc-verify", "solve-auto", "reproduce")

# budget for a command that should finish: far above any command's time
_BUDGET_S = 60.0
# budget for the Beta(0.7,3) auto solve, whose ODE cross-check does not end
_HANG_BUDGET_S = 1.0
_TINY_HANG_BUDGET_S = 0.2
_MIN_REPS = 10_000  # the simulator refuses fewer replications

OK = "ok"
VERIFY_FAILED = "exit4"
SOLVER_FAILED = "exit3"
BUDGET = "budget"


@dataclass(frozen=True)
class Command:
    """One CLI call; ``out`` is the output file name inside the pass directory."""

    argv: tuple[str, ...]
    out: str
    allowed: frozenset = frozenset({OK})
    budget_s: float = _BUDGET_S
    defect: bool = False  # a documented Monte Carlo bias: estimates unchecked

    @property
    def name(self) -> str:
        return f"{self.argv[0]}:{self.out}"


def commands(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The command list of one pass; ``tiny`` shrinks every size for tests."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
    seeds = random.Random(seed)

    def mc_seed() -> str:
        return str(seeds.randrange(2 ** 63))

    def reps(n: int) -> str:
        return str(_MIN_REPS if tiny else n)

    def grid(n: int) -> str:
        return str(512 if tiny else n)

    return {"mc-verify": _mc_verify, "solve-auto": _solve_auto,
            "reproduce": _reproduce}[workload](mc_seed, reps, grid, tiny)


def _simulate(argv, out, defect=False) -> Command:
    return Command(("simulate", *argv), out, frozenset({OK, VERIFY_FAILED}),
                   defect=defect)


def _simulate_hybrid(na, nb, fa, fb, reps, seed, out, defect=False) -> Command:
    return _simulate(("--model", "hybrid", "--na", str(na), "--nb", str(nb),
                      "--fa", fa, "--fb", fb, "--reps", reps, "--seed", seed),
                     out, defect)


def _mc_verify(mc_seed, reps, grid, tiny) -> list[Command]:
    beta = "beta(2,2)"
    lognormal = "lognormal(0,0.5)"
    uniform = "uniform(0,1)"
    return [
        _simulate_hybrid(3, 3, beta, beta, reps(200_000), mc_seed(), "beta33.json"),
        _simulate_hybrid(8, 8, beta, beta, reps(50_000), mc_seed(), "beta88.json"),
        _simulate_hybrid(3, 1, uniform, uniform, reps(1_000_000), mc_seed(),
                         "uniform31.json"),
        _simulate_hybrid(2, 4, lognormal, lognormal, reps(200_000), mc_seed(),
                         "lognormal24.json", defect=True),
        _simulate(("--model", "candlestick", "--p", "0.5",
                   "--reps", reps(1_000_000), "--seed", mc_seed()), "candle.json"),
    ]


def _solve_private(na, nb, fa, fb, grid_size, out, method="auto") -> Command:
    return Command(("solve-private", "--na", str(na), "--nb", str(nb),
                    "--fa", fa, "--fb", fb, "--grid", grid_size,
                    "--method", method), out)


def _solve_auto(mc_seed, reps, grid, tiny) -> list[Command]:
    beta = "beta(2,2)"
    skewed = "beta(0.7,3)"
    lognormal = "lognormal(0,0.5)"
    uniform = "uniform(0,1)"
    hang = _solve_private(3, 3, skewed, skewed, grid(512), "skewed33_auto.csv")
    return [
        _solve_private(3, 3, beta, beta, grid(512), "beta33.csv"),
        _solve_private(8, 8, beta, beta, grid(512), "beta88.csv"),
        _solve_private(3, 3, beta, beta, grid(4096), "beta33_g4096.csv"),
        _solve_private(2, 4, lognormal, lognormal, grid(512), "lognormal24.csv"),
        _solve_private(3, 3, uniform, uniform, grid(512), "uniform33.csv"),
        _solve_private(3, 1, uniform, uniform, grid(512), "uniform31.csv"),
        _solve_private(3, 3, skewed, skewed, grid(8192), "skewed33_fp.csv",
                       method="fixed-point"),
        Command(hang.argv, hang.out, frozenset({BUDGET, OK, SOLVER_FAILED}),
                budget_s=_TINY_HANG_BUDGET_S if tiny else _HANG_BUDGET_S),
    ]


def _reproduce(mc_seed, reps, grid, tiny) -> list[Command]:
    # The job lists of scripts/run_experiments.py and scripts/make_figures.py,
    # copied so that the yardstick stays fixed when the scripts change.
    return [
        Command(("sweep", "--axis", "p", "--grid",
                 "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1",
                 "--vol", "0.2", "--delta", "1"), "sweep_p.csv"),
        Command(("sweep", "--axis", "vol", "--grid", "0.05,0.1,0.2,0.3,0.5,0.8",
                 "--p", "0.5"), "sweep_vol.csv"),
        Command(("sweep", "--axis", "na", "--grid", "1,2,3,4,5,8", "--nb", "1"),
                "sweep_na.csv"),
        _simulate(("--model", "hybrid", "--na", "3", "--nb", "1",
                   "--reps", reps(1_000_000), "--seed", "42"), "hybrid_mc.json"),
        _simulate(("--model", "candlestick", "--p", "0.5",
                   "--reps", reps(1_000_000), "--seed", "42"), "candle_mc.json"),
        Command(("figure", "--fa", "beta(2,2)", "--fb", "beta(2,2)",
                 "--na", "3", "--nb", "3"), "beta_schedule.svg"),
        Command(("figure", "--fa", "uniform(0,1)", "--fb", "uniform(0,1)",
                 "--na", "3", "--nb", "1"), "uniform_single.svg"),
        # verified sweeps: many short Monte Carlo runs of 3 blocks each
        Command(("sweep", "--axis", "na", "--grid", "1,2,3,4,5,8",
                 "--fa", "beta(2,2)", "--fb", "beta(2,2)",
                 "--verify-reps", reps(20_000), "--seed", mc_seed()),
                "sweep_na_verified.csv"),
        Command(("sweep", "--axis", "p", "--grid",
                 "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1",
                 "--verify-reps", reps(20_000), "--seed", mc_seed()),
                "sweep_p_verified.csv"),
    ]
