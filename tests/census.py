"""A fixed random census of documented solver inputs.

Each row draws an integrated and a neutral value law of the four
documented families, the builder counts and a value grid from fixed
ranges, with numpy's PCG64 at the fixed ``SEED``, so a row does not
depend on how many follow it.
The population, its first ``ROWS`` rows, stays fixed, so that a change to
the solver reports its effect as the certified share before and after.
The ranges:

- uniform(lo, lo + w) with lo in [0, 1] and w in [0.1, 2];
- beta(alpha, beta) with both shapes in [0.3, 8];
- lognormal(mu, s) with mu in [-1, 1] and s in [0.1, 1.5];
- empirical grids of 3 to 6 nodes, from 0, the others in [0.05, 2];
- 0 to 4 integrated and 1 to 5 neutral builders, grid 64, 512 or 4096.

Every parameter is a multiple of 0.001, so a row's label is its law.
:func:`verdict` maps a row to the exit code ``solve-private`` ends with,
and its reason. Run as a script, it prints the population's verdict
tallies as JSON: by exit code, by neutral law family and exit code, by exit
code and matched ``REASONS`` entry (``by_reason``), and each row's exit code.
With ``--against`` a saved output of an earlier run, it also lists in
``moved`` every row whose exit code moved, with its ``row_id`` and the
exit codes before and after:

    PYTHONPATH=src python tests/census.py > before.json
    PYTHONPATH=src python tests/census.py --against before.json
"""

import argparse
import json
import warnings
from collections import Counter

import numpy as np

from pbslab.distributions import Beta, EmpiricalGrid, Lognormal, Uniform
from pbslab.private_equilibrium import (HybridAuctionConfig, SolverError,
                                        solve_fixed_point, verify_best_response)

SEED, ROWS = 1, 1500
GRIDS = (64, 512, 4096)

# the reasons each exit code is documented with
REASONS = {
    0: ("certified",),
    2: ("degenerate auction", "value grid collapsed", "too extreme",
        "integrated values must not start below the neutral values"),
    3: ("did not reach tol",),
    4: ("above the bound",),
}


def _milli(rng, lo: int, hi: int, size=None):
    """Multiples of 0.001 from lo/1000 to hi/1000, both included."""
    return rng.integers(lo, hi + 1, size=size) / 1000


def _law(rng):
    family = rng.integers(4)
    if family == 0:
        lo = float(_milli(rng, 0, 1000))
        return Uniform(lo, round(lo + float(_milli(rng, 100, 2000)), 3))
    if family == 1:
        return Beta(*map(float, _milli(rng, 300, 8000, 2)))
    if family == 2:
        return Lognormal(float(_milli(rng, -1000, 1000)), float(_milli(rng, 100, 1500)))
    nodes = int(rng.integers(3, 7))
    x = np.sort(rng.choice(np.arange(50, 2001), nodes - 1, replace=False)) / 1000
    cdf = np.sort(rng.choice(np.arange(1, 1000), nodes - 2, replace=False)) / 1000
    return EmpiricalGrid(np.append(0.0, x), np.concatenate(([0.0], cdf, [1.0])))


def census(rows: int = ROWS) -> list[tuple]:
    """The first ``rows`` rows of (integrated law, neutral law,
    n_integrated, n_neutral, grid), drawn in order from ``SEED``."""
    rng = np.random.default_rng(SEED)
    return [(_law(rng), _law(rng), int(rng.integers(0, 5)), int(rng.integers(1, 6)),
             int(rng.choice(GRIDS))) for _ in range(rows)]


def label(law) -> str:
    if isinstance(law, EmpiricalGrid):
        return f"EmpiricalGrid(x={law.points.tolist()}, cdf={law.cdf_values.tolist()})"
    return repr(law)


def row_id(row) -> str:
    fa, fb, n_integrated, n_neutral, grid = row
    return f"{label(fa)}/{label(fb)} {n_integrated}+{n_neutral} g{grid}"


def verdict(fa, fb, n_integrated: int, n_neutral: int, grid: int) -> tuple[int, str]:
    """The exit code ``solve-private`` would end with, and its reason."""
    try:
        config = HybridAuctionConfig(n_integrated, n_neutral, fa, fb)
        report = verify_best_response(solve_fixed_point(config, grid))
    except SolverError as exc:
        return 3, str(exc)
    except ValueError as exc:
        return 2, str(exc)
    if report.max_gain > report.bound:
        return 4, (f"a deviation gains {report.max_gain:.3g} at v={report.at_value:.6g}, "
                   f"above the bound {report.bound:.3g}")
    return 0, "certified"


def documented_reason(code: int, reason: str) -> str:
    """The ``REASONS`` entry of ``code`` that ``reason`` holds, or
    "undocumented"."""
    return next((entry for entry in REASONS.get(code, ()) if entry in reason),
                "undocumented")


def moved_rows(before: list[int], after: list[int]) -> list[tuple[int, int, int]]:
    """(row index, exit code before, exit code after) of every row whose
    exit code differs between two code lists of the same population."""
    if len(before) != len(after):
        raise ValueError(f"code lists of {len(before)} and {len(after)} rows "
                         f"are not of one population")
    return [(i, b, a) for i, (b, a) in enumerate(zip(before, after)) if b != a]


def main(argv=None):
    parser = argparse.ArgumentParser(description="Tally the census verdicts.")
    parser.add_argument("--against", metavar="JSON",
                        help="an earlier run's output; list the rows whose exit code moved")
    args = parser.parse_args(argv)
    before = None
    if args.against:
        with open(args.against) as fh:
            before = json.load(fh)
        if (before["seed"], before["rows"]) != (SEED, ROWS):
            parser.error(f"{args.against} is a census of seed {before['seed']} and "
                         f"{before['rows']} rows, not of seed {SEED} and {ROWS} rows")
    rows, codes, by_neutral, by_reason = census(), [], Counter(), Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row in rows:
            code, reason = verdict(*row)
            codes.append(code)
            by_neutral[f"{row[1].kind} exit {code}"] += 1
            by_reason[f"exit {code}: {documented_reason(code, reason)}"] += 1
    out = {"seed": SEED, "rows": ROWS, "certified": codes.count(0),
           "by_code": {str(c): codes.count(c) for c in sorted(set(codes))},
           "by_neutral": dict(sorted(by_neutral.items())),
           "by_reason": dict(sorted(by_reason.items())),
           "codes": codes}
    if before is not None:
        out["moved"] = [{"row": i, "row_id": row_id(rows[i]), "before": b, "after": a}
                        for i, b, a in moved_rows(before["codes"], codes)]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
