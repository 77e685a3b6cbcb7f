"""Verdict map: every scanned config ends, within the ``deadline``, in a
certified schedule or in a documented exit code with its documented reason.

A row that certifies must keep certifying. A documented row may also
certify (its fix then moves it out of ``DOCUMENTED``); the test never
asserts that a row fails. Each documented row names the ROADMAP item that
owns it, or the README for an input the command line rejects.
"""

import numpy as np
import pytest

from pbslab.distributions import parse_distribution
from pbslab.private_equilibrium import HybridAuctionConfig, solve_fixed_point

from census import verdict
from reference_oracle import brute_best_bids, closed_form_single_neutral
from test_private_equilibrium import _SKEWED, EMPIRICAL_E, KINKED

LAWS = {name: parse_distribution(name) for name in (
    "uniform(0,1)", "uniform(0.5,1.5)", "beta(2,2)", "beta(0.7,3)", "beta(0.5,5)",
    "beta(5,2)", "beta(0.5,0.5)", "lognormal(0,0.5)", "lognormal(0,1)")}
LAWS.update(K=KINKED, E=EMPIRICAL_E, skewed=_SKEWED)

# (integrated law, neutral law): each law against itself, then the mixed pairs
PAIRS = [(law, law) for law in LAWS] + [
    ("uniform(0,1)", "uniform(0.5,1.5)"), ("uniform(0.5,1.5)", "uniform(0,1)"),
    ("beta(5,2)", "beta(2,2)"), ("beta(2,2)", "beta(0.7,3)"),
    ("lognormal(0,0.5)", "uniform(0,1)"), ("uniform(0,1)", "lognormal(0,0.5)"),
    ("K", "beta(2,2)"), ("beta(0.5,0.5)", "beta(2,2)")]
COUNTS = ["1+1", "3+1", "2+2", "3+3", "2+4", "1+5"]
# the fine-grid rows of ROADMAP items 3, 4 and 5
FINE_ROWS = ([(law, law, counts, grid) for law in ("K", "E")
              for counts in ("2+2", "3+3", "2+4", "1+5") for grid in (1024, 2048, 4096)]
             + [("uniform(0,1)", "uniform(0.5,1.5)", "2+3", 1024),
                ("E", "E", "2+4", 8192),
                ("uniform(0.5,1.5)", "uniform(0,1)", "2+4", 4096)])
LAWS.update({name: parse_distribution(name) for name in (
    "lognormal(0,1.4)", "lognormal(0.354,0.142)", "beta(1.169,5.287)")})
# one neutral builder against a heavy lognormal tail, whose values the argmax
# brackets one by one
SINGLE_NEUTRAL_ROWS = [(fa, "lognormal(0,1.4)", counts, 512)
                       for fa in ("beta(2,2)", "uniform(0,1)") for counts in ("1+1", "3+1")]
# laws without a power tail (ROADMAP item 3): with no integrated builders (a
# symmetric first-price auction), and lognormal(0,1.4) against itself at 3+3
NO_POWER_TAIL_ROWS = ([("lognormal(0,1)", "lognormal(0,1)", counts, 512)
                       for counts in ("0+2", "0+3", "0+5")]
                      + [("lognormal(0,1.4)", "lognormal(0,1.4)", "0+3", grid)
                         for grid in (512, 4096, 8192)]
                      + [("lognormal(0,1.4)", "lognormal(0,1.4)", "3+3", grid)
                         for grid in (512, 4096)])
# census row 212 (ROADMAP item 4)
ROW_212 = ("lognormal(0.354,0.142)", "beta(1.169,5.287)", "1+5", 64)
ROWS = ([(fa, fb, counts, 512) for fa, fb in PAIRS for counts in COUNTS] + FINE_ROWS
        + SINGLE_NEUTRAL_ROWS + NO_POWER_TAIL_ROWS + [ROW_212])

# the input rule for one neutral builder: the reserve may not hold mass below
# the neutral values
BELOW_NEUTRAL = (2, "integrated values must not start below the neutral values",
                 "README")
# the reserve starts above the neutral bottom, and values there bid on the
# start line
ANCHOR_MISBIDS = (4, "above the bound", "item 3")
# full Newton steps that make the defect worse on law E at fine grids, or
# that crawl: on census row 212 the first usable point's G is 3.2e-292, its
# cell integral a trapezoid from an underflowed G, so I/G is half the cell
# and a step moves the bid by about 1/(G'/G) = 4e-5
NEWTON_STALLS = (3, "did not reach tol", "item 4")
# values around a kink of a law or a support end misbid on the grid
KINK = (4, "above the bound", "item 5")

DOCUMENTED = {
    ("uniform(0,1)", "uniform(0.5,1.5)", "1+1", 512): BELOW_NEUTRAL,
    ("uniform(0,1)", "uniform(0.5,1.5)", "3+1", 512): BELOW_NEUTRAL,
    ("uniform(0.5,1.5)", "uniform(0,1)", "2+2", 512): ANCHOR_MISBIDS,
    ("uniform(0.5,1.5)", "uniform(0,1)", "1+5", 512): ANCHOR_MISBIDS,
    # certified at grid 512; at 4096 the gain at v = 0.599 is 3.07 times the bound
    ("uniform(0.5,1.5)", "uniform(0,1)", "2+4", 4096): ANCHOR_MISBIDS,
    ("E", "E", "2+2", 2048): NEWTON_STALLS,
    ("E", "E", "2+2", 4096): NEWTON_STALLS,
    ("E", "E", "3+3", 4096): NEWTON_STALLS,
    ROW_212: NEWTON_STALLS,
    **{(law, law, counts, 512): KINK
       for law in ("K", "E") for counts in ("2+2", "3+3", "2+4", "1+5")},
    ("skewed", "skewed", "2+4", 512): KINK,
    ("skewed", "skewed", "1+5", 512): KINK,
    ("uniform(0,1)", "uniform(0.5,1.5)", "2+2", 512): KINK,
    **{(law, law, counts, 1024): KINK
       for law in ("K", "E") for counts in ("2+2", "3+3", "2+4", "1+5")},
    ("uniform(0,1)", "uniform(0.5,1.5)", "2+3", 1024): KINK,
    ("K", "K", "2+2", 2048): KINK,
    ("K", "K", "2+4", 2048): KINK,
    ("K", "K", "1+5", 2048): KINK,
    ("E", "E", "3+3", 2048): KINK,
    ("E", "E", "2+4", 2048): KINK,
    ("E", "E", "1+5", 2048): KINK,
    ("K", "K", "3+3", 4096): KINK,
    ("K", "K", "2+4", 4096): KINK,
    ("K", "K", "1+5", 4096): KINK,
    ("E", "E", "2+4", 4096): KINK,
    ("E", "E", "1+5", 4096): KINK,
}


def _verdict(fa, fb, counts, grid) -> tuple[int, str]:
    """The exit code ``solve-private`` would end with, and its reason."""
    return verdict(LAWS[fa], LAWS[fb], *map(int, counts.split("+")), grid)


@pytest.mark.parametrize("row", ROWS, ids=[f"{fa}/{fb} {counts} g{grid}"
                                           for fa, fb, counts, grid in ROWS])
def test_every_row_certifies_or_ends_as_documented(deadline, row):
    code, reason = _verdict(*row)
    if code:
        assert row in DOCUMENTED, f"exit {code}: {reason}"
        documented_code, documented_reason, owner = DOCUMENTED[row]
        assert code == documented_code and documented_reason in reason, (
            f"{owner} documents exit {documented_code} ({documented_reason}); "
            f"got exit {code}: {reason}")


@pytest.mark.parametrize("counts, expected", [("1+1", 0.25), ("3+1", 0.375)])
def test_below_neutral_rows_bid_below_the_neutral_values(counts, expected):
    """The ``BELOW_NEUTRAL`` rows' bottom value v = lo = 0.5 bids below lo at
    its best: by brute force over bids from 0, (v - b) * b**n peaks at the
    closed form n v / (n + 1), 0.25 and 0.375, which no bracket from lo and
    no certificate bid from lo tries. A verdict that certifies such a row
    (ROADMAP item 16) must bid that there, within the solver's tolerance."""
    fa, fb = LAWS["uniform(0,1)"], LAWS["uniform(0.5,1.5)"]
    n_integrated, lo = int(counts[0]), fb.support[0]
    bids = np.arange(1537) / 1024  # 0 to 1.5 in steps of 2**-10
    [best] = bids[brute_best_bids(np.array([lo]), bids, fa.cdf(bids) ** n_integrated)]
    assert best == closed_form_single_neutral(n_integrated, lo) == expected < lo
    if _verdict("uniform(0,1)", "uniform(0.5,1.5)", counts, 512)[0] == 0:
        solution = solve_fixed_point(HybridAuctionConfig(n_integrated, 1, fa, fb), 512)
        assert solution.values[0] == lo
        assert abs(solution.bids[0] - best) <= solution.tol
