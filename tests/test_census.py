"""Totality on a slice of the input census: each row ends, within the
``deadline`` and with every warning raised as an error, in a certified
schedule or in exit 2, 3 or 4 with its documented reason. The test asserts
no row's verdict; the certified share of the whole population is tracked
with ``tests/census.py``."""

import functools

import numpy as np
import pytest

from pbslab.distributions import Beta, EmpiricalGrid, Lognormal, Uniform
from pbslab.private_equilibrium import _G_FLOOR

from census import (MC_ROWS, census, documented_reason, mc_class, mc_failures,
                    moved_rows, row_class, row_id, verdict)

# the first rows of the tracked population
ROWS = census(100)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", ROWS, ids=[f"{i}:{row_id(row)}" for i, row in enumerate(ROWS)])
def test_census_row_ends_in_a_documented_exit(deadline, marched_g, row):
    """The row ends as documented, and every point a Newton step marches
    has G above the floor at the bids the step starts from."""
    code, reason = verdict(*row)
    assert documented_reason(code, reason) != "undocumented", f"exit {code}: {reason}"
    assert all(np.all(g > _G_FLOOR) for g in marched_g)


@functools.cache
def _population() -> list[tuple]:
    return census()


# grid-4096 rows whose lognormal reserve leaves G below the floor at the
# bottom of the grid: the Newton steps keep the grid-512 bids there and
# certify; moved onto the start line, the first usable point cycled to the
# step cap (exit 3)
NEWLY_CERTIFIED = [584, 785, 794]

# rows that certify since the identity leaves out only the points where G is
# at or below the floor: 94 exited 3 and 3 exited 4 while it also left out
# every value within (top - lo) / n of the bottom; 96 have a lognormal
# neutral law, which has no power tail (ROADMAP item 3)
FLOOR_ONLY_CERTIFIED = [
    45, 60, 62, 86, 97, 105, 125, 126, 129, 149, 159, 186, 195, 242, 251, 260, 268,
    302, 326, 337, 338, 352, 387, 390, 396, 397, 463, 479, 482, 488, 515, 527, 528,
    532, 533, 540, 541, 556, 570, 582, 591, 628, 634, 637, 648, 654, 660, 672, 685,
    701, 721, 742, 747, 765, 773, 804, 843, 845, 850, 860, 871, 873, 882, 925, 963,
    973, 975, 996, 1016, 1020, 1043, 1052, 1060, 1067, 1077, 1083, 1085, 1088, 1094,
    1100, 1101, 1142, 1145, 1152, 1167, 1179, 1199, 1230, 1282, 1296, 1309, 1385,
    1410, 1416, 1455, 1462, 1489]


@pytest.mark.parametrize("index", NEWLY_CERTIFIED + FLOOR_ONLY_CERTIFIED)
def test_fixed_rows_stay_certified(deadline, index):
    row = _population()[index]
    assert verdict(*row) == (0, "certified"), row_id(row)


def test_moved_rows_lists_each_changed_exit_code():
    """The before/after diff names every row whose code moved, in row
    order, with both codes, and nothing for a row that kept its code."""
    before = [0, 0, 2, 3, 4, 0, 4]
    after = [0, 4, 2, 0, 4, 3, 4]
    assert moved_rows(before, after) == [(1, 0, 4), (3, 3, 0), (5, 0, 3)]
    assert moved_rows(after, before) == [(1, 4, 0), (3, 0, 3), (5, 3, 0)]
    assert moved_rows(before, before) == []
    assert moved_rows([], []) == []


def test_moved_rows_rejects_lists_of_two_populations():
    with pytest.raises(ValueError, match="not of one population"):
        moved_rows([0, 0, 2], [0, 0])


_UNIT, _EMPIRICAL = Uniform(0.0, 1.0), EmpiricalGrid(np.array([0.0, 0.5, 1.0]),
                                                     np.array([0.0, 0.2, 1.0]))


@pytest.mark.parametrize("row, expected", [
    ((_UNIT, _UNIT, 0, 1, 64), "degenerate 0+1"),
    ((_EMPIRICAL, Uniform(0.5, 1.5), 0, 1, 64), "degenerate 0+1"),
    ((_UNIT, Uniform(0.5, 1.5), 2, 1, 64), "single-neutral rule"),
    ((Uniform(0.5 - 5e-10, 1.5), Uniform(0.5, 1.5), 2, 1, 64), "other"),
    ((Uniform(0.5, 1.5), _UNIT, 3, 1, 512), "reserve gap"),
    ((Uniform(0.5, 1.5), _EMPIRICAL, 3, 3, 512), "reserve gap"),
    ((Uniform(0.5, 1.5), _UNIT, 0, 3, 512), "other"),
    ((_EMPIRICAL, Beta(2, 2), 1, 2, 512), "empirical law"),
    ((_EMPIRICAL, Beta(2, 2), 0, 2, 512), "other"),
    ((Lognormal(0.0, 0.5), _EMPIRICAL, 0, 2, 4096), "empirical law"),
    ((Beta(2, 2), Lognormal(0.0, 0.5), 3, 3, 4096), "other"),
])
def test_row_class_is_the_first_that_applies(row, expected):
    """Each synthetic row gets the first class whose condition it meets: the
    single-neutral rule only with mass above 1e-9 at the neutral bottom, a
    gap or an empirical law only in the laws the auction uses."""
    assert row_class(*row) == expected


# the Monte Carlo census's first rows, and the checks each documented one
# fails: with no integrated builders (20, 40, 48) both win rates are exactly 1
# and 0 in every replication, so a half-width of 0 fails any target off by
# the trapezoid's error (ROADMAP item 19); row 84's targets are trapezoids
# over the grid's CDF levels whose top cell is wide (item 1)
MC_SLICE = MC_ROWS[:10]
_RATES = ("win_rate_neutral", "win_rate_integrated")
MC_DOCUMENTED = {20: _RATES, 40: _RATES, 48: _RATES,
                 84: ("surplus_neutral_per_bidder", *_RATES)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", MC_SLICE)
def test_mc_census_row_fails_only_documented_checks(deadline, index):
    """Each row's solved schedule meets every Monte Carlo check but those
    documented for it. The slice holds row 65, one neutral builder, whose
    surplus target is the payoff the kernel averages."""
    row = _population()[index]
    failed = mc_failures(*row)
    assert set(failed) <= set(MC_DOCUMENTED.get(index, ())), (row_id(row), failed)


def test_mc_sample_is_frozen():
    """The sample is 154 distinct rows of the population, in order, and
    row 65 is in the Tier-1 slice."""
    assert len(MC_ROWS) == 154 and list(MC_ROWS) == sorted(set(MC_ROWS))
    assert MC_ROWS[-1] < len(_population()) and 65 in MC_SLICE


@pytest.mark.parametrize("counts, expected", [
    ((0, 1), "n_a = 0"), ((0, 4), "n_a = 0"), ((3, 1), "n_b = 1"), ((1, 2), "other")])
def test_mc_class_reads_the_builder_counts(counts, expected):
    assert mc_class(*counts) == expected
