"""Totality on a slice of the input census: each row ends, within the
``deadline`` and with every warning raised as an error, in a certified
schedule or in exit 2, 3 or 4 with its documented reason. The test asserts
no row's verdict; the certified share of the whole population is tracked
with ``tests/census.py``."""

import pytest

from census import REASONS, census, row_id, verdict

# the first rows of the tracked population
ROWS = census(100)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", ROWS, ids=[f"{i}:{row_id(row)}" for i, row in enumerate(ROWS)])
def test_census_row_ends_in_a_documented_exit(deadline, row):
    code, reason = verdict(*row)
    assert any(documented in reason for documented in REASONS[code]), (
        f"exit {code}: {reason}")


# grid-4096 rows whose lognormal reserve leaves G below the floor at the
# bottom of the grid: the Newton steps keep the grid-512 bids there and
# certify; moved onto the anchor line, the first usable point cycled to the
# step cap (exit 3)
NEWLY_CERTIFIED = [584, 785, 794]


@pytest.mark.parametrize("index", NEWLY_CERTIFIED)
def test_rows_that_certify_since_steps_keep_settled_points(deadline, index):
    row = census(index + 1)[index]
    assert verdict(*row) == (0, "certified"), row_id(row)
