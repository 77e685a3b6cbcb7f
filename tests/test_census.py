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
