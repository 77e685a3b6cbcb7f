"""The benchmark tracer's name table still matches the program.

``perfbench/spans.py`` patches functions by ``(module, name)`` and skips a
name the program no longer has, so a rename would make that span's metrics
read 0 without any error. The tracer is loaded from its file, read only.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pbslab import cli

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# spans whose functions left the program on purpose (``solve_ode`` and
# ``pick_winners`` became test oracles); their metrics read 0 until the
# benchmark drops them
RETIRED = {"private_equilibrium.ode", "simulator.pick_winners"}


def test_every_span_resolves_a_name(spans):
    assert RETIRED <= set(spans._FUNCTIONS)
    for span, targets in spans._FUNCTIONS.items():
        found = [(module, name) for module, name in targets
                 if hasattr(importlib.import_module(module), name)]
        if span in RETIRED:
            assert not found, f"retired span {span!r} resolves {found}"
        else:
            assert found, f"span {span!r} resolves none of {targets}"


def test_sweep_span_counts_the_rows_of_cli_sweep(spans, tmp_path):
    assert ("pbslab.cli", "sweep") in spans._FUNCTIONS["simulator.sweep"]
    out = tmp_path / "sweep.csv"
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        rc = cli.main(["sweep", "--axis", "p", "--grid", "0.25,0.5,0.75",
                       "--out", str(out)])
    finally:
        restore()
    assert rc == 0
    assert spans.layer_metrics(tracer)["simulator.sweep_points"] == 3
    assert len(out.read_text().splitlines()) == 1 + 3
