"""Smoke test of the benchmark: every workload at tiny size, in both modes.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

import json

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# the end-to-end metrics outside the gated list that each workload reports
PARTIAL = {"mc-verify": ["mc_reps_per_s"],
           "solve-auto": ["xmethod_gap_max", "closed_form_err_max"],
           "reproduce": ["mc_reps_per_s", "closed_form_err_max"]}


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_reports_end_to_end_metrics(workload):
    record = run.measure(workload, seed=7, seconds=0, trace=False, tiny=True,
                         setup_rounds=1, launches_per_round=1)
    assert record["failed"] == 0, record["problems"]
    metrics = record["metrics"]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0
    partial = {name: m["unit"] for name, m in metrics.items()
               if name not in run.END_TO_END}
    assert partial == {name: run.PARTIAL[name] for name in PARTIAL[workload]}
    assert record["environment"]["threads"]["OMP_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_reports_every_layer(workload):
    record = run.measure(workload, seed=7, seconds=0, trace=True, tiny=True)
    assert record["failed"] == 0, record["problems"]
    metrics = record["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: m["unit"] for name, m in metrics.items()}
    assert metrics["cli.commands"]["value"] == len(workloads.commands(workload, 7))
    assert metrics["setup.import_pbslab_s"]["value"] > 0
    if workload == "mc-verify":  # the 8+8 case: one quantile per bidder
        assert metrics["simulator.quantile_values_per_rep"]["value"] == 16

