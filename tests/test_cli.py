"""CLI surface: flags, files, exit codes, determinism."""

import csv
import json
import os
import platform
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pbslab
import pbslab.cli as cli
import pbslab.private_equilibrium as pe
from pbslab.cli import _solution_csv, build_parser, main
from pbslab.distributions import Beta

SVG_NS = "{http://www.w3.org/2000/svg}"


def _read_csv_columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    return header, data


# -------------------------------- solve-private --------------------------------


def test_solve_private_closed_form(tmp_path, capsys):
    out = tmp_path / "solution.csv"
    rc = main(["solve-private", "--na", "3", "--nb", "1",
               "--fa", "uniform(0,1)", "--fb", "uniform(0,1)",
               "--out", str(out)])
    assert rc == 0
    header, data = _read_csv_columns(out)
    assert header == ["v", "sigma", "x", "S"]
    v, sigma = data[:, 0], data[:, 1]
    assert np.max(np.abs(sigma - 0.75 * v)) < 1e-3

    envelope = json.loads(out.with_suffix(".json").read_text())
    assert envelope["schema_version"] == 1
    assert envelope["solver"]["residual"] <= envelope["solver"]["tol"]
    assert envelope["residuals"]["equation"] <= 1e-6
    assert "created_utc" in envelope["meta"]


def test_solve_private_auto_cross_checks(tmp_path, capsys):
    """auto certifies the schedule by best response: the JSON holds the gain,
    where it occurs, its bound and the ungated top-value gain; the bid gap
    stays a number; stdout names the gain."""
    out = tmp_path / "beta.csv"
    rc = main(["solve-private", "--na", "3", "--nb", "3",
               "--fa", "beta(2,2)", "--fb", "beta(2,2)", "--out", str(out)])
    assert rc == 0
    residuals = json.loads(out.with_suffix(".json").read_text())["residuals"]
    disagreement = residuals["cross_method_max_disagreement"]
    assert disagreement is not None and disagreement < 2e-3
    assert "cross_method_note" not in residuals
    best = residuals["best_response"]
    assert set(best) == {"max_gain", "at_value", "bound", "top_gain"}
    assert best["max_gain"] <= best["bound"] == 10.0 / 512**2
    assert 0.0 <= best["at_value"] < 1.0
    assert capsys.readouterr().out.endswith(
        f"best-response max gain={best['max_gain']:.3g} (bound 3.81e-05)\n")
    _, data = _read_csv_columns(out)
    v, sigma = data[:, 0], data[:, 1]
    assert np.all(np.diff(sigma) > 0)
    assert np.all(sigma <= v + 1e-12)


def test_solve_private_json_residuals_layout(tmp_path, capsys):
    """The residuals block holds exactly the equation defect, the bid gap and
    the best-response certificate; the benchmark reads the first two."""
    out = tmp_path / "u.csv"
    assert main(["solve-private", "--na", "3", "--nb", "1", "--fa", "uniform(0,1)",
                 "--fb", "uniform(0,1)", "--out", str(out)]) == 0
    residuals = json.loads(out.with_suffix(".json").read_text())["residuals"]
    assert set(residuals) == {"equation", "cross_method_max_disagreement",
                              "best_response"}


def _fail_on_solve(monkeypatch, reason: str):
    """Make every solver the CLI calls fail the test with ``reason``."""
    import pbslab.cli as cli

    def solver(*args, **kwargs):
        raise AssertionError(reason)

    monkeypatch.setattr(cli, "solve_fixed_point", solver)
    monkeypatch.setattr(cli, "solve_candlestick", solver)


def test_solve_private_out_named_like_its_json_is_usage_error(tmp_path, capsys,
                                                             monkeypatch):
    """An --out ending in .json would be overwritten by the JSON written
    beside it: exit 2 before solving, with no file written."""
    _fail_on_solve(monkeypatch, "solved before --out was checked")
    out = tmp_path / "x.json"
    assert main(["solve-private", "--na", "3", "--nb", "1", "--fa", "uniform(0,1)",
                 "--fb", "uniform(0,1)", "--out", str(out)]) == 2
    assert "companion JSON" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_solve_private_auto_rejects_a_mis_shaded_schedule(tmp_path, capsys,
                                                          monkeypatch, mis_shade):
    """A schedule 2% below the solved one fails the certificate: exit 4 with
    the reason on stderr, and both outputs still written."""
    import pbslab.cli as cli

    real = cli.solve_fixed_point
    monkeypatch.setattr(cli, "solve_fixed_point",
                        lambda *args, **kwargs: mis_shade(real(*args, **kwargs)))
    out = tmp_path / "beta.csv"
    rc = cli.main(["solve-private", "--na", "3", "--nb", "3", "--fa", "beta(2,2)",
                   "--fb", "beta(2,2)", "--out", str(out)])
    assert rc == 4
    assert "verification failure" in capsys.readouterr().err
    best = json.loads(out.with_suffix(".json").read_text())["residuals"]["best_response"]
    assert best["max_gain"] > best["bound"]
    assert out.exists()


@pytest.mark.parametrize("nb, method", [("3", "newton"), ("1", "argmax")])
def test_solve_private_json_reports_solver_path(tmp_path, capsys, nb, method):
    """The solver block names the path taken and holds the residual after
    every step, and for Newton steps the grid points each marched; stdout
    keeps its one line."""
    out = tmp_path / "beta.csv"
    rc = main(["solve-private", "--na", "3", "--nb", nb, "--fa", "beta(2,2)",
               "--fb", "beta(2,2)", "--method", "fixed-point", "--out", str(out)])
    assert rc == 0
    solver = json.loads(out.with_suffix(".json").read_text())["solver"]
    assert solver["method"] == method
    assert "restarts" not in solver
    history = solver["residual_history"]
    assert len(history) == solver["iterations"] > 0
    assert history[-1] == solver["residual"] <= solver["tol"]
    if method == "newton":
        assert len(solver["marched"]) == solver["iterations"]
    else:
        assert solver["marched"] is None
    assert capsys.readouterr().out == (
        f"solved: residual={solver['residual']:.3g} ({method})\n")


def test_solve_private_json_reports_the_points_each_step_marched(tmp_path):
    """Beta(0.7,3) 3+3 at grid 8192 starts from the grid-512 schedule; its
    last step marches fewer than 1% of the grid, as every point below the
    first unsettled one keeps its bid."""
    out = tmp_path / "skewed.csv"
    assert main(["solve-private", "--na", "3", "--nb", "3", "--fa", "beta(0.7,3)",
                 "--fb", "beta(0.7,3)", "--grid", "8192", "--method", "fixed-point",
                 "--out", str(out)]) == 0
    solver = json.loads(out.with_suffix(".json").read_text())["solver"]
    marched = solver["marched"]
    assert len(marched) == solver["iterations"] > 0
    assert all(0 < m <= 8192 for m in marched)
    assert marched[-1] < 82


@pytest.mark.parametrize("nb", ["1", "3"])
def test_solve_private_tol_is_in_value_units(tmp_path, capsys, nb):
    """``--tol`` bounds the residual in the units of the values: on
    uniform(0,1e200) the default 1e-6 is below what a double can resolve,
    and a tolerance at the scale of the values certifies the schedule."""
    out = tmp_path / "wide.csv"
    assert main(["solve-private", "--na", "3", "--nb", nb, "--fa", "uniform(0,1e200)",
                 "--fb", "uniform(0,1e200)", "--tol", "1e194", "--out", str(out)]) == 0
    solver = json.loads(out.with_suffix(".json").read_text())["solver"]
    assert solver["tol"] == 1e194 and solver["residual"] <= 1e194
    assert "solved: " in capsys.readouterr().out


@pytest.mark.parametrize("grid", ["512", "1024", "4096"])
def test_solve_private_json_reports_the_start(tmp_path, grid):
    """``solver.start`` names the schedule the steps began from: the start
    line up to grid 512, above it the grid-512 solve with its own steps and
    residual; ``iterations`` and ``residual_history`` stay the fine solve's."""
    out = tmp_path / "beta.csv"
    assert main(["solve-private", "--na", "3", "--nb", "3", "--fa", "beta(2,2)",
                 "--fb", "beta(2,2)", "--grid", grid, "--out", str(out)]) == 0
    solver = json.loads(out.with_suffix(".json").read_text())["solver"]
    assert len(solver["residual_history"]) == solver["iterations"]
    assert solver["grid_size"] == int(grid)
    if grid == "512":
        assert solver["start"] == "start line"
    else:
        coarse = pe.solve_fixed_point(pe.HybridAuctionConfig(3, 3, Beta(2, 2), Beta(2, 2)))
        assert solver["start"] == {"grid_size": 512, "iterations": coarse.iterations,
                                   "residual": coarse.residual}


class _Table:
    """A solution as the CSV writer sees it: four named columns."""

    def __init__(self, columns):
        self.columns = columns

    def table(self):
        return dict(zip(("v", "sigma", "x", "S"), self.columns))


_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e12,
                     999999999999.5, 1e12 + 0.25, 123456789012.3456]),
    st.floats(min_value=-2e12, max_value=2e12, allow_subnormal=True))


@given(table=hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.just(4)),
                        elements=_CSV_FLOATS))
@settings(max_examples=200, deadline=None)
def test_solution_csv_equals_per_row_formatting(table):
    """One ``%`` over each block of rows writes the same text as formatting
    each row on its own, for zeros, subnormals and values near 1e12, with
    the tables in one block and cut into blocks of 3 rows."""
    rows = ["%.12g,%.12g,%.12g,%.12g\n" % tuple(row) for row in table.tolist()]
    for block_rows in (cli._CSV_BLOCK_ROWS, 3):
        with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
            text = _solution_csv(_Table(list(table.T)))
        assert text == "v,sigma,x,S\n" + "".join(rows)


def test_solve_private_auto_skips_singular_cross_check(tmp_path, deadline):
    """Beta(0.7,3) 3+3, where the ODE form is singular near v = 1: auto ends
    well within the deadline, the certificate passes and the schedule is the
    fixed point's, byte for byte."""
    flags = ["solve-private", "--na", "3", "--nb", "3",
             "--fa", "beta(0.7,3)", "--fb", "beta(0.7,3)"]
    auto, fixed = tmp_path / "auto.csv", tmp_path / "fixed.csv"
    assert main(flags + ["--out", str(auto)]) == 0
    residuals = json.loads(auto.with_suffix(".json").read_text())["residuals"]
    assert residuals["best_response"]["max_gain"] <= residuals["best_response"]["bound"]
    assert residuals["cross_method_max_disagreement"] < 2e-3
    assert main(flags + ["--method", "fixed-point", "--out", str(fixed)]) == 0
    assert auto.read_text() == fixed.read_text()
    assert json.loads(fixed.with_suffix(".json").read_text())["residuals"][
        "best_response"] is None


@pytest.mark.parametrize("grid", ["64", "128", "256"])
def test_solve_private_auto_certifies_coarse_grids(tmp_path, grid):
    """A coarse grid's correct schedule passes: the bound widens with the
    grid's own error, which at grid 64 is far above 1e-5 of the range."""
    out = tmp_path / "beta.csv"
    assert main(["solve-private", "--na", "3", "--nb", "3", "--fa", "beta(2,2)",
                 "--fb", "beta(2,2)", "--grid", grid, "--out", str(out)]) == 0
    best = json.loads(out.with_suffix(".json").read_text())["residuals"]["best_response"]
    assert best["max_gain"] <= best["bound"] == 10.0 / int(grid) ** 2


@pytest.mark.parametrize("law, na, nb", [
    ("beta(0.7,3)", 3, 3),
    ("lognormal(0,0.5)", 2, 4),
])
def test_solve_private_solver_failure_exits_3(tmp_path, capsys, monkeypatch,
                                              deadline, law, na, nb):
    """auto's solver stopped short of its tolerance: exit 3 with the
    reason on stderr, and neither the CSV nor the JSON is written."""
    monkeypatch.setattr(pe, "_MAX_STEPS", 2)
    out = tmp_path / "fp.csv"
    rc = main(["solve-private", "--na", str(na), "--nb", str(nb), "--fa", law,
               "--fb", law, "--out", str(out)])
    assert rc == 3
    assert "newton solve did not reach tol=1e-06 after 2 steps" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".json").exists()


def test_solve_private_zero_tolerance_ends_at_the_step_cap(tmp_path, capsys, deadline):
    """--tol 0 is legal and never met: exit 3 after the step cap, quickly."""
    out = tmp_path / "zero.csv"
    rc = main(["solve-private", "--na", "3", "--nb", "3", "--fa", "beta(2,2)",
               "--fb", "beta(2,2)", "--tol", "0", "--out", str(out)])
    assert rc == 3
    assert (f"did not reach tol=0 after {pe._MAX_STEPS} steps"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("grid", ["512", "4096"])
def test_solve_private_empirical_single_neutral_is_certified(tmp_path, capsys,
                                                             deadline, grid):
    """An empirical law whose log CDF is not concave, with one neutral
    builder against three integrated: solved by argmax and certified."""
    law = tmp_path / "law.csv"
    law.write_text("x,cdf\n0,0\n0.2,0.1\n0.5,0.5\n1,0.9\n2,1\n")
    spec = f"empirical({law})"
    out = tmp_path / "emp.csv"
    assert main(["solve-private", "--na", "3", "--nb", "1", "--fa", spec,
                 "--fb", spec, "--grid", grid, "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".json").read_text())
    assert report["solver"]["method"] == "argmax"
    best = report["residuals"]["best_response"]
    assert best["max_gain"] <= best["bound"]


# integrated values with mass below the neutral values
BELOW_NEUTRAL_LAWS = ("--fa", "uniform(0,1)", "--fb", "uniform(0.5,1.5)")


@pytest.mark.parametrize("command, flags", [
    ("solve-private", ()), ("simulate", ("--model", "hybrid")), ("figure", ())])
def test_single_neutral_rule_is_usage_error(tmp_path, capsys, command, flags):
    """With one neutral builder, integrated values with mass below the
    neutral values exit 2 with the model's rule, and no file is written."""
    out = tmp_path / "out.svg"
    assert main([command, *flags, "--na", "3", "--nb", "1", *BELOW_NEUTRAL_LAWS,
                 "--out", str(out)]) == 2
    assert ("integrated values must not start below the neutral values"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_solve_private_missing_flag_is_usage_error(tmp_path):
    rc = main(["solve-private", "--na", "3", "--nb", "1",
               "--fb", "uniform(0,1)", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_solve_private_bad_distribution_spec(tmp_path):
    rc = main(["solve-private", "--na", "3", "--nb", "1",
               "--fa", "cauchy(0,1)", "--fb", "uniform(0,1)",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("command", ["solve-private", "simulate", "sweep"])
@pytest.mark.parametrize("law", ["x,cdf\n0,0\n1\n", "lognormal(0,inf)"],
                         ids=["empirical-short-row", "lognormal-infinite-sd"])
def test_malformed_law_is_a_usage_error(tmp_path, capsys, recwarn, command, law):
    """Rejected with exit 2 before any work: no traceback, no warning."""
    if law.startswith("x,cdf"):
        path = tmp_path / "law.csv"
        path.write_text(law)
        law = f"empirical({path})"
    out = tmp_path / "x.csv"
    flags = {"solve-private": [], "simulate": ["--model", "hybrid"],
             "sweep": ["--axis", "na", "--grid", "1,2"]}[command]
    rc = main([command, *flags, "--na", "2", "--nb", "2", "--fa", law,
               "--fb", "uniform(0,1)", "--out", str(out)])
    assert rc == 2
    assert "invalid arguments" in capsys.readouterr().err
    assert not recwarn.list
    assert not out.exists()


@pytest.mark.parametrize("fb", ["beta(1e-300,2)", "beta(2,1e-300)", "beta(1e-20,3)",
                                "beta(inf,2)", "beta(1e-200,1e-200)"])
def test_solve_private_extreme_beta_shapes_are_usage_errors(tmp_path, capsys, fb):
    out = tmp_path / "x.csv"
    rc = main(["solve-private", "--na", "2", "--nb", "2", "--fa", "uniform(0,1)",
               "--fb", fb, "--out", str(out)])
    assert rc == 2
    assert "beta shape" in capsys.readouterr().err
    assert not out.exists()


def test_solve_private_ode_method(tmp_path, capsys):
    """The ODE left the program: --method ode is an invalid choice."""
    out = tmp_path / "ode.csv"
    rc = main(["solve-private", "--na", "3", "--nb", "3",
               "--fa", "uniform(0,1)", "--fb", "uniform(0,1)",
               "--method", "ode", "--out", str(out)])
    assert rc == 2
    assert "invalid choice: 'ode'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ("--tol", "-1", "--method", "fixed-point"),
    ("--tol", "-1", "--method", "auto"),
    ("--tol", "inf", "--method", "fixed-point"),
    ("--tol", "nan", "--method", "auto"),
])
def test_solve_private_unmeetable_limits_are_usage_errors(tmp_path, capsys, recwarn,
                                                         deadline, flags):
    """Rejected before any work: no solver warning, no sweeps up to the cap."""
    out = tmp_path / "x.csv"
    rc = main(["solve-private", "--na", "3", "--nb", "3",
               "--fa", "beta(2,2)", "--fb", "beta(2,2)", *flags, "--out", str(out)])
    assert rc == 2
    assert flags[0].lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not recwarn.list
    assert not out.exists()


# ------------------------------ solve-candlestick ------------------------------


@pytest.mark.parametrize("p,expected", [("0", 1.0), ("1", 0.0)])
def test_solve_candlestick_endpoints(tmp_path, p, expected):
    out = tmp_path / "c.json"
    rc = main(["solve-candlestick", "--v0", "1", "--vol", "0.2", "--delta", "1",
               "--p", p, "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["b0s"] == expected


def test_solve_candlestick_interior(tmp_path):
    out = tmp_path / "c.json"
    rc = main(["solve-candlestick", "--p", "0.5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert abs(payload["residual"]) < 1e-10
    assert 0.0 < payload["b0s"] < 1.0
    assert payload["schema_version"] == 1


@pytest.mark.parametrize("flags", [
    ("--vol", "1.4e154"), ("--v0", "inf"), ("--delta", "nan"),
    ("--tol", "-1"), ("--tol", "nan"),
])
def test_solve_candlestick_invalid_inputs_are_usage_errors(tmp_path, recwarn, flags):
    """Rejected with exit 2 before any work: no traceback, no warning."""
    out = tmp_path / "c.json"
    rc = main(["solve-candlestick", "--p", "0.5", *flags, "--out", str(out)])
    assert rc == 2
    assert not recwarn.list
    assert not out.exists()


def test_json_meta_records_versions_and_argv(tmp_path, capsys):
    """The meta block names the versions and the arguments that made the
    file; the line on stdout does not carry them."""
    out = tmp_path / "c.json"
    argv = ["solve-candlestick", "--p", "0.5", "--out", str(out)]
    assert main(argv) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["argv"] == argv
    assert meta["versions"] == {"pbslab": pbslab.__version__,
                                "numpy": np.__version__,
                                "scipy": scipy.__version__,
                                "python": platform.python_version()}
    assert "created_utc" in meta
    stdout = capsys.readouterr().out
    assert stdout.startswith("b0s=") and stdout.count("\n") == 1


# ---------------------------------- simulate -----------------------------------


def test_simulate_hybrid_pass_line(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["simulate", "--model", "hybrid", "--na", "3", "--nb", "1",
               "--reps", "50000", "--seed", "42", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS")
    payload = json.loads(out.read_text())
    assert payload["agreement_ok"] is True
    assert payload["reps"] == 50000


def test_simulate_disagreement_exits_4(tmp_path, monkeypatch):
    import dataclasses

    import pbslab.cli as cli

    real = cli.simulate_hybrid

    def poisoned(solution, reps, seed):
        report = real(solution, reps, seed)
        checks = [dict(c) for c in report.checks]
        checks[0]["ok"] = False
        return dataclasses.replace(report, checks=checks)

    monkeypatch.setattr(cli, "simulate_hybrid", poisoned)
    rc = cli.main(["simulate", "--model", "hybrid", "--reps", "10000",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 4
    assert (tmp_path / "r.json").exists()  # the report is still written


@pytest.mark.parametrize("cpus, reps, processes", [
    (2, "100000", 2),   # 13 blocks, split between two processes
    (2, "20000", 1),    # 3 blocks, below the cutoff
    (1, "100000", 1),
])
def test_simulate_meta_records_processes(tmp_path, monkeypatch, cpus, reps,
                                         processes):
    """``meta.processes`` counts the processes that computed blocks; the
    rest of the document does not depend on it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    out = tmp_path / "r.json"
    assert main(["simulate", "--model", "candlestick", "--p", "0.5",
                 "--reps", reps, "--seed", "7", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["processes"] == processes


@pytest.mark.parametrize("model", ["hybrid", "candlestick"])
def test_simulate_rejects_too_few_reps_before_solving(tmp_path, monkeypatch, model):
    _fail_on_solve(monkeypatch, "solved before the replication count was checked")
    out = tmp_path / "r.json"
    assert main(["simulate", "--model", model, "--reps", "5000",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("model", ["hybrid", "candlestick"])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_simulate_rejects_a_bad_seed_before_solving(tmp_path, capsys, monkeypatch,
                                                    model, seed):
    _fail_on_solve(monkeypatch, "solved before the seed was checked")
    out = tmp_path / "r.json"
    assert main(["simulate", "--model", model, "--seed", seed,
                 "--out", str(out)]) == 2
    assert "seed must be a 64-bit nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


def _reject_constant(token):
    raise ValueError(f"{token} in a JSON output")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v0, reps, rc", [
    ("1e100", "10000", 0), ("1e200", "10000", 2), ("1e308", "10000", 2),
    # each block's squares fit, but not the run's: rejected before the first block
    ("2.9e151", "10000000", 2),
])
def test_simulate_candlestick_value_scale(tmp_path, capsys, v0, reps, rc):
    """A value scale whose squares could overflow the run's moments exits 2
    without a warning or a file; a smaller one writes strict JSON."""
    out = tmp_path / "scale.json"
    assert main(["simulate", "--model", "candlestick", "--v0", v0, "--reps", reps,
                 "--out", str(out)]) == rc
    if rc:
        assert "overflows the moments" in capsys.readouterr().err
        assert not out.exists()
    else:
        json.loads(out.read_text(), parse_constant=_reject_constant)


def test_simulate_candlestick_deterministic_output(tmp_path):
    """Identical seeds give byte-identical JSON apart from the meta key."""
    args = ["simulate", "--model", "candlestick", "--p", "0.5",
            "--reps", "20000", "--seed", "7"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1.pop("meta"), d2.pop("meta")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert set(d1["config"]) == {"v0", "vol", "delta", "p"}


@pytest.mark.parametrize("command", [
    ("simulate", "--model", "candlestick"),
    ("sweep", "--axis", "p", "--grid", "0.5"),
])
def test_slow_bidder_count_is_not_an_option(tmp_path, capsys, command):
    """The zero-profit condition presumes two or more slow bidders and no
    number depends on how many: neither a flag nor a config key sets it."""
    out = tmp_path / "r.out"
    assert main([*command, "--n-slow", "3", "--out", str(out)]) == 2
    assert "unrecognized arguments: --n-slow" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_slow": 2, "out": str(out)}))
    assert main([*command, "--config", str(cfg)]) == 2
    assert "unknown config keys: n_slow" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------- sweep -------------------------------------


def test_sweep_p_axis_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--axis", "p", "--grid", "0,0.25,0.5,0.75,1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis_value,b0s,slow_win_prob,fast_profit,status"
    assert len(lines) == 6
    first, last = lines[1].split(","), lines[-1].split(",")
    assert float(first[1]) == 1.0 and float(last[1]) == 0.0


def test_sweep_na_axis_slopes(tmp_path):
    out = tmp_path / "sweep_na.csv"
    rc = main(["sweep", "--axis", "na", "--grid", "1,2,3,5", "--nb", "1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis_value,slope_fit,residual,status"
    slopes = [float(line.split(",")[1]) for line in lines[1:]]
    assert slopes == pytest.approx([0.5, 2 / 3, 0.75, 5 / 6], abs=1e-6)


@pytest.mark.parametrize("grid", ["", ",", []])
def test_sweep_without_axis_values_is_usage_error(tmp_path, capsys, grid):
    """No axis values, by flag or as a config-file list: exit 2, no file."""
    out, cfg = tmp_path / "empty.csv", tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"grid": grid}))
    flags = ["--config", str(cfg)] if isinstance(grid, list) else ["--grid", grid]
    assert main(["sweep", "--axis", "p", *flags, "--out", str(out)]) == 2
    assert "--grid holds no axis values" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_malformed_grid(tmp_path):
    rc = main(["sweep", "--axis", "p", "--grid", "0,zebra,1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("axis", ["p", "na"])
@pytest.mark.parametrize("law", [("--fa", "bogus"), ("--fb", "bogus(1)")])
def test_sweep_malformed_law_is_usage_error(tmp_path, axis, law):
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--axis", axis, "--grid", "1,2", *law, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("reps", ["5", "9999", "-5"])
def test_sweep_too_few_verify_reps_is_usage_error(tmp_path, reps):
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--axis", "p", "--grid", "0.5", "--verify-reps", reps,
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_sweep_bad_seed_is_usage_error(tmp_path, capsys, monkeypatch):
    """With verification on, a seed out of range exits 2 before any point
    is solved, instead of turning every row into an error row."""
    _fail_on_solve(monkeypatch, "solved before the seed was checked")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--axis", "p", "--grid", "0.2,0.5", "--verify-reps", "20000",
                 "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be a 64-bit nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis", ["na", "nb"])
@pytest.mark.parametrize("flags", [("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
                                   ("--grid-size", "10")])
def test_private_sweep_checks_solve_flags_first(tmp_path, capsys, monkeypatch,
                                                axis, flags):
    """Exit 2 before any point is solved, instead of an error in every row."""
    _fail_on_solve(monkeypatch, "solved before --tol and --grid-size were checked")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--axis", axis, "--grid", "1,2", *flags,
                 "--out", str(out)]) == 2
    assert flags[0].lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def _sweep_rows(tmp_path, *flags):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_grid_size_and_tol_reach_the_points(tmp_path, monkeypatch):
    import pbslab.cli as cli

    flags = ["--axis", "na", "--grid", "3", "--nb", "2",
             "--fa", "beta(2,2)", "--fb", "beta(2,2)"]
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--grid-size", "10", "--out", str(out)]) == 2
    assert not out.exists()
    [row] = _sweep_rows(tmp_path, *flags)
    assert row["status"] == "ok" and float(row["residual"]) <= 1e-6
    [row] = _sweep_rows(tmp_path, *flags, "--tol", "0.5")
    assert row["status"] == "ok" and 1e-6 < float(row["residual"]) <= 0.5

    seen = []

    def spy(config, grid_size, tol):
        seen.append((grid_size, tol))
        return solve(config, grid_size, tol)

    solve = cli.solve_fixed_point
    monkeypatch.setattr(cli, "solve_fixed_point", spy)
    [row] = _sweep_rows(tmp_path, *flags, "--grid-size", "64", "--tol", "1e-4")
    assert row["status"] == "ok" and seen == [(64, 1e-4)]


def test_sweep_overflowing_vol_is_an_error_row(tmp_path):
    rows = _sweep_rows(tmp_path, "--axis", "vol", "--grid", "0.1,1.4e154", "--p", "0.5")
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error: ValueError: ")


def test_sweep_overflowing_v0_is_an_error_row(tmp_path):
    [row] = _sweep_rows(tmp_path, "--axis", "p", "--grid", "0.5", "--v0", "1e200",
                        "--verify-reps", "10000")
    assert row["status"].startswith("error: ValueError: v0=1e+200 overflows the moments")


def test_sweep_single_neutral_rule_is_an_error_row(tmp_path):
    rows = _sweep_rows(tmp_path, "--axis", "na", "--grid", "0,3", "--nb", "1",
                       *BELOW_NEUTRAL_LAWS)
    assert [row["status"] for row in rows] == [
        "error: ValueError: degenerate auction: a single neutral bidder with no "
        "integrated competition has no interior bid",
        "error: ValueError: integrated values must not start below the neutral values"]


def test_sweep_failed_verification_is_a_row_status(tmp_path, capsys):
    """At vol 20 the sample half-width of the fast profit cannot see the
    value law's tail (0 +- 0 against 0.5): the row's check fails, its status
    says so, and the sweep still exits 0."""
    [row] = _sweep_rows(tmp_path, "--axis", "vol", "--grid", "20", "--p", "0.5",
                        "--verify-reps", "10000")
    assert row["b0s"] == "0.5" and row["status"] == "verify-failed"
    assert "1 rows, 1 non-ok" in capsys.readouterr().out


def test_sweep_extreme_beta_shape_is_an_error_row(tmp_path):
    [row] = _sweep_rows(tmp_path, "--axis", "na", "--grid", "1", "--fb", "beta(1e-20,3)")
    assert row["status"].startswith("error: ValueError: beta shapes")


# ------------------------- verified sweeps on two processes --------------------------


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the na grid's 1.5 makes an error row; p = 0 revises no row, p = 1 every row
@pytest.mark.parametrize("flags, errors", [
    (("--axis", "na", "--grid", "1,1.5,2,3,5", "--nb", "1",
      "--fa", "beta(2,2)", "--fb", "beta(2,2)"), 1),
    (("--axis", "p", "--grid", "0,0.25,0.5,0.75,1"), 0),
])
def test_forked_sweep_writes_the_serial_csv(tmp_path, cpus, forks, capfd, flags,
                                            errors):
    """One fork splits the points; the child prints and writes nothing."""
    def run(name):
        out = tmp_path / name
        assert main(["sweep", *flags, "--verify-reps", "20000", "--seed", "5",
                     "--out", str(out)]) == 0
        return out.read_bytes()

    cpus(1)
    serial = run("serial.csv")
    assert forks == []
    cpus(2)
    forked = run("forked.csv")
    assert len(forks) == 1
    assert forked == serial
    assert serial.count(b"error: ValueError: ") == errors
    out, err = capfd.readouterr()
    assert out.splitlines() == [f"sweep over {flags[1]}: 5 rows, {errors} non-ok"] * 2
    assert err == ""
    assert sorted(os.listdir(tmp_path)) == ["forked.csv", "serial.csv"]
    _assert_no_child_left()


@pytest.mark.parametrize("flags, n_forks", [
    (("--grid", "0.2,0.5,0.8"), 0),  # unverified
    (("--grid", "0.5", "--verify-reps", "20000"), 0),
    # one point a process saves less than the fork round trip costs
    (("--grid", "0.2,0.5", "--verify-reps", "20000"), 0),
    (("--grid", "0.2,0.5,0.8", "--verify-reps", "20000"), 1),
    # runs of 4 blocks split their own blocks, one fork per run
    (("--grid", "0.2,0.5,0.8", "--verify-reps", "32768"), 3),
])
def test_sweep_forks(tmp_path, cpus, forks, flags, n_forks):
    cpus(2)
    assert main(["sweep", "--axis", "p", *flags, "--out", str(tmp_path / "s.csv")]) == 0
    assert len(forks) == n_forks
    _assert_no_child_left()


# grid 0.2,0.4 | 0.6,0.8: this process's half, then the child's
@pytest.mark.parametrize("bad", [0.4, 0.8])
def test_sweep_point_error_is_raised_as_in_a_serial_run(tmp_path, monkeypatch, cpus,
                                                        forks, bad):
    import pbslab.cli as cli

    real = cli.solve_candlestick

    def solve(config, **kwargs):
        if config.p == bad:
            raise LookupError(f"no solution at p={bad}")
        return real(config, **kwargs)

    monkeypatch.setattr(cli, "solve_candlestick", solve)
    out = tmp_path / "s.csv"
    errors = []
    for n in (1, 2):
        cpus(n)
        with pytest.raises(LookupError) as info:
            main(["sweep", "--axis", "p", "--grid", "0.2,0.4,0.6,0.8",
                  "--verify-reps", "20000", "--out", str(out)])
        errors.append((info.type, str(info.value)))
        _assert_no_child_left()
    assert len(forks) == 1
    assert errors == [(LookupError, f"no solution at p={bad}")] * 2
    assert not out.exists()


# ----------------------------------- figure ------------------------------------


def test_figure_default_beta(tmp_path):
    out = tmp_path / "fig.svg"
    rc = main(["figure", "--out", str(out)])
    assert rc == 0
    root = ET.fromstring(out.read_text())
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 2
    texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
    assert any("value" in t for t in texts if t)
    assert any("bid" in t for t in texts if t)

    header, data = _read_csv_columns(out.with_suffix(".csv"))
    v, sigma = data[:, 0], data[:, 1]
    interior = (v > 0) & (v < 1)
    assert np.all(np.diff(sigma) > 0)
    assert np.all(sigma[interior] < v[interior])


def test_figure_uniform_single_neutral_is_straight_line(tmp_path):
    out = tmp_path / "line.svg"
    rc = main(["figure", "--fa", "uniform(0,1)", "--fb", "uniform(0,1)",
               "--na", "3", "--nb", "1", "--out", str(out)])
    assert rc == 0
    _, data = _read_csv_columns(out.with_suffix(".csv"))
    assert np.max(np.abs(data[:, 1] - 0.75 * data[:, 0])) < 1e-3


def test_figure_escapes_markup_in_the_law_spec(tmp_path):
    """A law spec is free text; its '&' and '<' reach the title escaped."""
    law = tmp_path / "a&b<c" / "e.csv"
    law.parent.mkdir()
    law.write_text("x,cdf\n0,0\n1,1\n")
    spec = f"empirical({law})"
    out = tmp_path / "fig.svg"
    assert main(["figure", "--fb", spec, "--na", "2", "--nb", "2", "--out", str(out)]) == 0
    texts = [t.text for t in ET.fromstring(out.read_text()).iter(f"{SVG_NS}text")]
    assert any(t and t.endswith(f"fb={spec}") for t in texts)


def test_figure_unwritable_path_leaves_nothing(tmp_path):
    target = tmp_path / "missing_dir" / "fig.svg"
    rc = main(["figure", "--out", str(target)])
    assert rc == 5
    assert not target.parent.exists()
    assert list(tmp_path.iterdir()) == []


def test_failed_rename_exits_5_and_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    """A write whose final rename fails removes its temp file: exit 5 and
    nothing beside --out."""
    def refuse(src, dst):
        raise PermissionError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(cli.os, "replace", refuse)
    out = tmp_path / "candle.json"
    assert main(["solve-candlestick", "--p", "0.5", "--out", str(out)]) == 5
    assert "i/o failure: cannot rename" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_figure_out_named_like_its_csv_is_usage_error(tmp_path, capsys, monkeypatch):
    """An --out ending in .csv would be overwritten by the CSV written beside
    it: exit 2 before solving, with no file written."""
    _fail_on_solve(monkeypatch, "solved before --out was checked")
    out = tmp_path / "fig.csv"
    assert main(["figure", "--out", str(out)]) == 2
    assert "companion CSV" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ------------------------------- config file mode ------------------------------


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"na": 3, "nb": 1, "fa": "uniform(0,1)",
                               "fb": "uniform(0,1)",
                               "out": str(tmp_path / "from_file.csv")}))
    rc = main(["solve-private", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "from_file.csv").exists()


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"na": 1, "nb": 1, "fa": "uniform(0,1)",
                               "fb": "uniform(0,1)",
                               "out": str(tmp_path / "ignored.csv")}))
    out = tmp_path / "cli_wins.csv"
    rc = main(["solve-private", "--config", str(cfg), "--na", "3",
               "--out", str(out)])
    assert rc == 0
    _, data = _read_csv_columns(out)
    assert np.max(np.abs(data[:, 1] - 0.75 * data[:, 0])) < 1e-3
    assert not (tmp_path / "ignored.csv").exists()


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"na": 3, "volatility": 0.4}))
    rc = main(["solve-private", "--config", str(cfg)])
    assert rc == 2


def _private_config_file(tmp_path, **overrides):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"na": 3, "nb": 1, "fa": "uniform(0,1)",
                               "fb": "uniform(0,1)",
                               "out": str(tmp_path / "typed.csv"), **overrides}))
    return cfg


def test_config_file_string_for_integer_rejected(tmp_path, capsys):
    cfg = _private_config_file(tmp_path, na="3")
    rc = main(["solve-private", "--config", str(cfg)])
    assert rc == 2
    assert "--na" in capsys.readouterr().err
    assert not (tmp_path / "typed.csv").exists()


def test_config_file_fractional_integer_rejected(tmp_path, capsys):
    cfg = _private_config_file(tmp_path, grid=100.5)
    rc = main(["solve-private", "--config", str(cfg)])
    assert rc == 2
    assert "--grid" in capsys.readouterr().err
    assert not (tmp_path / "typed.csv").exists()


def test_config_file_integer_too_large_for_a_float_rejected(tmp_path, capsys):
    cfg = tmp_path / "candle.json"
    out = tmp_path / "candle_out.json"
    cfg.write_text(json.dumps({"v0": 10 ** 400, "p": 0.5, "out": str(out)}))
    rc = main(["solve-candlestick", "--config", str(cfg)])
    assert rc == 2
    assert "--v0" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_sweep_grid_list(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"axis": "p", "grid": [0.25, 0.5], "v0": 1,
                               "out": str(out)}))
    rc = main(["sweep", "--config", str(cfg)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.25", "0.5"]
    assert all(row.endswith(",ok") for row in rows)


def test_config_file_null_counts_as_absent(tmp_path):
    cfg = _private_config_file(tmp_path, na=None)
    assert main(["solve-private", "--config", str(cfg)]) == 2
    assert not (tmp_path / "typed.csv").exists()
    cfg = _private_config_file(tmp_path, grid=None, method=None)
    assert main(["solve-private", "--config", str(cfg)]) == 0
    _, data = _read_csv_columns(tmp_path / "typed.csv")
    assert len(data) == 512


def test_config_file_reaches_the_solver(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pe, "_MAX_STEPS", 0)
    cfg = _private_config_file(tmp_path, na=3, nb=3, fa="beta(2,2)", fb="beta(2,2)")
    assert main(["solve-private", "--config", str(cfg)]) == 3
    assert "after 0 steps" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("max_iter", 2), ("damping", 1.0)])
def test_retired_solver_knobs_are_usage_errors(tmp_path, capsys, key, value):
    """The sweep cap and the mixing weight are the solver's own: neither a
    flag nor a config key sets them."""
    out = tmp_path / "typed.csv"
    flag = "--" + key.replace("_", "-")
    assert main(["solve-private", "--na", "3", "--nb", "1", "--fa", "uniform(0,1)",
                 "--fb", "uniform(0,1)", flag, str(value), "--out", str(out)]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    cfg = _private_config_file(tmp_path, **{key: value})
    assert main(["solve-private", "--config", str(cfg)]) == 2
    assert f"unknown config keys: {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config file"), ("{\"na\": 3,", "cannot read config file"),
    ("[3, 1]", "must hold a JSON object")])
def test_unreadable_config_file_is_usage_error(tmp_path, capsys, text, message):
    """A missing file, invalid JSON and a JSON array exit 2 before any flag
    is read from them."""
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["solve-candlestick", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == ([] if text is None else [cfg])


_USAGE = "usage: pbslab [-h] {solve-private,solve-candlestick,simulate,sweep,figure} ...\n"


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config file {path}: [Errno 2] No such file or directory: '{path}'"),
    ("{\"na\": 3,", "cannot read config file {path}: Expecting property name enclosed "
                    "in double quotes: line 1 column 10 (char 9)"),
    ("[3, 1]", "config file {path} must hold a JSON object")])
def test_shared_config_parser_reads_each_file_afresh(tmp_path, capsys, text, message):
    """The ``--config`` parser is built once and shared: a missing file,
    invalid JSON and a JSON array exit 2 with the same usage and message on
    every call, the one parse leaving nothing behind for the next."""
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    for _ in range(2):
        assert main(["solve-candlestick", "--config", str(cfg)]) == 2
        expected = _USAGE + "pbslab: error: " + message.format(path=cfg) + "\n"
        assert capsys.readouterr().err == expected
    assert cli._config_parser() is cli._config_parser()


def test_abbreviated_config_flag_reads_the_file(tmp_path):
    """``--conf`` abbreviates ``--config`` for the shared parser as for the
    command's own: both runs read the file and write the same solution."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"p": 0.5, "vol": 0.8}))
    docs = []
    for flag in ("--conf", "--config", "--conf"):
        out = tmp_path / "candle.json"
        assert main(["solve-candlestick", flag, str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        del doc["meta"]  # the creation time and the arguments
        docs.append(doc)
    assert docs[0]["vol"] == 0.8
    assert docs[0] == docs[1] == docs[2]


def test_config_file_bad_choice_rejected(tmp_path):
    cfg = _private_config_file(tmp_path, method="bogus")
    assert main(["solve-private", "--config", str(cfg)]) == 2
    assert not (tmp_path / "typed.csv").exists()


# ------------------------------------ misc -------------------------------------


@pytest.mark.parametrize("cmd", ["solve-private", "solve-candlestick",
                                 "simulate", "sweep", "figure"])
def test_help_exits_zero(cmd):
    assert main([cmd, "--help"]) == 0


def _subcommand_options() -> dict[str, set[str]]:
    commands = build_parser()._subparsers._group_actions[0].choices
    return {name: {flag for action in sub._actions for flag in action.option_strings}
            for name, sub in commands.items()}


def test_each_subcommand_has_exactly_its_options():
    """A new knob is added on purpose: it has to be named here too."""
    common = {"-h", "--help", "--out", "--config"}
    hybrid = {"--na", "--nb", "--fa", "--fb", "--tol"}
    candlestick = {"--v0", "--vol", "--delta", "--p"}
    expected = {
        "solve-private": common | hybrid | {"--grid", "--method"},
        "solve-candlestick": common | candlestick,
        "simulate": common | hybrid | candlestick | {
            "--model", "--grid", "--reps", "--seed"},
        "sweep": common | hybrid | candlestick | {
            "--axis", "--grid", "--grid-size", "--verify-reps", "--seed"},
        "figure": common | hybrid | {"--grid"},
    }
    assert _subcommand_options() == expected


# two valid values of each simulate option and the flags of the model it
# applies to; the values must move a number of the report or the exit code
_SIMULATE_KNOBS = {
    "--model": ((), ("hybrid", "candlestick")),
    "--na": (("--model", "hybrid"), ("2", "3")),
    "--nb": (("--model", "hybrid"), ("1", "2")),
    "--fa": (("--model", "hybrid"), ("uniform(0,1)", "uniform(0,2)")),
    "--fb": (("--model", "hybrid"), ("uniform(0,1)", "uniform(0,2)")),
    "--grid": (("--model", "hybrid"), ("64", "128")),
    # uniform laws solve exactly; lognormal ones take Newton steps
    "--tol": (("--model", "hybrid", "--nb", "2", "--fa", "lognormal(0,0.5)",
               "--fb", "lognormal(0,0.5)"), ("1e-9", "1e-3")),
    "--v0": (("--model", "candlestick"), ("1", "2")),
    "--vol": (("--model", "candlestick"), ("0.2", "0.4")),
    "--delta": (("--model", "candlestick"), ("1", "2")),
    "--p": (("--model", "candlestick"), ("0.3", "0.6")),
    "--reps": (("--model", "hybrid"), ("10000", "10001")),
    "--seed": (("--model", "hybrid"), ("1", "2")),
}


def _simulate_outcome(out, *flags):
    """The exit code of ``pbslab simulate`` with ``flags`` and the numbers
    of the report it writes to ``out`` (None if it writes none)."""
    rc = main(["simulate", "--reps", "10000", *flags, "--out", str(out)])
    if not out.exists():
        return rc, None
    report = json.loads(out.read_text())
    return rc, {key: report[key] for key in ("stats", "analytic", "checks")}


@pytest.mark.parametrize("option", sorted(
    _subcommand_options()["simulate"] - {"-h", "--help", "--out", "--config"}))
def test_every_simulate_option_moves_the_report(tmp_path, option):
    """An option whose values leave every number and the exit code in place
    is a dead knob; a new option has to join ``_SIMULATE_KNOBS``."""
    assert option in _SIMULATE_KNOBS, f"{option} needs two values in _SIMULATE_KNOBS"
    base, values = _SIMULATE_KNOBS[option]
    first, second = (_simulate_outcome(tmp_path / f"{i}.json", *base, option, value)
                     for i, value in enumerate(values))
    assert first != second, f"{option} {values[0]} and {values[1]} give the same report"


def test_readme_names_only_existing_flags():
    """Every ``--flag`` in the README is an option of some subcommand (or
    pip's ``--no-build-isolation``), so retired flags leave the docs too."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme.read_text()))
    known = set().union(*_subcommand_options().values()) | {"--no-build-isolation"}
    assert named and named <= known, sorted(named - known)


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def _src_pythonpath() -> str:
    src = str(Path(pbslab.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def test_cli_import_loads_no_ode_or_root_finder_modules(tmp_path):
    """No code path needs scipy.integrate or scipy.optimize, so neither the
    import nor a default (auto) solve loads them."""
    code = ("import sys, pbslab.cli; "
            "assert pbslab.cli.main(['solve-private', '--na', '3', '--nb', '3', "
            "'--fa', 'beta(2,2)', '--fb', 'beta(2,2)', '--out', sys.argv[1]]) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'])))")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "auto.csv")],
                          capture_output=True, text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": _src_pythonpath()})
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "auto.json").exists()


def _private(na, nb, law, out):
    return ["solve-private", "--na", na, "--nb", nb, "--fa", law, "--fb", law,
            "--out", out]


_SCIPY_SPECIAL_STEPS = [
    ("solve-candlestick", ["solve-candlestick", "--p", "0.5", "--out", "candle.json"]),
    ("simulate candlestick", ["simulate", "--model", "candlestick", "--p", "0.5",
                              "--reps", "10000", "--seed", "7", "--out", "mc.json"]),
    ("uniform 3+1", _private("3", "1", "uniform(0,1)", "uniform.csv")),
    ("lognormal 2+4", _private("2", "4", "lognormal(0,0.5)", "lognormal.csv")),
    ("beta 3+3", _private("3", "3", "beta(2,2)", "beta.csv")),
]


def test_only_beta_laws_load_scipy_special(tmp_path):
    """In a fresh interpreter, importing the CLI and running candlestick,
    uniform and lognormal commands leaves scipy.special unloaded; the first
    Beta law loads it. Every JSON output still names scipy's version."""
    code = ("import json, sys, pbslab.cli\n"
            "loaded = {'import': 'scipy.special' in sys.modules}\n"
            "for name, argv in json.loads(sys.argv[1]):\n"
            "    assert pbslab.cli.main(argv) == 0, name\n"
            "    loaded[name] = 'scipy.special' in sys.modules\n"
            "print(json.dumps(loaded))\n")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(_SCIPY_SPECIAL_STEPS)],
                          capture_output=True, text=True, check=True, timeout=120,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": _src_pythonpath()})
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import": False, "solve-candlestick": False, "simulate candlestick": False,
        "uniform 3+1": False, "lognormal 2+4": False, "beta 3+3": True}
    for out in ("candle", "mc", "uniform", "lognormal", "beta"):
        meta = json.loads((tmp_path / f"{out}.json").read_text())["meta"]
        assert meta["versions"]["scipy"] == scipy.__version__


# (argv, config file contents or None); each command's defaults would show
# the values its predecessor parsed, had they leaked
_BACK_TO_BACK = [
    (["simulate", "--model", "candlestick", "--p", "0.3", "--reps", "10000",
      "--seed", "7", "--out", "mc_p03.json"], None),
    (["simulate", "--model", "candlestick", "--reps", "10000", "--out", "mc.json"], None),
    (["solve-candlestick", "--out", "candle_cfg.json"], {"p": 0.25, "vol": 0.3}),
    (["solve-candlestick", "--p", "0.25", "--out", "candle.json"], None),
    (["sweep", "--axis", "p", "--grid", "0.2,0.8", "--out", "sweep_cfg.csv"],
     {"delta": 2.0, "v0": 1.5}),
    (["sweep", "--axis", "p", "--grid", "0.2,0.8", "--out", "sweep.csv"], None),
    (_private("3", "1", "uniform(0,1)", "grid128.csv") + ["--grid", "128"], None),
    (_private("3", "1", "uniform(0,1)", "grid.csv"), None),
    (["figure", "--out", "fig.svg"], {"na": 2, "fb": "uniform(0,1)"}),
    (["figure", "--na", "2", "--out", "fig_default.svg"], None),
]


def _outputs(directory: Path) -> dict:
    """Every output file's content, JSON without its ``meta`` block."""
    out = {}
    for path in sorted(directory.iterdir()):
        if path.name.startswith("cfg"):
            continue
        text = path.read_text()
        if path.suffix == ".json":
            doc = json.loads(text)
            doc.pop("meta")
            text = doc
        out[path.name] = text
    return out


def _with_config_file(directory: Path, i: int, argv: list, cfg) -> list:
    if cfg is None:
        return argv
    path = directory / f"cfg{i}.json"
    path.write_text(json.dumps(cfg))
    return argv + ["--config", str(path)]


def test_back_to_back_commands_match_fresh_processes(tmp_path, capsys, monkeypatch):
    """One process shares one parser across commands; every command's exit
    code, stdout and files equal those of the same command in a fresh
    process, which builds no parser on import."""
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    code = ("import sys, pbslab.cli as cli\n"
            "assert cli.build_parser.cache_info().currsize == 0\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    monkeypatch.chdir(shared)
    in_process = []
    for i, (argv, cfg) in enumerate(_BACK_TO_BACK):
        rc = main(_with_config_file(shared, i, argv, cfg))
        in_process.append((rc, capsys.readouterr().out))
    for i, (argv, cfg) in enumerate(_BACK_TO_BACK):
        done = subprocess.run([sys.executable, "-c", code,
                               *_with_config_file(fresh, i, argv, cfg)],
                              capture_output=True, text=True, timeout=120, cwd=fresh,
                              env={**os.environ, "PYTHONPATH": _src_pythonpath()})
        assert in_process[i] == (done.returncode, done.stdout), argv
        assert in_process[i][0] == 0
    assert _outputs(shared) == _outputs(fresh)
