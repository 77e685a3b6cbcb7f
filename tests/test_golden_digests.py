"""Golden digests of seeded outputs.

The Monte Carlo estimates and the solved schedules are pure functions of
their inputs, so a change that only makes them faster must leave every bit
in place. These tests pin SHA-256 digests of the exact ``stats`` of
``simulate`` (every mean and half-width as ``float.hex``), of the CSV
bytes of ``solve-private`` and of two verified sweeps, and of the exact
``residuals`` of two certified solves. A digest that moves means an output
moved; a change that means to move one must say why and record the new
digest.
"""

import hashlib
import json

import pytest

from pbslab.cli import main
from pbslab.distributions import Lognormal
from pbslab.private_equilibrium import HybridAuctionConfig, solve_fixed_point
from pbslab.simulator import simulate_candlestick, simulate_hybrid

LOGNORMAL = Lognormal(0.0, 0.5)


def _stats_digest(report) -> str:
    exact = {name: [s.mean.hex(), s.half_width.hex()]
             for name, s in report.stats.items()}
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def lognormal_2_4():
    config = HybridAuctionConfig(2, 4, LOGNORMAL, LOGNORMAL)
    return config, solve_fixed_point(config)


# reps cover a full-block run and partial last blocks of 3,616, 5,424 and 848 rows
@pytest.mark.parametrize("case, reps, seed, digest", [
    ("beta_3_3", 20_000, 7,
     "fb0f289a84c959445aa43b9c93fb8c1d884350b21aff5886ede7ef44209bd2f1"),
    ("uniform_3_1", 30_000, 11,
     "9d8daea6fb04aa13f8131dff426d4ec4a46db6c18d8320ff50d3bb6d0da12d61"),
    ("lognormal_2_4", 40_960, 23,
     "c49df2d20453a65c75721bb75b990e057b5d29bf61cdb0fb402481b39cd564d4"),
])
def test_hybrid_stats_digest(request, case, reps, seed, digest):
    _, solution = request.getfixturevalue(case)
    assert _stats_digest(simulate_hybrid(solution, reps, seed)) == digest


def test_candlestick_stats_digest(candlestick_half):
    _, solution = candlestick_half
    report = simulate_candlestick(solution, 50_000, 42)
    assert _stats_digest(report) == (
        "1dca9770c013f5a6e344a92e53e1a645cbad1911be65d6e4663aea1992cee22e")


# a Newton solve, and an argmax solve with one neutral builder
@pytest.mark.parametrize("law, nb, digest", [
    ("beta(0.7,3)", "3", "711fa9906bf6919f274d81fd76b1b15e88df43eb3a930a3004b4986dcca7c217"),
    ("beta(2,2)", "1", "c0767cebac81f24672904c6767af132c81bd280897a98c001355adf338b5c5ef"),
])
def test_solve_private_csv_digest(tmp_path, law, nb, digest):
    out = tmp_path / "schedule.csv"
    assert main(["solve-private", "--na", "3", "--nb", nb, "--fa", law, "--fb", law,
                 "--grid", "512", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the verified sweeps of the reproduction run: each point solved, then checked
# by a 3-block Monte Carlo run
@pytest.mark.parametrize("flags, digest", [
    (("--axis", "na", "--grid", "1,2,3,4,5,8", "--fa", "beta(2,2)", "--fb", "beta(2,2)"),
     "b03bf3b8da110327179c2db22a6cb9f09ec9816107e0423070f55d782b06165c"),
    (("--axis", "p", "--grid", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"),
     "970cf83bc6185a4416537f48b0c039bd9db884c4d2cf4efdb522c213b808e8a6"),
])
def test_verified_sweep_csv_digest(tmp_path, flags, digest):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--verify-reps", "20000", "--seed", "5",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_solve_private_fine_grid_csv_digest(tmp_path):
    """The fine-grid fixed-point solve, where Newton steps dominate the run;
    it starts from the grid-512 schedule."""
    out = tmp_path / "beta_07_3_g8192.csv"
    assert main(["solve-private", "--na", "3", "--nb", "3",
                 "--fa", "beta(0.7,3)", "--fb", "beta(0.7,3)",
                 "--grid", "8192", "--method", "fixed-point",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8d93315ad59dd00bb0d2d88c8900fb823491cf78ddf91e59c748d1aa40b80f03")


def _exact(obj):
    """``obj`` with every float as ``float.hex``."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _exact(v) for k, v in obj.items()}
    return obj


# the certified solve of each solver path: Newton with three neutral
# builders, argmax with one
@pytest.mark.parametrize("nb, digest", [
    ("3", "2c92991a286bf4197606096fe7baeee916be8bb7aa3cd4549d77d2624800f713"),
    ("1", "762733b24eba403bdc94aeaa1339ae3d9da070cfb4e67df262177e09e96c399d"),
])
def test_solve_private_residuals_digest(tmp_path, nb, digest):
    out = tmp_path / "beta_2_2.csv"
    assert main(["solve-private", "--na", "3", "--nb", nb,
                 "--fa", "beta(2,2)", "--fb", "beta(2,2)",
                 "--grid", "512", "--out", str(out)]) == 0
    residuals = json.loads(out.with_suffix(".json").read_text())["residuals"]
    exact = json.dumps(_exact(residuals), sort_keys=True).encode()
    assert hashlib.sha256(exact).hexdigest() == digest


# the candlestick root finder at a high volatility: the slow bid, its
# residual and the number of bisection steps, every float exact
@pytest.mark.parametrize("p, digest", [
    ("0.1", "90f2aab674efd37ae61bf17f3b73f2b9ec9d6c413223a4fe4b1412fc83adf4e1"),
    ("0.5", "0a87600b699f67a8ab3ab96b36f0d5361c5cfcf78c0d87b21cd838dd67d236e1"),
    ("0.9", "487f60b6fe8aab04ae89cf343755d4da76a822aa17ff7c7964e779cbcc8b8fe6"),
])
def test_solve_candlestick_json_digest(tmp_path, p, digest):
    out = tmp_path / "candle.json"
    assert main(["solve-candlestick", "--p", p, "--vol", "0.8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    del doc["meta"]  # the creation time
    exact = json.dumps(_exact(doc), sort_keys=True).encode()
    assert hashlib.sha256(exact).hexdigest() == digest


def test_sweep_vol_csv_digest(tmp_path):
    """The reproduction run's volatility sweep: one root finder per point."""
    out = tmp_path / "sweep_vol.csv"
    assert main(["sweep", "--axis", "vol", "--grid", "0.05,0.1,0.2,0.3,0.5,0.8",
                 "--p", "0.5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "5fb4e66985589db7bdc8bf41252d34a7a21c41d439b502ff63b3aae3f9643bd5")


def test_figure_svg_digest(tmp_path):
    """The reproduction run's Beta(2,2) 3+3 chart, polyline points included."""
    out = tmp_path / "beta_schedule.svg"
    assert main(["figure", "--fa", "beta(2,2)", "--fb", "beta(2,2)",
                 "--na", "3", "--nb", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f31a24cdd3876dc6c0cbde8f67efa8f95598eb8d958228bd219c8381f8105226")
