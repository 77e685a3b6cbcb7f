"""Acceptance suite: every headline result at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from pbslab.common_values import (CandlestickConfig, PriceProcess,
                                  law_of_v_delta, solve_candlestick)
from pbslab.distributions import Beta, Uniform, lognormal_put_value
from pbslab.private_equilibrium import (HybridAuctionConfig, solve_fixed_point,
                                        verify_best_response)
from pbslab.simulator import simulate_candlestick, simulate_hybrid
from pbslab.cli import main

from ode_oracle import solve_ode
from reference_oracle import (envelope_defect, lognormal_truncated_mean,
                              unraveling_slow_profit)

UNIT = Uniform(0.0, 1.0)

UNIFORM_MATRIX = [(1, 1), (2, 1), (3, 1), (5, 1),
                  (1, 2), (1, 3), (1, 5), (3, 2), (3, 3), (3, 5)]


def _line(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def matrix_solutions():
    solutions = {}
    for n_int, n_neu in UNIFORM_MATRIX:
        config = HybridAuctionConfig(n_int, n_neu, UNIT, UNIT)
        solutions[(n_int, n_neu, "uniform")] = (config, solve_fixed_point(config))
    beta_config = HybridAuctionConfig(3, 3, Beta(2, 2), Beta(2, 2))
    solutions[(3, 3, "beta")] = (beta_config, solve_fixed_point(beta_config))
    return solutions


def test_criterion_01_single_neutral_closed_form():
    worst_err, worst_time = 0.0, 0.0
    for n_int in (1, 2, 3, 5):
        config = HybridAuctionConfig(n_int, 1, UNIT, UNIT)
        start = time.perf_counter()
        sol = solve_fixed_point(config, grid_size=512)
        elapsed = time.perf_counter() - start
        err = float(np.max(np.abs(sol.bids - n_int * sol.values / (n_int + 1))))
        worst_err, worst_time = max(worst_err, err), max(worst_time, elapsed)
    _line("criterion 1 (closed-form bid schedule)",
          worst_err <= 1e-3 and worst_time < 1.0,
          f"sup error {worst_err:.2e} (tol 1e-3), slowest case {worst_time:.3f}s")


def test_criterion_02_surplus_ratio(matrix_solutions):
    worst = 0.0
    for n_int in (1, 2, 3, 5):
        _, sol = matrix_solutions[(n_int, 1, "uniform")]
        top = sol.values[-1]
        ratio = sol.surplus[-1] * (n_int + 1) / top ** (n_int + 1)
        target = (n_int / (n_int + 1)) ** n_int
        worst = max(worst, abs(ratio - target))
    _line("criterion 2 (integration surplus ratio)", worst <= 1e-4,
          f"max |ratio error| {worst:.2e} (tol 1e-4; n=3 target 27/64)")


def test_criterion_03_shading_bounds(matrix_solutions):
    worst = -np.inf
    ok = True
    for n_int in (1, 3):
        for n_neu in (2, 3, 5):
            _, sol = matrix_solutions[(n_int, n_neu, "uniform")]
            floor = n_int * sol.values / (n_int + 1)
            below = float(np.max(floor - sol.bids))
            above = float(np.max(sol.bids - sol.values))
            worst = max(worst, below, above)
            ok &= below <= 1e-3 and above <= 1e-12
    _line("criterion 3 (shading bounds)", ok,
          f"worst bound violation {worst:.2e} (tol 1e-3 below, 0 above)")


def test_criterion_04_envelope_identity(matrix_solutions):
    worst = 0.0
    for _, sol in matrix_solutions.values():
        defect = envelope_defect(sol) / sol.values[-1]
        worst = max(worst, defect)
    _line("criterion 4 (surplus envelope identity)", worst <= 1e-3,
          f"max relative defect {worst:.2e} over {len(matrix_solutions)} "
          f"solutions (tol 1e-3)")


def test_criterion_05_best_response(matrix_solutions):
    worst = -np.inf
    for _, sol in matrix_solutions.values():
        worst = max(worst, float(verify_best_response(sol).gains.max()))
    _line("criterion 5 (no profitable deviation)", worst <= 1e-3,
          f"max deviation gain {worst:.2e} over up to 64 grid values and the "
          f"top value x 4000 bids (tol 1e-3)")


def test_criterion_06_solver_cross_validation(matrix_solutions):
    worst = 0.0
    for key in ((3, 3, "uniform"), (3, 3, "beta")):
        config, fp = matrix_solutions[key]
        ode = solve_ode(config)
        worst = max(worst, float(np.max(np.abs(fp.bids - ode.bids))))
    _line("criterion 6 (fixed-point vs ODE)", worst <= 2e-3,
          f"max sup-norm disagreement {worst:.2e} (tol 2e-3)")


def _quadrature_oracle_root(config: CandlestickConfig) -> float:
    """Largest sign change on a 1e5-point grid with the truncated integral by
    quadrature, then a bracketed refinement; independent of the solver."""
    process, p = config.process, config.p
    law = law_of_v_delta(process)
    v0 = process.v0
    grid = np.linspace(v0, 1e-9, 100_000)
    integrand = grid * np.asarray(law.pdf(grid), dtype=float)
    tail = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[:-1] + integrand[1:]) * -np.diff(grid))])
    full = quad(lambda x: x * float(law.pdf(x)), 0.0, v0, limit=300)[0]
    truncated = full - tail  # integral of x*pdf(x) from 0 to each grid point
    res = (1.0 - p) * (v0 - grid) + p * (
        truncated - grid * np.asarray(law.cdf(grid), dtype=float))
    k = int(np.argmax(res > 0.0))
    assert k > 0

    def residual(b):
        part = quad(lambda x: x * float(law.pdf(x)), 0.0, b, limit=300)[0]
        return (1.0 - p) * (v0 - b) + p * (part - b * float(law.cdf(b)))

    return brentq(residual, float(grid[k]), float(grid[k - 1]), xtol=1e-12)


def test_criterion_07_candlestick_roots():
    process = PriceProcess(1.0, 0.2, 1.0)
    ok = solve_candlestick(CandlestickConfig(process, 0.0)).b0s == 1.0
    ok &= solve_candlestick(CandlestickConfig(process, 1.0)).b0s == 0.0
    worst_res, worst_forms, worst_oracle, worst_time = 0.0, 0.0, 0.0, 0.0
    law = law_of_v_delta(process)
    for p in np.arange(0.1, 0.95, 0.1):
        config = CandlestickConfig(process, float(p))
        start = time.perf_counter()
        sol = solve_candlestick(config)
        worst_time = max(worst_time, time.perf_counter() - start)
        worst_res = max(worst_res, abs(sol.residual))
        mass = float(law.cdf(sol.b0s))
        form_trunc = (1 - p) * (1.0 - sol.b0s) + p * mass * (
            lognormal_truncated_mean(law, sol.b0s) - sol.b0s)
        form_put = (1 - p) * (1.0 - sol.b0s) - p * lognormal_put_value(
            1.0, sol.b0s, 0.2)
        worst_forms = max(worst_forms, abs(form_trunc - form_put))
        worst_oracle = max(worst_oracle,
                           abs(sol.b0s - _quadrature_oracle_root(config)))
    ok &= worst_res <= 1e-10 and worst_forms <= 1e-12
    ok &= worst_oracle <= 1e-8 and worst_time < 0.1
    _line("criterion 7 (candlestick root solve)", ok,
          f"endpoints exact, |residual| {worst_res:.1e} (tol 1e-10), "
          f"form agreement {worst_forms:.1e} (tol 1e-12), "
          f"oracle gap {worst_oracle:.1e} (tol 1e-8), "
          f"slowest point {worst_time * 1000:.1f}ms (cap 100ms)")


def test_criterion_08_unraveling():
    worst = -np.inf
    for vol in (0.1, 0.2, 0.5):
        process = PriceProcess(1.0, vol, 1.0)
        for b in np.linspace(0.05, 2.0, 40):
            worst = max(worst, unraveling_slow_profit(process, float(b)))
    _line("criterion 8 (always-fast unraveling)", worst < 0.0,
          f"max slow profit {worst:.2e} over 3 vols x 40 bids (must be < 0)")


def test_criterion_09_hybrid_monte_carlo():
    config = HybridAuctionConfig(3, 1, UNIT, UNIT)
    sol = solve_fixed_point(config, grid_size=512)
    start = time.perf_counter()
    report = simulate_hybrid(sol, 1_000_000, seed=42)
    rerun = simulate_hybrid(sol, 1_000_000, seed=42)
    elapsed = time.perf_counter() - start
    identical = report.to_dict() == rerun.to_dict()
    zmax = max(abs(c["estimate"] - c["target"]) / c["half_width"]
               for c in report.checks)
    ok = report.agreement_ok and identical and elapsed < 30.0
    _line("criterion 9 (hybrid Monte Carlo, 1e6 reps)", ok,
          f"all checks within 3 half-widths (max z {zmax:.2f}), "
          f"rerun bit-identical: {identical}, runtime {elapsed:.1f}s (cap 30s)")


def test_criterion_10_candlestick_monte_carlo():
    process = PriceProcess(1.0, 0.2, 1.0)
    ok, details = True, []
    for p in (0.25, 0.5, 0.75):
        config = CandlestickConfig(process, p)
        sol = solve_candlestick(config)
        report = simulate_candlestick(sol, 1_000_000, seed=42)
        slow = report.stats["slow_profit"]
        straddles = abs(slow.mean) <= 3 * slow.half_width
        ok &= report.agreement_ok and straddles
        details.append(f"p={p}: slow profit {slow.mean:+.1e}"
                       f"+-{3 * slow.half_width:.1e}")
    _line("criterion 10 (candlestick Monte Carlo, 1e6 reps)", ok,
          "; ".join(details))


def test_criterion_11_figure_regeneration(tmp_path):
    out = tmp_path / "schedule.svg"
    rc = main(["figure", "--fa", "beta(2,2)", "--fb", "beta(2,2)",
               "--na", "3", "--nb", "3", "--out", str(out)])
    root = ET.fromstring(out.read_text())
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    rows = [line.split(",") for line in
            out.with_suffix(".csv").read_text().splitlines()[1:]]
    v = np.array([float(r[0]) for r in rows])
    sigma = np.array([float(r[1]) for r in rows])
    interior = (v > 0) & (v < 1)
    ok = (rc == 0 and root.tag.endswith("svg") and len(polylines) == 2
          and np.all(np.diff(sigma) > 0)
          and np.all(sigma[interior] < v[interior]))
    _line("criterion 11 (bid-schedule figure)", ok,
          f"valid SVG with {len(polylines)} polylines; schedule strictly "
          f"increasing and below the diagonal on the interior")
