"""Command-line surface: solve, simulate, sweep and chart the auction models.

Subcommands
-----------
solve-private      equilibrium bid schedule of the hybrid private-value auction
solve-candlestick  break-even slow bid of the common-value candlestick auction
simulate           Monte Carlo verification of either model (PASS/FAIL line)
sweep              one solved row per grid point along a parameter axis
figure             SVG bid-schedule chart (plus companion CSV)

Exit codes: 0 success, 2 usage error, 3 solver failure, 4 verification
failure, 5 I/O failure. Every output file is written atomically (temp file
plus rename) so failures leave no partial files behind. All flags can also be
given through ``--config file.json`` (flags override the file; ``null``
means absent; unknown keys and values their flag would not parse to are
rejected).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .charts import Series, line_chart_svg
from .common_values import CandlestickConfig, PriceProcess, solve_candlestick
from .distributions import parse_distribution
from .private_equilibrium import (_TOL, HybridAuctionConfig, SolverError,
                                  _check_solve_args, solve_fixed_point,
                                  verify_best_response)
from .simulator import (_MIN_FORK_BLOCKS, _check_run, _n_blocks, _split_map,
                        simulate_candlestick, simulate_hybrid)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_IO = 5

_CANDLESTICK_AXES = ("p", "vol", "delta")
_PRIVATE_AXES = ("na", "nb")
_CANDLESTICK_HEADER = ["axis_value", "b0s", "slow_win_prob", "fast_profit", "status"]
_PRIVATE_HEADER = ["axis_value", "slope_fit", "residual", "status"]

# a solution CSV is formatted by one % per this many rows: one % over a
# whole 8192-row table raised the solve-auto benchmark's peak RSS by 0.8 MB
# (2-core x86-64 Linux, Python 3.11)
_CSV_BLOCK_ROWS = 256


# ------------------------------ option registry -------------------------------


def _parse_grid(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(x) for x in value]
    toks = [tok.strip() for tok in str(value).split(",")]
    return [float(tok) for tok in toks if tok]


@dataclass(frozen=True)
class _Opt:
    name: str
    type: object = str  # int, float, str or a parser of the flag's text
    default: object = None
    required: bool = False
    help: str = ""
    choices: tuple = None


_PRIVATE_OPTS = (
    _Opt("na", int, required=True, help="number of integrated builders (>= 0)"),
    _Opt("nb", int, required=True, help="number of neutral builders (>= 1)"),
    _Opt("fa", str, required=True, help="integrated value law, e.g. 'uniform(0,1)'"),
    _Opt("fb", str, required=True, help="neutral value law, e.g. 'beta(2,2)'"),
    _Opt("grid", int, 512, help="value-grid points (default 512)"),
    _Opt("tol", float, _TOL, help=f"solver tolerance (default {_TOL:g})"),
    _Opt("method", str, "auto", choices=("fixed-point", "auto"),
         help="auto solves and certifies the schedule by best response "
              "(exit 4 above its bound); fixed-point only solves"),
    _Opt("out", str, required=True, help="output CSV path (JSON envelope written alongside)"),
)

_CANDLESTICK_OPTS = (
    _Opt("v0", float, 1.0, help="value at time 0"),
    _Opt("vol", float, 0.2, help="volatility per sqrt-second"),
    _Opt("delta", float, 1.0, help="fast bidder's lead time in seconds"),
    _Opt("p", float, required=True, help="fast-bidder revision probability in [0,1]"),
    _Opt("out", str, required=True, help="output JSON path"),
)

_HYBRID_TOL_HELP = (f"hybrid solver tolerance (default {_TOL:g}); "
                    "none for the candlestick")

_SIMULATE_OPTS = (
    _Opt("model", str, required=True, choices=("hybrid", "candlestick")),
    _Opt("na", int, 3), _Opt("nb", int, 1),
    _Opt("fa", str, "uniform(0,1)"), _Opt("fb", str, "uniform(0,1)"),
    _Opt("grid", int, 512), _Opt("tol", float, _TOL, help=_HYBRID_TOL_HELP),
    _Opt("v0", float, 1.0), _Opt("vol", float, 0.2), _Opt("delta", float, 1.0),
    _Opt("p", float, 0.5),
    _Opt("reps", int, 100_000, help="replications (>= 10000)"),
    _Opt("seed", int, 42, help="64-bit stream seed"),
    _Opt("out", str, required=True, help="output JSON report path"),
)

_SWEEP_OPTS = (
    _Opt("axis", str, required=True, choices=_CANDLESTICK_AXES + _PRIVATE_AXES),
    _Opt("grid", _parse_grid, required=True,
         help="comma-separated axis values (not grid points, as elsewhere)"),
    _Opt("v0", float, 1.0), _Opt("vol", float, 0.2), _Opt("delta", float, 1.0),
    _Opt("p", float, 0.5),
    _Opt("na", int, 1), _Opt("nb", int, 1),
    _Opt("fa", str, "uniform(0,1)"), _Opt("fb", str, "uniform(0,1)"),
    _Opt("grid-size", int, 512, help="value-grid points (--grid elsewhere)"),
    _Opt("tol", float, _TOL, help=_HYBRID_TOL_HELP),
    _Opt("verify-reps", int, 0, help="Monte Carlo replications per point (0 = off)"),
    _Opt("seed", int, 42),
    _Opt("out", str, required=True, help="output CSV path"),
)

_FIGURE_OPTS = (
    _Opt("fa", str, "beta(2,2)"), _Opt("fb", str, "beta(2,2)"),
    _Opt("na", int, 3), _Opt("nb", int, 3),
    _Opt("grid", int, 512), _Opt("tol", float, _TOL),
    _Opt("out", str, required=True, help="output SVG path (companion CSV alongside)"),
)


def _add_options(sub: argparse.ArgumentParser, opts: tuple[_Opt, ...]):
    for o in opts:
        sub.add_argument(f"--{o.name}", type=o.type, default=o.default,
                         required=o.required, choices=o.choices, help=o.help)
    sub.add_argument("--config", default=None,
                     help="JSON file supplying any of the flags above "
                          "(explicit flags take precedence)")


def _from_file(parser: argparse.ArgumentParser, o: _Opt, value) -> str:
    """The ``--name=text`` token of a config-file value that passes its
    option's type as argparse passes a flag's text; a string does not stand
    for a number, nor a fraction for an integer."""
    exact = {int: int, float: (int, float), str: str}.get(o.type, object)
    try:
        if isinstance(value, bool) or not isinstance(value, exact):
            raise TypeError
        value = o.type(value)
    except (TypeError, ValueError, OverflowError):
        parser.error(f"config value {value!r} is not a valid --{o.name}")
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    return f"--{o.name}={text}"


@cache
def _config_parser() -> argparse.ArgumentParser:
    """The parser that finds ``--config`` among a command's flags, built on
    the first call and shared after it, as :func:`build_parser` is."""
    pre = argparse.ArgumentParser(prog="pbslab", add_help=False)
    pre.add_argument("--config")
    return pre


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Put the ``--config`` file's values, as flags, right after the command,
    so that argparse checks them like flags and the command line's own flags,
    read later, win. A ``null`` value counts as absent."""
    path = _config_parser().parse_known_args(argv[1:])[0].config
    if path is None or argv[0] not in _COMMANDS:
        return argv
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(file_cfg, dict):
        parser.error(f"config file {path} must hold a JSON object")
    opts = {o.name.replace("-", "_"): o for o in _COMMANDS[argv[0]][0]}
    unknown = sorted(set(file_cfg) - set(opts))
    if unknown:
        parser.error(f"unknown config keys: {', '.join(unknown)}")
    tokens = [_from_file(parser, opts[key], value)
              for key, value in file_cfg.items() if value is not None]
    return argv[:1] + tokens + argv[1:]


# --------------------------------- file I/O -----------------------------------


def _write_atomic(path, text: str):
    """Write via a temp file in the target directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent or Path(".")),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _json_text(payload: dict, argv: list[str], **run) -> str:
    """The JSON document of a run: its payload plus a ``meta`` block naming
    when, with which versions and from which arguments it was made, and
    the facts ``run`` gives about how it was computed."""
    meta = {"created_utc": datetime.now(timezone.utc).isoformat(),
            "argv": argv,
            "versions": {"pbslab": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__,
                         "python": platform.python_version()},
            **run}
    envelope = {"schema_version": 1, **payload, "meta": meta}
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def _solution_csv(solution) -> str:
    """The table's header, then one row per grid value: each block of
    ``_CSV_BLOCK_ROWS`` rows is formatted by one ``%`` over its values in
    row-major order."""
    cols = solution.table()
    table = np.column_stack(list(cols.values()))
    row = "%.12g,%.12g,%.12g,%.12g\n"
    blocks = np.split(table, range(_CSV_BLOCK_ROWS, len(table), _CSV_BLOCK_ROWS))
    return ",".join(cols) + "\n" + "".join(
        [row * len(block) % tuple(block.ravel().tolist()) for block in blocks])


def _rows_csv(header: list[str], rows: list[dict]) -> str:
    """CSV of ``rows`` under ``header``; a field a row lacks is left empty."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# --------------------------------- commands -----------------------------------


def _laws(ns) -> tuple:
    return parse_distribution(ns.fa), parse_distribution(ns.fb)


def _candlestick(ns):
    """Build and solve the candlestick model of ``ns``."""
    config = CandlestickConfig(PriceProcess(ns.v0, ns.vol, ns.delta), ns.p)
    return solve_candlestick(config)


def _hybrid(ns, laws):
    """Build and solve the hybrid model of ``ns`` over ``laws``: by Newton
    steps with two or more neutral builders, by argmax with one."""
    config = HybridAuctionConfig(ns.na, ns.nb, *laws)
    return solve_fixed_point(config, ns.grid, ns.tol)


def _companion(out: str, suffix: str) -> Path:
    """The path written beside ``out``: ``out`` with ``suffix``, which must differ."""
    path, kind = Path(out), suffix[1:].upper()
    if path.suffix == suffix:
        raise ValueError(f"--out {path} is also the path of its companion {kind}")
    return path.with_suffix(suffix)


def cmd_solve_private(ns) -> int:
    """solve the private-value hybrid auction bid schedule"""
    companion = _companion(ns.out, ".json")
    solution = _hybrid(ns, _laws(ns))
    report = verify_best_response(solution) if ns.method == "auto" else None

    _write_atomic(ns.out, _solution_csv(solution))
    _write_atomic(companion, _json_text({
        "config": solution.config.describe(),
        "solver": solution.metadata(),
        "residuals": {
            "equation": solution.residual,
            "cross_method_max_disagreement": None if report is None else report.bid_gap,
            "best_response": None if report is None else {
                "max_gain": report.max_gain, "at_value": report.at_value,
                "bound": report.bound, "top_gain": report.top_gain},
        },
    }, ns.argv))
    msg = f"solved: residual={solution.residual:.3g} ({solution.method})"
    if report is not None:
        msg += (f", best-response max gain={report.max_gain:.3g} "
                f"(bound {report.bound:.3g})")
    print(msg)
    if report is not None and report.max_gain > report.bound:
        print(f"verification failure: a deviation gains {report.max_gain:.3g} "
              f"at v={report.at_value:.6g}, above the bound {report.bound:.3g}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_solve_candlestick(ns) -> int:
    """solve the candlestick break-even slow bid"""
    solution = _candlestick(ns)
    _write_atomic(ns.out, _json_text(solution.to_dict(), ns.argv))
    print(f"b0s={solution.b0s:.12g} slow_win_prob={solution.slow_win_prob:.6g} "
          f"residual={solution.residual:.3g}")
    return EXIT_OK


def cmd_simulate(ns) -> int:
    """solve, then verify by Monte Carlo (prints PASS/FAIL)"""
    _check_run(ns.reps, ns.seed)  # before the solve, which can take seconds
    if ns.model == "hybrid":
        report = simulate_hybrid(_hybrid(ns, _laws(ns)), ns.reps, ns.seed)
    else:
        report = simulate_candlestick(_candlestick(ns), ns.reps, ns.seed)

    _write_atomic(ns.out, _json_text(report.to_dict(), ns.argv,
                                     processes=report.processes))
    if report.agreement_ok:
        print(f"PASS: {len(report.checks)}/{len(report.checks)} analytic-vs-MC "
              f"checks within 3 half-widths ({ns.model}, reps={ns.reps})")
        return EXIT_OK
    failed = [c["name"] for c in report.checks if not c["ok"]]
    print(f"FAIL: analytic-vs-MC outside 3 half-widths for {', '.join(failed)} "
          f"({ns.model}, reps={ns.reps})")
    return EXIT_VERIFY


def _sweep_rows(ns, laws, grid) -> list[dict]:
    """The rows of the sweep points at the axis values ``grid``, in order."""
    rows = []
    for x in grid:
        # sweep's --grid holds the axis values, --grid-size the value-grid points
        point = argparse.Namespace(**{**vars(ns), "grid": ns.grid_size, ns.axis: x})
        row = {"axis_value": x}
        try:
            if ns.axis in _CANDLESTICK_AXES:
                solution = _candlestick(point)
                row.update(b0s=solution.b0s, slow_win_prob=solution.slow_win_prob,
                           fast_profit=solution.fast_expected_profit)
                verify = partial(simulate_candlestick, solution)
            else:
                if not float(x).is_integer():
                    raise ValueError(f"{ns.axis} grid values must be integers, got {x}")
                setattr(point, ns.axis, int(x))
                solution = _hybrid(point, laws)
                v, b = solution.values, solution.bids
                row.update(slope_fit=float(np.dot(b, v) / np.dot(v, v)),
                           residual=solution.residual)
                verify = partial(simulate_hybrid, solution)
            row["status"] = "ok"
            if ns.verify_reps and not verify(ns.verify_reps, ns.seed).agreement_ok:
                row["status"] = "verify-failed"
        except (SolverError, ValueError) as exc:
            row["status"] = f"error: {type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def sweep(ns) -> list[dict]:
    """Solve (and with ``--verify-reps`` verify) one point per value ``x`` of
    ``--grid`` along ``--axis``; rows come back in grid order.

    A point whose solve or verification fails with a solver or input error
    keeps that error in its row's ``status`` (``error: <class>: <message>``)
    instead of aborting the sweep; any other exception propagates. Where
    verification runs are too short to split their blocks, the points split.
    """
    if not ns.grid:
        raise ValueError("--grid holds no axis values")
    laws = _laws(ns)  # once, so that a malformed law exits 2 before any point
    if ns.axis in _PRIVATE_AXES:  # the candlestick axes take no --tol
        _check_solve_args(ns.grid_size, ns.tol)
    if ns.verify_reps:
        _check_run(ns.verify_reps, ns.seed)
    rows = partial(_sweep_rows, ns, laws)
    short_runs = ns.verify_reps and _n_blocks(ns.verify_reps) < _MIN_FORK_BLOCKS
    return _split_map(rows, ns.grid)[0] if short_runs else rows(ns.grid)


def cmd_sweep(ns) -> int:
    """solve one row per point along a parameter axis"""
    rows = sweep(ns)
    header = _CANDLESTICK_HEADER if ns.axis in _CANDLESTICK_AXES else _PRIVATE_HEADER
    _write_atomic(ns.out, _rows_csv(header, rows))
    bad = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep over {ns.axis}: {len(rows)} rows, {bad} non-ok")
    return EXIT_OK


def cmd_figure(ns) -> int:
    """emit an SVG bid-schedule chart plus companion CSV"""
    companion = _companion(ns.out, ".csv")
    solution = _hybrid(ns, _laws(ns))
    v = solution.values
    svg = line_chart_svg(
        [Series(v, solution.bids, "equilibrium bid"),
         Series(v, v, "truthful bid (45-degree)", dashed=True)],
        xlabel="value v", ylabel="bid",
        title=f"Neutral-builder bid schedule: na={ns.na}, nb={ns.nb}, fb={ns.fb}")
    _write_atomic(ns.out, svg)
    _write_atomic(companion, _solution_csv(solution))
    print(f"wrote {Path(ns.out)} and {companion}")
    return EXIT_OK


_COMMANDS = {"solve-private": (_PRIVATE_OPTS, cmd_solve_private),
             "solve-candlestick": (_CANDLESTICK_OPTS, cmd_solve_candlestick),
             "simulate": (_SIMULATE_OPTS, cmd_simulate),
             "sweep": (_SWEEP_OPTS, cmd_sweep),
             "figure": (_FIGURE_OPTS, cmd_figure)}


# ----------------------------------- main --------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it:
    parsing leaves it unchanged, and every parse starts from fresh defaults."""
    parser = argparse.ArgumentParser(
        prog="pbslab",
        description="Equilibria of the hybrid and candlestick block-builder "
                    "auctions: analytic solvers cross-checked by Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (opts, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__, description=handler.__doc__)
        _add_options(p, opts)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(parser, argv))
        args.argv = argv
        return args.handler(args)
    except SystemExit as exc:  # argparse --help (0) and usage errors (2)
        return int(exc.code or 0)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
