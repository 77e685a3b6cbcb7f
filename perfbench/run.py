#!/usr/bin/env python3
"""Benchmark of the ``pbslab`` CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-verify --seed 1 --seconds 38 --trace 0

It calls ``pbslab.cli.main(argv)`` in this one process for every command of
the workload (see ``workloads.py``), with outputs in a scratch directory
under ``.perfbench/``, and repeats the command list until ``--seconds`` have
passed. Every command's exit code and output files are checked, and every
pass must give bit-identical outputs.

With ``--trace 0`` it reports the end-to-end metrics, with tracing off:

- ``setup_s``: wall time of a fresh interpreter that imports ``pbslab.cli``,
  scaled to a reference machine speed launch by launch, as the median over
  launches in rounds spread across the run (see :func:`setup_times`);
- ``wall_s``: wall time of one pass over the command list, scaled to the
  same reference speed pass by pass, as the median over the passes (see
  :func:`scale_pass`);
- ``ok_frac``: commands that exit 0 within their budget, over commands run;
- ``peak_rss_mb``: the peak resident set size of this process.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py``, the import times of the heavy modules
from ``-X importtime``, and the tracing overhead. Both modes print one line
per metric and end with one JSON line; the untraced run also prints the
end-to-end metrics that apply to some workloads only. The full record, with the
environment and every command's outcome and output digest, goes to
``.perfbench/results-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# one thread per library, so that a small machine measures the program and
# not its scheduler; set before numpy is first imported
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from scipy import special  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_ROUNDS = 5          # rounds of interpreter launches for setup_s
LAUNCHES_PER_ROUND = 3
IMPORTTIME_ROUNDS = 3     # single -X importtime launches, traced run only

END_TO_END = {"setup_s": "s", "wall_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB"}
# end-to-end metrics that apply to some workloads only, printed with --trace 0
PARTIAL = {"mc_reps_per_s": "1/s", "xmethod_gap_max": "value",
           "closed_form_err_max": "value"}
_LAYER_UNITS = {"_s": "s", "_s_per_sweep": "s", "_per_rep": "ratio"}


def layer_unit(name: str) -> str:
    if name == "cli.bytes_written":
        return "bytes"
    for suffix, unit in _LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class BudgetExceeded(BaseException):
    """Raised by the budget alarm. ``cli.main`` catches ``OSError`` (which
    covers ``TimeoutError``) and ``sweep`` catches ``Exception`` per point,
    so the alarm must raise something neither of them catches."""


def _alarm(signum, frame):
    raise BudgetExceeded


@dataclass
class Result:
    """One command's outcome, its checked outputs and what they showed."""

    name: str
    outcome: str
    seconds: float
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    bytes_written: int = 0
    reps: int = 0
    gap: float | None = None  # fixed-point vs ODE disagreement
    closed_form_err: float | None = None
    reference: float = 0.0  # time of the reference slice run right before
    scaled: float = 0.0     # ``seconds`` at the reference speed


# ---------------------------------------------------------------- commands


def run_command(cmd: workloads.Command, directory: Path) -> Result:
    from pbslab import cli

    argv = [*cmd.argv, "--out", str(directory / cmd.out)]
    before = set(os.listdir(directory))
    messages = io.StringIO()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cmd.budget_s)
    try:
        with contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
            rc = cli.main(argv)
        outcome = workloads.OK if rc == 0 else f"exit{rc}"
    except BudgetExceeded:
        outcome = workloads.BUDGET
    except Exception as exc:  # an uncaught exception is a failed command
        outcome = f"exception:{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    result = Result(cmd.name, outcome, time.perf_counter() - start)

    outputs = sorted(set(os.listdir(directory)) - before)
    if outcome not in cmd.allowed:
        result.problems.append(f"outcome {outcome}: {messages.getvalue().strip()}")
    if outcome == workloads.OK and cmd.out not in outputs:
        result.problems.append(f"{cmd.out} not written")
    if outcome in (workloads.BUDGET, workloads.SOLVER_FAILED) and outputs:
        result.problems.append(f"failed command left files behind: {outputs}")
    if outputs and outcome in (workloads.OK, workloads.VERIFY_FAILED):
        try:
            _CHECKS[cmd.argv[0]](cmd, directory / cmd.out, outcome, result)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    digest = hashlib.sha256()
    for name in outputs:
        data = (directory / name).read_bytes()
        result.bytes_written += len(data)
        if name.endswith(".json"):
            data = _without_meta(data)
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    result.digest = digest.hexdigest()
    return result


def _without_meta(data: bytes) -> bytes:
    """A JSON output without its ``meta`` block (creation time, timings)."""
    try:
        payload = json.loads(data)
    except ValueError:  # the checks report it; digest every byte
        return data
    if isinstance(payload, dict):
        payload.pop("meta", None)
    return json.dumps(payload, sort_keys=True).encode()


def _flags(argv) -> dict[str, str]:
    return {a[2:]: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_schedule(cmd, csv_path: Path, result: Result):
    """Bid schedule CSV: bids in [0, v], nondecreasing; closed form if known."""
    rows = _read_csv(csv_path)
    v = [float(r["v"]) for r in rows]
    sigma = [float(r["sigma"]) for r in rows]
    if len(v) < 64 or not all(math.isfinite(x) for x in v + sigma):
        result.problems.append(f"{csv_path.name}: {len(v)} rows or non-finite values")
        return
    if any(s < -1e-12 or s > x + 1e-9 for s, x in zip(sigma, v)):
        result.problems.append(f"{csv_path.name}: a bid outside [0, v]")
    if any(b < a - 1e-9 for a, b in zip(sigma, sigma[1:])):
        result.problems.append(f"{csv_path.name}: bids decrease")
    flags = _flags(cmd.argv)
    if flags.get("fa") == flags.get("fb") == "uniform(0,1)" and flags.get("nb") == "1":
        na = int(flags["na"])
        result.closed_form_err = max(abs(s - na / (na + 1) * x) for s, x in zip(sigma, v))
        if result.closed_form_err > 1e-6:
            result.problems.append(
                f"closed form missed by {result.closed_form_err:.3g}")


def _check_solve_private(cmd, path: Path, outcome, result: Result):
    _check_schedule(cmd, path, result)
    envelope = json.loads(path.with_suffix(".json").read_text())
    residuals = envelope["residuals"]
    result.gap = residuals["cross_method_max_disagreement"]
    if not math.isfinite(residuals["equation"]):
        result.problems.append("non-finite equation residual")
    if result.gap is not None and not math.isfinite(result.gap):
        result.problems.append("non-finite cross-method disagreement")


def _check_figure(cmd, path: Path, outcome, result: Result):
    if not path.read_text().lstrip().startswith("<svg"):
        result.problems.append(f"{path.name} is not an SVG document")
    _check_schedule(cmd, path.with_suffix(".csv"), result)


def _check_simulate(cmd, path: Path, outcome, result: Result):
    report = json.loads(path.read_text())
    result.reps = int(_flags(cmd.argv)["reps"])
    if report["reps"] != result.reps:
        result.problems.append(f"report holds {report['reps']} replications")
    if report["agreement_ok"] != (outcome == workloads.OK):
        result.problems.append("PASS/FAIL exit code disagrees with the report")
    for check in report["checks"]:
        miss = abs(check["estimate"] - check["target"])
        if not math.isfinite(miss) or (not cmd.defect and miss > 6 * check["half_width"]):
            result.problems.append(
                f"{check['name']}: estimate {check['estimate']:.6g} against "
                f"{check['target']:.6g}, half-width {check['half_width']:.3g}")


def _check_sweep(cmd, path: Path, outcome, result: Result):
    rows = _read_csv(path)
    points = [x for x in _flags(cmd.argv)["grid"].split(",") if x]
    if len(rows) != len(points):
        result.problems.append(f"{len(rows)} sweep rows for {len(points)} points")
    # a Monte Carlo check may fail by chance at one point; an error may not
    bad = [r["status"] for r in rows if r["status"] not in ("ok", "verify-failed")]
    if bad:
        result.problems.append(f"sweep rows failed: {bad}")


_CHECKS = {"solve-private": _check_solve_private, "figure": _check_figure,
           "simulate": _check_simulate, "sweep": _check_sweep}


# ------------------------------------------------------------------ passes


def run_pass(commands, tracer=None) -> tuple[list[Result], dict]:
    """Run the command list once in a fresh directory; traced if asked."""
    gc.collect()
    directory = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    restore = None
    if tracer is not None:
        tracer.reset()
        restore = spans.install(tracer)
    try:
        results = []
        for cmd in commands:
            reference = reference_slice()
            results.append(run_command(cmd, directory))
            results[-1].reference = reference
    finally:
        if restore is not None:
            restore()
        shutil.rmtree(directory, ignore_errors=True)
    scale_pass(results)
    layers = spans.layer_metrics(tracer) if tracer is not None else {}
    return results, layers


def pass_seconds(passes, keep=lambda result: True) -> float:
    """Median over the passes of the scaled time of the commands ``keep``
    selects (see :func:`scale_pass`)."""
    return statistics.median(sum(r.scaled for r in p if keep(r)) for p in passes)


# ----------------------------------------------------------- machine speed

# The median time of :func:`reference_slice`, run between commands, on the
# machine the bounds were set on (a shared 2-core virtual machine, Intel
# Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, scipy 1.17.1). Times are
# scaled to that speed.
REFERENCE_S = 0.013
_REFERENCE_SHAPE = (2048, 4)


def reference_slice() -> float:
    """Time of a fixed slice of work that runs no ``pbslab`` code.

    A shared machine runs at speeds up to twice apart, for seconds and for
    minutes at a time, which no number of passes within one run averages
    out. The benchmark runs this slice right before every command and every
    interpreter launch, so that the slices sample the machine's speed while
    the program runs, and scales the program's times by it. The slice does
    the kinds of work the program does: Philox draws, a scipy special
    function (``betaincinv``, as in Beta quantiles), numpy reductions, and
    interpreted Python. It takes about a hundredth of a second.
    """
    start = time.perf_counter()
    draws = np.random.Generator(np.random.Philox(0)).random(_REFERENCE_SHAPE)
    values = special.betaincinv(2.0, 2.0, draws)
    values.argmax(axis=1)
    np.sort(values, axis=1)
    total = 0.0
    for i in range(40_000):
        total += (i % 7) * 0.5
    return time.perf_counter() - start


def scale_pass(results: list[Result]):
    """Set each command's ``scaled`` time, at the reference speed.

    The factor is ``REFERENCE_S`` over the mean of the pass's reference
    slices. A command stopped by its budget keeps its time, which the budget
    sets and not the machine. On a shared 2-core virtual machine, over
    stretches of 4 to 5 minutes cut into windows the length of a run, the
    median scaled pass time of the windows spread by 0.02 to 0.05 (quartile
    distance over median) on each workload, and the unscaled one by 0.09 to
    0.15.
    """
    factor = REFERENCE_S * len(results) / sum(r.reference for r in results)
    for r in results:
        r.scaled = r.seconds if r.outcome == workloads.BUDGET else r.seconds * factor


def partial_metrics(passes) -> dict[str, float]:
    """The end-to-end metrics that apply to this workload but not to all."""
    reps = sum(r.reps for r in passes[0])
    gaps = [r.gap for r in passes[0] if r.gap is not None]
    errors = [r.closed_form_err for r in passes[0] if r.closed_form_err is not None]
    metrics = {}
    if reps:
        metrics["mc_reps_per_s"] = reps / pass_seconds(passes, lambda r: r.reps)
    if gaps:
        metrics["xmethod_gap_max"] = max(gaps)
    if errors:
        metrics["closed_form_err_max"] = max(errors)
    return metrics


# ------------------------------------------------------------------- setup


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_import() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pbslab.cli"], cwd=ROOT,
                   env=_child_env(), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_times(launches: int = LAUNCHES_PER_ROUND) -> list[float]:
    """Back-to-back launches, each scaled to the reference speed.

    Each launch's time is scaled by the mean of the reference slices run
    right before and right after it (see :func:`reference_slice`); the run
    reports the median over all its launches. Over 179 launches on a shared
    2-core virtual machine, cut into runs of 15, the run medians ranged from
    0.69 to 1.01 s unscaled and from 0.81 to 0.94 s scaled.
    """
    references, times = [reference_slice()], []
    for _ in range(launches):
        times.append(time_import())
        references.append(reference_slice())
    return [t * 2 * REFERENCE_S / (before + after)
            for t, before, after in zip(times, references, references[1:])]


def import_times() -> dict[str, float]:
    """Cumulative import times from ``-X importtime``, in seconds."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pbslab.cli"],
                          cwd=ROOT, env=_child_env(), check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {"setup.import_scipy_special_s": cumulative.get("scipy.special", 0.0),
            "setup.import_scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
            "setup.import_pbslab_s": cumulative.get("pbslab.cli", 0.0)}


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
        "git_commit": commit, "workload": workload, "seed": seed,
        "argv": sys.argv,
    }


# --------------------------------------------------------------- measuring


def load_program():
    """Import ``pbslab`` from this checkout's sources and nowhere else."""
    if not (SRC / "pbslab" / "__init__.py").is_file():
        raise ImportError(f"no pbslab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pbslab.cli

    if Path(pbslab.__file__).resolve().parent != SRC / "pbslab":
        raise ImportError(f"pbslab imported from {pbslab.__file__}, not {SRC}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, setup_rounds: int = SETUP_ROUNDS,
            launches_per_round: int = LAUNCHES_PER_ROUND) -> dict:
    """Run one workload for ``seconds``; returns the full result record.

    The rounds of interpreter launches count towards ``seconds``, and are
    spread over the run: round ``k`` starts at the first pass boundary after
    ``k / rounds`` of it, so that one slow spell of a shared machine does not
    hold all of them.
    """
    load_program()
    commands = workloads.commands(workload, seed, tiny)
    WORK.mkdir(exist_ok=True)
    previous = signal.signal(signal.SIGALRM, _alarm)
    tracer = spans.Tracer() if trace else None
    if trace:
        rounds, launch = IMPORTTIME_ROUNDS, import_times
    else:
        rounds, launch = setup_rounds, lambda: setup_times(launches_per_round)
    try:
        setup, untraced, traced, layers = [], [], [], []
        start = time.perf_counter()
        while True:
            if len(setup) < rounds and \
                    time.perf_counter() - start >= len(setup) * seconds / rounds:
                setup.append(launch())
            untraced.append(run_pass(commands)[0])
            if trace:
                results, pass_layers = run_pass(commands, tracer)
                traced.append(results)
                layers.append(pass_layers)
            if time.perf_counter() - start >= seconds and len(setup) >= rounds:
                break
    finally:
        signal.signal(signal.SIGALRM, previous)

    passes = untraced + traced
    for results in passes[1:]:
        for first, again in zip(passes[0], results):
            if first.digest != again.digest:
                again.problems.append("outputs differ between passes")
    failed = [r for results in passes for r in results if r.problems]
    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics.update({k: statistics.median(t[k] for t in setup) for k in setup[0]})
        metrics["cli.bytes_written"] = sum(r.bytes_written for r in untraced[0])
        metrics["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(untraced)
        units = {k: layer_unit(k) for k in metrics}
    else:
        results = [r for p in untraced for r in p]
        metrics = {
            "setup_s": statistics.median(t for launches in setup for t in launches),
            "wall_s": pass_seconds(untraced),
            "ok_frac": sum(r.outcome == workloads.OK for r in results) / len(results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics.update(partial_metrics(untraced))
        units = {**END_TO_END, **PARTIAL}
    return {
        "environment": environment(workload, seed),
        "passes": len(untraced),
        # the unscaled median pass time and each pass's speed factor
        "wall_unscaled_s": statistics.median(sum(r.seconds for r in p) for p in untraced),
        "speed_factors": [REFERENCE_S * len(p) / sum(r.reference for r in p)
                          for p in untraced],
        "attempted": sum(len(p) for p in passes),
        "failed": len(failed),
        "problems": [f"{r.name}: {p}" for r in failed for p in r.problems],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "commands": [{"name": r.name, "outcome": r.outcome,
                      "seconds": [p[i].seconds for p in untraced],
                      "digest": r.digest, "problems": r.problems}
                     for i, r in enumerate(untraced[0])],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot import pbslab: {exc}", file=sys.stderr)
        return 2

    out = WORK / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    env = record["environment"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['passes']} passes, {record['attempted']} commands, "
          f"{len(record['problems'])} problems, unscaled wall "
          f"{record['wall_unscaled_s']:.4f} s; python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}")
    for problem in record["problems"][:20]:
        print(f"  problem: {problem}")
    for name, m in record["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  full record: {out.relative_to(ROOT)}")

    names = list(END_TO_END) if not args.trace else list(record["metrics"])
    print(json.dumps({
        "correct": not record["failed"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: record["metrics"][k] for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
