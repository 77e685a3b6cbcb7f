"""Spans around the calls into each ``pbslab`` module, installed from outside.

The program carries no tracing of its own. :func:`install` replaces the
names that callers look up with timing wrappers and returns a function that
puts the originals back:

- functions in every module namespace that binds them, because ``cli`` and
  ``simulator`` import solvers with ``from ... import``, so patching only the
  defining module would miss their calls;
- methods on their classes: the distribution laws, ``BidFunction.__call__``
  and ``ReplicationRng.block_stream``, whose generators are wrapped so that
  their ``random`` calls are timed as sampling.

A name the program no longer has is skipped, and its metrics read 0.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np

# span name -> module attributes (module path, name) whose callers it times
_FUNCTIONS = {
    "cli": [("pbslab.cli", "main")],
    "charts.svg": [("pbslab.charts", "line_chart_svg"),
                   ("pbslab.cli", "line_chart_svg")],
    "private_equilibrium.fp": [("pbslab.private_equilibrium", "solve_fixed_point"),
                               ("pbslab.cli", "solve_fixed_point"),
                               ("pbslab.simulator", "solve_fixed_point")],
    "private_equilibrium.ode": [("pbslab.private_equilibrium", "solve_ode"),
                                ("pbslab.cli", "solve_ode")],
    "private_equilibrium.envelope": [("pbslab.private_equilibrium", "verify_envelope"),
                                     ("pbslab.cli", "verify_envelope")],
    "common_values.solve": [("pbslab.common_values", "solve_candlestick"),
                            ("pbslab.cli", "solve_candlestick"),
                            ("pbslab.simulator", "solve_candlestick")],
    "simulator.simulate": [("pbslab.simulator", "simulate_hybrid"),
                           ("pbslab.simulator", "simulate_candlestick"),
                           ("pbslab.cli", "simulate_hybrid"),
                           ("pbslab.cli", "simulate_candlestick")],
    "simulator.sweep": [("pbslab.simulator", "sweep"), ("pbslab.cli", "sweep")],
    "simulator.pick_winners": [("pbslab.simulator", "pick_winners")],
}

_FAMILIES = {"Beta": "beta", "Uniform": "uniform", "Lognormal": "lognormal",
             "EmpiricalGrid": "empirical"}
FAMILIES = ("beta", "uniform", "lognormal")  # the families the workloads use


class Tracer:
    """Per-span-name totals and counters, with a stack for self time."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.time = Counter()       # inclusive seconds per span name
        self.self_time = Counter()  # seconds not covered by child spans
        self.calls = Counter()
        self.counts = Counter()
        self.quantile_values_per_rep = 0.0  # largest over the simulate calls
        self._stack = []            # [name, start, child seconds]

    def enter(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self, failed: bool = False):
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        self.time[name] += duration
        self.self_time[name] += duration - children
        self.calls[name] += 1
        if failed:
            self.counts[name + ".failures"] += 1

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(failed=True)
                raise
            tracer.exit()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced


class _TimedStream:
    """A ``numpy.random.Generator`` whose ``random`` calls are sampling spans."""

    __slots__ = ("_generator", "_tracer")

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def random(self, size=None, *args, **kwargs):
        self._tracer.enter("simulator.sample")
        try:
            return self._generator.random(size, *args, **kwargs)
        finally:
            self._tracer.exit()
            rows = size[0] if isinstance(size, tuple) else (size or 1)
            self._tracer.counts["simulator.reps"] += int(rows)

    def __getattr__(self, attr):
        return getattr(self._generator, attr)


def install(tracer: Tracer):
    """Patch every traced name; returns a function that restores them."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def count(key, of):
        def on_return(args, result):
            tracer.counts[key] += of(args, result)
        return on_return

    def iterations(args, result):
        return int(getattr(result, "iterations", 0))

    on_return = {
        "private_equilibrium.fp": count("private_equilibrium.fp_sweeps", iterations),
        "private_equilibrium.ode": count("private_equilibrium.ode_nfev", iterations),
        "common_values.solve": count("common_values.iterations", iterations),
        "simulator.sweep": count("simulator.sweep_points",
                                 lambda args, result: len(result)),
    }
    for name, targets in _FUNCTIONS.items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                traced = tracer.wrap(name, getattr(module, attr), on_return.get(name))
                if name == "simulator.simulate":
                    traced = _per_call_ratio(tracer, traced)
                patch(module, attr, traced)

    distributions = importlib.import_module("pbslab.distributions")
    for class_name, family in _FAMILIES.items():
        cls = getattr(distributions, class_name, None)
        for method in ("quantile", "cdf", "pdf"):
            if cls is None or method not in vars(cls):
                continue
            name = f"distributions.{family}.{method}"
            counter = None
            if method == "quantile":
                counter = _quantile_counter(tracer, name)
            patch(cls, method, tracer.wrap(name, vars(cls)[method], counter))

    equilibrium = importlib.import_module("pbslab.private_equilibrium")
    bid_function = getattr(equilibrium, "BidFunction", None)
    if bid_function is not None:
        patch(bid_function, "__call__", tracer.wrap(
            "private_equilibrium.bid_map", bid_function.__call__,
            count("private_equilibrium.bid_map_values",
                  lambda args, result: int(np.size(args[1])))))

    simulator = importlib.import_module("pbslab.simulator")
    rng = getattr(simulator, "ReplicationRng", None)
    if rng is not None and hasattr(rng, "block_stream"):
        block_stream = rng.block_stream

        def timed_block_stream(self, block):
            tracer.counts["simulator.blocks"] += 1
            return _TimedStream(block_stream(self, block), tracer)

        patch(rng, "block_stream", timed_block_stream)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def _per_call_ratio(tracer: Tracer, fn):
    """Track the quantile values per replication of each simulate call.

    One ratio over a whole pass would blend the cheap cases (uniform 3+1,
    candlestick) with the wide one; the widest call is the one a kernel that
    draws fewer quantiles per replication moves most.
    """
    @functools.wraps(fn)
    def call(*args, **kwargs):
        counts = tracer.counts
        reps, values = counts["simulator.reps"], counts["simulator.quantile_values"]
        result = fn(*args, **kwargs)
        reps = counts["simulator.reps"] - reps
        if reps:
            ratio = (counts["simulator.quantile_values"] - values) / reps
            tracer.quantile_values_per_rep = max(tracer.quantile_values_per_rep, ratio)
        return result

    return call


def _quantile_counter(tracer: Tracer, name: str):
    def on_return(args, result):
        values = int(np.size(args[1]))
        tracer.counts[name + "_values"] += values
        if tracer.inside("simulator.simulate"):
            tracer.counts["simulator.quantile_values"] += values
    return on_return


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass, keyed by metric name."""
    t, own, calls, counts = tracer.time, tracer.self_time, tracer.calls, tracer.counts

    def total(table, prefix, suffix=""):
        return sum(v for k, v in table.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    m = {
        "cli.self_s": own["cli"],
        "cli.commands": calls["cli"],
        "charts.svg_s": t["charts.svg"],
        "charts.svgs": calls["charts.svg"],
    }
    for method in ("quantile", "cdf", "pdf"):
        m[f"distributions.{method}_s"] = total(t, "distributions.", "." + method)
        m[f"distributions.{method}_calls"] = total(calls, "distributions.", "." + method)
    m["distributions.quantile_values"] = total(counts, "distributions.", ".quantile_values")
    for family in FAMILIES:
        span = f"distributions.{family}.quantile"
        m[span + "_s"] = t[span]
        m[span + "_calls"] = calls[span]
        m[span + "_values"] = counts[span + "_values"]

    sweeps = counts["private_equilibrium.fp_sweeps"]
    m.update({
        "private_equilibrium.self_s": total(own, "private_equilibrium."),
        "private_equilibrium.fp_s": t["private_equilibrium.fp"],
        "private_equilibrium.fp_solves": calls["private_equilibrium.fp"],
        "private_equilibrium.fp_sweeps": sweeps,
        "private_equilibrium.fp_s_per_sweep":
            t["private_equilibrium.fp"] / sweeps if sweeps else 0.0,
        "private_equilibrium.ode_s": t["private_equilibrium.ode"],
        "private_equilibrium.ode_solves": calls["private_equilibrium.ode"],
        "private_equilibrium.ode_nfev": counts["private_equilibrium.ode_nfev"],
        "private_equilibrium.ode_failures": counts["private_equilibrium.ode.failures"],
        "private_equilibrium.envelope_s": t["private_equilibrium.envelope"],
        "private_equilibrium.bid_map_s": t["private_equilibrium.bid_map"],
        "private_equilibrium.bid_map_values": counts["private_equilibrium.bid_map_values"],
        "common_values.solve_s": t["common_values.solve"],
        "common_values.solves": calls["common_values.solve"],
        "common_values.iterations": counts["common_values.iterations"],
    })

    m.update({
        "simulator.self_s": own["simulator.simulate"] + own["simulator.sweep"],
        "simulator.sample_s": t["simulator.sample"],
        "simulator.pick_winners_s": t["simulator.pick_winners"],
        "simulator.blocks": counts["simulator.blocks"],
        "simulator.reps": counts["simulator.reps"],
        "simulator.sweep_points": counts["simulator.sweep_points"],
        "simulator.quantile_values": counts["simulator.quantile_values"],
        "simulator.quantile_values_per_rep": tracer.quantile_values_per_rep,
    })
    return m
