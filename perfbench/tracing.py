"""Spans around calls into satrep's public functions, recorded from outside.

:class:`Tracer` replaces each listed function with a timing wrapper in every
loaded ``satrep.*`` module that binds it (``build_profile``, for instance, is
bound in ``flyby``, ``cli``, ``mc_oracle`` and the package itself), so calls
between modules are seen wherever they are made.  Spans are kept in memory
with their parent span and operation id; :meth:`Tracer.restore` puts the
original functions back.  Nothing inside ``satrep`` changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import NamedTuple

__all__ = ["TRACED", "Span", "Tracer", "layer_metrics"]

# Public functions wrapped per module, by the module that defines them.
TRACED = {
    "config": ("load_scenario",),
    "orbit": ("pass_timing", "slant_distance", "zenith_angle"),
    "channel": ("single_photon_transmission", "pair_fidelity", "mean_background_photons"),
    "flyby": ("build_profile", "converged_aggregates"),
    "repeater": ("evaluate_with_aggregates",),
    "mc_oracle": ("simulate_chain", "simulate_link", "compare_report"),
    "cli": ("main",),
}


def _count(name: str, result):
    """Work count a span records: profile samples, or Monte Carlo trials and
    completed fraction.  Zero for the other functions."""
    if name == "flyby.build_profile":
        return result.n_samples
    if name == "mc_oracle.simulate_chain":
        return (result.trials, result.completed_fraction)
    return 0


class Span(NamedTuple):
    """One call: self time is its duration minus the time its child spans
    cover; ``parent`` is -1 for a top-level call."""

    span_id: int
    parent: int
    op: int
    name: str
    start_s: float
    end_s: float
    self_s: float
    count: object


class Tracer:
    """Records one :class:`Span` per call of a :data:`TRACED` function while
    installed; ``op_id`` tags the spans of the current operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id = -1
        self._stack: list[list] = []  # [span_id, time covered by children]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled in when the call ends
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                count = 0 if result is None else _count(name, result)
                spans[span_id] = Span(
                    span_id, parent, self.op_id, name, start, end,
                    end - start - frame[1], count,
                )

        return wrapper

    def install(self) -> None:
        """Wrap every :data:`TRACED` function in each ``satrep`` namespace
        that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for module, names in TRACED.items():
            mod = importlib.import_module(f"satrep.{module}")
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self._wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "satrep" and not modname.startswith("satrep."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def restore(self) -> None:
        """Put back every function :meth:`install` replaced."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        """Spans as gzip-compressed JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


def layer_metrics(spans, passes: int, rows: int, complete_rows: int) -> dict[str, float]:
    """Per-layer metrics from traced spans, per pass over the traced
    operations.  ``rows`` and ``complete_rows`` count, over all passes, the
    CSV data rows the traced sweep operations emitted and those of them with
    a final fidelity."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    samples = 0
    trials = 0
    fractions: list[float] = []
    profiles_in_agg = 0
    samples_in_agg = 0
    names = {s.span_id: s.name for s in spans}
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
        if s.name == "flyby.build_profile" and s.count:
            samples += s.count
            if names.get(s.parent) == "flyby.converged_aggregates":
                profiles_in_agg += 1
                samples_in_agg += s.count
        elif s.name == "mc_oracle.simulate_chain" and s.count:
            trials += s.count[0]
            fractions.append(s.count[1])

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    agg_calls = calls["flyby.converged_aggregates"]
    chain_self = self_s["mc_oracle.simulate_chain"]
    return {
        "config.load_scenario.calls": per_pass(calls["config.load_scenario"]),
        "config.load_scenario.self_s": per_pass(self_s["config.load_scenario"]),
        "orbit.self_s": per_pass(
            sum(self_s[f"orbit.{f}"] for f in TRACED["orbit"])
        ),
        "channel.self_s": per_pass(
            sum(self_s[f"channel.{f}"] for f in TRACED["channel"])
        ),
        "flyby.build_profile.calls": per_pass(calls["flyby.build_profile"]),
        "flyby.build_profile.samples": per_pass(samples),
        "flyby.build_profile.self_s": per_pass(self_s["flyby.build_profile"]),
        "flyby.converged_aggregates.calls": per_pass(agg_calls),
        "flyby.converged_aggregates.self_s": per_pass(
            self_s["flyby.converged_aggregates"]
        ),
        "flyby.converged_aggregates.profiles_per_call": ratio(profiles_in_agg, agg_calls),
        "flyby.converged_aggregates.samples_per_call": ratio(samples_in_agg, agg_calls),
        "sweep.aggregates_per_row": ratio(agg_calls, rows),
        "sweep.rows_complete_ratio": ratio(complete_rows, rows),
        "repeater.evaluate_with_aggregates.calls": per_pass(
            calls["repeater.evaluate_with_aggregates"]
        ),
        "repeater.evaluate_with_aggregates.self_s": per_pass(
            self_s["repeater.evaluate_with_aggregates"]
        ),
        "mc_oracle.simulate_chain.trials": per_pass(trials),
        "mc_oracle.simulate_chain.self_s": per_pass(chain_self),
        "mc_oracle.simulate_chain.self_us_per_trial": ratio(chain_self * 1e6, trials),
        "mc_oracle.simulate_link.calls": per_pass(calls["mc_oracle.simulate_link"]),
        "mc_oracle.simulate_link.self_s": per_pass(self_s["mc_oracle.simulate_link"]),
        "mc_oracle.compare_report.self_s": per_pass(self_s["mc_oracle.compare_report"]),
        "mc_oracle.completed_fraction": ratio(sum(fractions), len(fractions)),
        "cli.main.self_s": per_pass(self_s["cli.main"]),
    }
