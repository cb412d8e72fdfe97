"""Seeded operation streams for the three benchmark workloads.

Every operation is one ``satrep`` command line, generated from the workload
name, the benchmark seed and the operation index only, so the same seed always
yields the same stream.  Operations come in blocks of three with a fixed mix
per block (two node-key sweeps and one aggregate-key sweep; or one Monte Carlo
run at each nesting depth 1, 2 and 3), shuffled within the block.  Keys are
dealt from seeded shuffles of the whole key list, and values and distances are
drawn one per equal-width stratum of their range.  The seed so picks the
order, the values and the MC seeds but not the mix, which keeps the cost of a
run, and the medians of different seeds, comparable.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass

__all__ = ["BLOCK", "DEFAULT_SEED", "WORKLOADS", "Op", "operations"]

WORKLOADS = ("sweep", "mc-const", "mc-timed")
DEFAULT_SEED = 1
BLOCK = 3

# Keys that leave (geometry, channel, source fidelity) alone, so the CLI's
# per-invocation aggregate cache serves every value after the first.
NODE_KEYS = {
    "node.caps_fidelity": (0.95, 0.999),
    "node.spin_decoherence_rate_hz": (0.01, 1.0),
    "node.rydberg_gate_fidelity": (0.98, 1.0),
    "node.readout_fidelity": (0.99, 1.0),
    "node.detection_efficiency": (0.5, 1.0),
    "node.caps_success_probability": (0.3, 1.0),
}
# Keys that change the aggregates, so every row re-converges its quadrature.
AGGREGATE_KEYS = {
    "orbit.altitude_m": (5.0e5, 2.5e6),
    "orbit.max_zenith_deg": (60.0, 85.0),
    "channel.pointing_sigma_rad": (1.0e-7, 2.0e-6),
    "channel.beam_waist_m": (0.01, 0.1),
    "channel.receiver_radius_m": (0.25, 2.0),
    "channel.zenith_transmittance": (0.5, 0.95),
    "source.pair_fidelity": (0.95, 1.0),
}
SWEEP_VALUES = 8
SWEEP_DISTANCES = 8
SWEEP_LINKS = (4, 8, 16)
MC_DEPTHS = (1, 2, 3)
# Trials per operation: enough that per-trial cost dominates the fixed cost of
# loading the scenario and converging the aggregates (about 1% of an
# operation), few enough that a 32 s run holds about 100 operations, so the
# tail percentile has ten operations beyond it.
MC_CONST_TRIALS = 2000
MC_TIMED_TRIALS = 6


@dataclass(frozen=True)
class Op:
    """One CLI invocation (``argv`` without ``--output``) and its work size:
    CSV data rows for a sweep, Monte Carlo trials for ``mc``."""

    index: int
    kind: str
    argv: tuple[str, ...]
    items: int


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal-width strata of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def _sweep_op(rng: random.Random, index: int, key: str, bounds, kind: str) -> Op:
    values = [f"{v:.6g}" for v in _stratified(rng, *bounds, SWEEP_VALUES)]
    distances = [
        50 * round(d / 50) for d in _stratified(rng, 5000, 25000, SWEEP_DISTANCES)
    ]
    argv = (
        "sensitivity",
        "--param", key,
        "--values", ",".join(values),
        "--distances-km", ",".join(str(d) for d in distances),
        "--links", ",".join(str(n) for n in SWEEP_LINKS),
        "--with-direct",
    )
    rows = len(values) * len(distances) * (len(SWEEP_LINKS) + 1)
    return Op(index, kind, argv, rows)


def _mc_op(workload: str, rng: random.Random, index: int, depth: int) -> Op:
    trials = MC_CONST_TRIALS if workload == "mc-const" else MC_TIMED_TRIALS
    argv = [
        "mc",
        "--trials", str(trials),
        "--seed", str(rng.randrange(2**32)),
        "--set", f"repeater.nesting_levels={depth}",
    ]
    if workload == "mc-timed":
        argv += ["--set", "mc.time_model=time-resolved"]
    return Op(index, f"depth{depth}", tuple(argv), trials)


def _dealt(rng: random.Random, keys) -> Iterator[str]:
    """Endless keys: each round a fresh shuffle of all of them."""
    while True:
        deck = sorted(keys)
        rng.shuffle(deck)
        yield from deck


def operations(workload: str, seed: int) -> Iterator[Op]:
    """Endless stream of :class:`Op` for ``workload``, determined by ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"satrep-bench/{workload}/{seed}")
    node_keys = _dealt(rng, NODE_KEYS)
    aggregate_keys = _dealt(rng, AGGREGATE_KEYS)
    for first in itertools.count(0, BLOCK):
        if workload == "sweep":
            plan = [(next(node_keys), "node-key") for _ in range(2)]
            plan.append((next(aggregate_keys), "aggregate-key"))
            rng.shuffle(plan)
            for i, (key, kind) in enumerate(plan):
                bounds = NODE_KEYS.get(key) or AGGREGATE_KEYS[key]
                yield _sweep_op(rng, first + i, key, bounds, kind)
        else:
            depths = list(MC_DEPTHS)
            rng.shuffle(depths)
            for i, depth in enumerate(depths):
                yield _mc_op(workload, rng, first + i, depth)
