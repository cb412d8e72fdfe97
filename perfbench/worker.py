"""One workload in one process: run operations in a closed loop and report.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  One
client, one thread: each operation is an in-process ``satrep.cli.main(argv)``
call writing to a file, timed around the call only, then checked.  Between
operations the untraced run times the calibration kernel of ``calibrate.py``.
The last line on stdout is a JSON record of operation and kernel times, work
done, failures, peak RSS and, in the traced run, the per-layer metrics.

Untraced run: after one warm-up operation, operations run in whole blocks
until ``--seconds`` have passed.  Traced run: the first ``TRACED_OPS``
operations of the stream run in passes until ``--seconds`` have passed, each
operation once untraced and once traced (alternating which goes first), so the
counts per pass repeat exactly for a seed and the overhead compares like with
like.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import calibrate
import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_DIR = HERE / "reference"
TRACED_OPS = 6
MAX_FAILURE_MESSAGES = 5


def load_reference(workload: str, seed: int) -> dict[int, tuple[list[str], str]]:
    """Stored outputs for the default seed: op index -> (argv, CSV text)."""
    if workload != "sweep" or seed != workloads.DEFAULT_SEED:
        return {}
    index = json.loads((REFERENCE_DIR / "index.json").read_text())
    return {
        int(i): (entry["argv"], (REFERENCE_DIR / entry["file"]).read_text())
        for i, entry in index.items()
    }


class Runner:
    """Runs, times and checks operations; counts attempts and failures."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        from satrep import cli

        self.cli = cli
        self.workload = workload
        self.output = scratch / "op.out"
        self.reference = load_reference(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # Outcome of the last operation: passed its check; CSV data rows and
        # those with a final fidelity (sweeps only).
        self.last_ok = False
        self.last_rows = self.last_complete = 0

    def run(self, op: workloads.Op) -> float:
        """Run one operation; returns its wall time in seconds."""
        argv = list(op.argv) + ["--output", str(self.output)]
        self.attempted += 1
        self.last_rows = self.last_complete = 0
        self.output.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # any escape from the CLI is a failed operation
            elapsed = time.perf_counter() - start
            self._fail(op, [f"{type(exc).__name__}: {exc}"])
            return elapsed
        elapsed = time.perf_counter() - start
        text = self.output.read_text() if self.output.exists() else ""
        self._fail(op, self.check(op, code, text))
        return elapsed

    def check(self, op: workloads.Op, code: int, text: str) -> list[str]:
        if self.workload == "sweep":
            ref = self.reference.get(op.index)
            if ref is not None and ref[0] != list(op.argv):
                return ["stored reference was made for other operations"]
            problems = checks.check_sweep(
                code, text, op.items, None if ref is None else ref[1]
            )
            if not problems:
                rows = checks.parse_sweep_csv(text)
                self.last_rows = len(rows)
                self.last_complete = sum(r["fidelity_final"] != "" for r in rows)
            return problems
        depth = int(op.kind.removeprefix("depth"))
        model = "constant-p" if self.workload == "mc-const" else "time-resolved"
        return checks.check_mc(code, text, op.items, depth, model)

    def _fail(self, op: workloads.Op, problems: list[str]) -> None:
        self.last_ok = not problems
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(f"op {op.index} {' '.join(op.argv)}: {problems[:3]}")


def untraced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Whole blocks until ``seconds`` have passed.  ``op_kernel_s`` is the
    mean calibration-kernel time just before and just after each operation;
    ``op_items`` is the work of each operation, 0 for one that failed its
    check."""
    runner.run(next(workloads.operations(workload, seed)))  # warm-up, untimed
    calibrate.kernel_seconds()
    stream = workloads.operations(workload, seed)
    times: list[float] = []
    kernel: list[float] = []
    items: list[int] = []
    before = calibrate.kernel_seconds()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in itertools.islice(stream, workloads.BLOCK):
            times.append(runner.run(op))
            items.append(op.items if runner.last_ok else 0)
            after = calibrate.kernel_seconds()
            kernel.append((before + after) / 2)
            before = after
    return {"op_times": times, "op_kernel_s": kernel, "op_items": items}


def traced(runner: Runner, workload: str, seed: int, seconds: float, spans_path: Path) -> dict:
    """Passes over the first TRACED_OPS operations until ``seconds`` have
    passed, each operation once untraced and once traced; per-layer metrics
    per pass, plus the traced / untraced time ratio."""
    chosen = list(itertools.islice(workloads.operations(workload, seed), TRACED_OPS))
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    rows = complete_rows = passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(chosen):
            traced_first = (passes + i) % 2 == 1
            if not traced_first:
                plain_s += runner.run(op)
            tracer.op_id = passes * len(chosen) + i
            with tracer:
                traced_s += runner.run(op)
            rows += runner.last_rows
            complete_rows += runner.last_complete
            if traced_first:
                plain_s += runner.run(op)
        passes += 1
    tracer.write(spans_path)
    per_layer = tracing.layer_metrics(tracer.spans, passes, rows, complete_rows)
    per_layer["trace.overhead_ratio"] = traced_s / plain_s
    return {"passes": passes, "traced_ops": len(chosen), "per_layer": per_layer}


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"tmp-{args.workload}-{args.seed}-{args.trace}"
    scratch.mkdir(exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, scratch)
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            record = traced(runner, args.workload, args.seed, args.seconds, spans)
        else:
            record = untraced(runner, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=versions(),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
