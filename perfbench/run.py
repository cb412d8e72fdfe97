"""satrep benchmark: set-up time plus one workload in its own process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
The run first times several fresh-interpreter cold starts (``import
satrep.cli`` plus ``load_scenario(None)``), then starts ``worker.py`` for the
workload with ``OMP_NUM_THREADS=1`` and ``OPENBLAS_NUM_THREADS=1``.  It
prints a readable summary, writes a record with the software versions to
``.perfbench_out/``, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced run with ``--trace 1``.  Metric names and
units are declared in ``BENCHMARK.json``.  Exits non-zero, printing no
result, when the program is missing or a child process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_STARTS = 5  # timed cold starts; one untimed start first caches bytecode
TAIL_BEYOND = 10  # operations beyond the tail percentile
DEADLINE_S = 170  # every run must end within 180 s
COLD_START = (
    "import satrep.cli\n"
    "from satrep.config import load_scenario\n"
    "load_scenario(None)\n"
)
IMPORT_PACKAGES = ("numpy", "scipy", "satrep")


def child_env() -> dict[str, str]:
    """Children get one thread for numpy's libraries, and bytecode caches in
    the checkout, so every cold start after the first reads cached bytecode
    whatever the caller's PYTHONDONTWRITEBYTECODE."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a Python child to completion (killed and reaped on timeout)."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return proc


def cold_starts(deadline: float) -> list[float]:
    """Wall times of fresh-interpreter cold starts.  Not scaled by the
    calibration kernel: import time (file reads, page faults, unmarshalling)
    did not follow the kernel's speed."""
    run_child(["-c", COLD_START], deadline - time.monotonic())
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        run_child(["-c", COLD_START], deadline - time.monotonic())
        times.append(time.perf_counter() - start)
    return times


def import_times(deadline: float) -> dict[str, float]:
    """Self import time per package, summed over its modules, from
    ``python -X importtime`` in a fresh process."""
    proc = run_child(["-X", "importtime", "-c", COLD_START], deadline - time.monotonic())
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) * 1e-6
    return {f"import.{p}_s": t for p, t in totals.items()}


def tail(times: list[float]) -> tuple[float, float]:
    """Operation time at the highest percentile with TAIL_BEYOND operations
    beyond it (nearest rank), and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def block_rates(times: list[float], items: list[int]) -> list[float]:
    """Work per second of operation time in each block of operations.  Every
    block has the same mix, so the median over blocks is steady against the
    machine's slow spells, where the whole-run ratio is not."""
    k = workloads.BLOCK
    return [
        sum(items[i:i + k]) / sum(times[i:i + k]) for i in range(0, len(times), k)
    ]


def environment(worker_versions: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.cfg")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    return {
        **worker_versions,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def declared_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "satrep" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/satrep is missing", file=sys.stderr)
        return 2
    units = declared_units()
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setup = cold_starts(deadline)
        layers = import_times(deadline) if args.trace else {}
        proc = run_child(
            [
                str(HERE / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            deadline - time.monotonic(),
        )
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    notes: dict[str, str] = {}
    if args.trace:
        values = {**record["per_layer"], **layers}
        notes["trace.overhead_ratio"] = (
            f"traced / untraced time of the same {record['traced_ops']} operations, "
            f"{record['passes']} passes"
        )
    else:
        raw = record["op_times"]
        times = [calibrate.normalize(t, k) for t, k in zip(raw, record["op_kernel_s"])]
        tail_s, pct = tail(times)
        blocks = block_rates(times, record["op_items"])
        values = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "items_per_s": statistics.median(blocks),
            "peak_rss_mb": record["peak_rss_mb"],
            "ok_fraction": 1.0 - record["failed"] / record["attempted"],
        }
        item = "CSV rows" if args.workload == "sweep" else "MC trials"
        notes = {
            "setup_s": f"median of {len(setup)} cold starts (wall time): "
            + ", ".join(f"{t:.3f}" for t in setup),
            "op_p50_s": f"{len(times)} operations; raw {statistics.median(raw):.6g}",
            "op_tail_s": f"p{pct:.1f} of {len(times)} operations; raw {tail(raw)[0]:.6g}",
            "items_per_s": f"{item} per second of operation time, median of "
            f"{len(blocks)} blocks; raw {statistics.median(block_rates(raw, record['op_items'])):.6g}",
            "ok_fraction": f"failed_fraction = {record['failed']}/{record['attempted']}",
        }
        notes["kernel"] = (
            "operation times are at nominal machine speed; the calibration kernel took "
            f"{statistics.median(record['op_kernel_s']) / calibrate.NOMINAL_S:.3f}"
            " x its nominal time (raw wall times in the notes)"
        )
    unknown = sorted(set(values) - set(units))
    if unknown:
        print(f"perfbench: metrics not declared in BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1
    env = environment(record["versions"])
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    print(f"satrep benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    if "kernel" in notes:
        print("  " + notes["kernel"])
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<6} {note}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")

    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(
            {"args": vars(args), "env": env, "metrics": metrics, "notes": notes,
             "record": record, "setup_starts_s": setup},
            indent=1,
        )
    )
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
