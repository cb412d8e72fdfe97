"""Digest the CLI's outputs over a fixed command list, to tell whether two
checkouts print the same bytes.

    python3 tools/output_digest.py CHECKOUT > digest.json
    python3 tools/output_digest.py --compare A B

``tests/data/output_digest.json`` is this checkout's digest recorded with
numpy's AVX-512 loops off, the setting its test compares under:

    NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4" \\
        python3 tools/output_digest.py . > tests/data/output_digest.json

For each command it records the exit code and the SHA-256 of stdout, stderr
and every file the command wrote, and it records the Python and numpy
versions that ran them.  A checkout is run in a fresh interpreter
with its ``src`` first on ``PYTHONPATH``, one in-process ``satrep.cli.main``
call per command, in a temporary directory, writing no bytecode.
``--compare`` takes two checkouts or two recorded digests (or one of each),
compares only their commands (not the checkout or the versions), lists the
commands whose records differ, each with the parts that differ
(exit code, stdout, stderr, which written file), ends with the number of
exit codes that changed, and exits 1 if any command differs, 0 if none.

The commands: ``flyby``, ``rates``, ``sensitivity``, both ``mc`` time
models (each also with its report written to ``--output``, and the
time-resolved one with per-trial dumps at depths 1-3) and
``caps-curve`` at and around the defaults; ``rates`` and a
constant-p ``mc`` with the repeater section's gate efficiency and detector
exponent changed; one sweep per row status (``ok``, ``no_visibility``,
``zero_transmission`` both ways, ``zero_herald_rate``) and two
aggregate-key sweeps whose values give rows of several statuses; a
node-key sweep whose later values share the first one's passes and
statuses; a node-key and an aggregate-key sweep read from a scenario
file (the bundled baseline with :data:`CFG_EDIT` applied); a 1,000-point
altitude grid; a few exit 1 and 2 cases, among them both raises of
``pass_aggregates`` in ``mc``; and the first
:data:`BENCH_OPS` operations of the benchmark's ``sweep`` stream for each
of :data:`BENCH_SEEDS`, taken from ``perfbench/workloads.py``, which is
only read.  Standard library only, besides what ``satrep`` imports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_SEEDS = (1, 7)
BENCH_OPS = 60
# Output file placeholders: each is replaced by a path in the run's
# temporary directory, and the digest names the file by its placeholder.
OUT, DUMP = "{out}", "{dump}"
# Input file placeholder: replaced by the path of a scenario file written
# once per run from the bundled baseline with CFG_EDIT's one value changed.
CFG = "{cfg}"
CFG_EDIT = ("altitude_m = 1.5e6", "altitude_m = 1.2e6")
SWEEP_LINKS = ("--links", "4,8,16", "--with-direct")
REPEATER_SET = (
    "--set", "repeater.gate_efficiency=0.9", "--set", "repeater.detector_exponent=2",
)


def _grid(lo: float, hi: float, count: int) -> str:
    return ",".join(f"{lo + (hi - lo) * i / (count - 1):.6g}" for i in range(count))


def _sensitivity(key: str, values: str, *extra: str) -> list[str]:
    return ["sensitivity", "--param", key, "--values", values, *extra]


def _bench_ops() -> list[list[str]]:
    """The first BENCH_OPS sweep operations per seed of BENCH_SEEDS."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    ops = []
    for seed in BENCH_SEEDS:
        stream = module.operations("sweep", seed)
        ops += [list(next(stream).argv) for _ in range(BENCH_OPS)]
    return ops


def commands() -> list[list[str]]:
    """Every command digested, in run order."""
    far = ("--distances-km", "2000,10000,80000", "--links", "4,8", "--with-direct")
    cmds = [
        ["flyby", "--samples", "2001", "--output", OUT],
        ["flyby", "--samples", "4001", "--output", OUT],
        ["rates"],
        ["rates", "--output", OUT],
        ["rates", "--distances-km", _grid(1000, 30000, 30), "--links", "2,4,8,16",
         "--with-direct"],
        _sensitivity("orbit.altitude_m", "5e5,1.5e6,2.5e6", *SWEEP_LINKS),
        _sensitivity("orbit.max_zenith_deg", "60,75,85", *SWEEP_LINKS),
        _sensitivity("channel.beam_waist_m", "0.01,0.05,0.1", *SWEEP_LINKS),
        _sensitivity("channel.receiver_radius_m", "0.25,1,2", *SWEEP_LINKS),
        _sensitivity("source.pair_fidelity", "0.95,0.98,1", *SWEEP_LINKS),
        ["mc", "--trials", "3000", "--seed", "7", "--set", "repeater.nesting_levels=3"],
        ["mc", "--trials", "6", "--seed", "7", "--set", "mc.time_model=time-resolved",
         "--dump-trials", DUMP],
        # Time-resolved per-trial pairs at the other depths, 1 and 3.
        *(["mc", "--trials", "6", "--seed", "7", "--set", "mc.time_model=time-resolved",
           "--set", f"repeater.nesting_levels={n}", "--dump-trials", DUMP] for n in (1, 3)),
        # Reports written to a file, not stdout, by both time models.
        ["mc", "--trials", "2000", "--seed", "11", "--set", "repeater.nesting_levels=1",
         "--output", OUT],
        ["mc", "--trials", "6", "--seed", "11", "--set", "mc.time_model=time-resolved",
         "--output", OUT],
        ["caps-curve"],
        ["caps-curve", "--cin-min", "1", "--cin-max", "50", "--points", "7",
         "--output", OUT],
        # The repeater section off its defaults, which no other command sets.
        ["rates", "--links", "2,4,8", "--with-direct", *REPEATER_SET],
        ["mc", "--trials", "3000", "--seed", "5", *REPEATER_SET,
         "--set", "node.readout_fidelity=0.99", "--dump-trials", DUMP],
        # One sweep per row status.
        ["rates", "--distances-km", "80000", "--links", "4", "--with-direct"],
        ["rates", "--set", "channel.receiver_radius_m=1e-300", *far],
        ["rates", "--set", "channel.coupling_efficiency=1e-300", *far],
        ["rates", "--set", "node.caps_success_probability=0", *far],
        # Rows of several statuses in one run: values that see no pass or no
        # light beside values that do.
        _sensitivity("orbit.altitude_m", "1e3,1.5e6", *far),
        _sensitivity("channel.receiver_radius_m", "1e-300,1", *far),
        # Later values share the first one's aggregates and statuses.
        _sensitivity("node.caps_success_probability", "0,0.5,1", *far),
        _sensitivity("node.caps_fidelity", "0.95,0.99", *far, "--output", OUT),
        # The scenario file is read once per run, not once per value.
        _sensitivity("node.spin_decoherence_rate_hz", "0.05,0.5,1", "--config", CFG,
                     *SWEEP_LINKS),
        _sensitivity("channel.beam_waist_m", "0.02,0.05", "--config", CFG,
                     "--set", "node.caps_fidelity=0.97", *SWEEP_LINKS),
        # The 1,000-point grid: 100 altitudes x 10 distances.
        _sensitivity("orbit.altitude_m", _grid(5e5, 2.5e6, 100),
                     "--distances-km", _grid(2000, 20000, 10), "--links", "4"),
        # Exit 1 and 2.
        ["rates", "--distances-km", "10000,0", "--links", "4"],
        ["rates", "--set", "source.pair_fidelity=0.1"],
        ["rates", "--links", "3"],
        ["flyby", "--set", "orbit.altitude_m=1e3", "--output", OUT],
        # pass_aggregates raises zero_transmission and no_visibility, after
        # the scenario loads.
        ["mc", "--trials", "3", "--set", "channel.receiver_radius_m=1e-300"],
        ["mc", "--trials", "3", "--set", "orbit.altitude_m=1e3"],
    ]
    return cmds + _bench_ops()


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _versions() -> dict[str, str]:
    """The Python and numpy versions of this process."""
    import platform

    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def _run_all(cmds: list[list[str]], workdir: Path) -> list[dict]:
    """In this process: one ``satrep.cli.main`` call per command."""
    from satrep.cli import main
    from satrep.config import bundled_baseline_text

    baseline = bundled_baseline_text()
    if CFG_EDIT[0] not in baseline:
        raise SystemExit(f"the bundled baseline has no line {CFG_EDIT[0]!r}")
    scenario = workdir / "scenario.cfg"
    scenario.write_text(baseline.replace(*CFG_EDIT))
    records = []
    for argv in cmds:
        paths = {p: workdir / name for p, name in ((OUT, "out"), (DUMP, "dump"))}
        for path in paths.values():
            path.unlink(missing_ok=True)
        args = {**paths, CFG: scenario}
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([str(args.get(a, a)) for a in argv])
            except Exception as exc:  # an escape from the CLI is an outcome too
                code = f"raised {type(exc).__name__}"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        records.append({
            "argv": argv,
            "exit": code,
            "stdout": _sha(stdout.getvalue()),
            "stderr": _sha(stderr.getvalue()),
            "files": {
                p: _sha(path.read_text()) for p, path in paths.items() if path.exists()
            },
        })
    return records


def digest(checkout: Path) -> dict:
    """Run every command against ``checkout``'s ``src`` in a child process."""
    src = checkout.resolve() / "src"
    if not (src / "satrep").is_dir():
        raise SystemExit(f"{checkout}: no src/satrep")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", tmp],
            input=json.dumps(commands()), capture_output=True, text=True,
            cwd=tmp, env=env, check=False,
        )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: digest run failed:\n{proc.stderr[-2000:]}")
    return {"checkout": str(checkout), **json.loads(proc.stdout)}


def _load(arg: str) -> dict:
    path = Path(arg)
    return digest(path) if path.is_dir() else json.loads(path.read_text())


def compare(a: dict, b: dict) -> dict[str, list[str]]:
    """The commands, as argv strings, whose records differ or that only one
    side ran, each with the parts that differ: ``exit``, ``stdout``,
    ``stderr``, ``file <placeholder>`` per written file, or ``only in A`` /
    ``only in B``."""
    def by_argv(d):
        return {" ".join(r["argv"]): r for r in d["commands"]}

    left, right = by_argv(a), by_argv(b)
    differ = {}
    for cmd in {**left, **right}:
        x, y = left.get(cmd), right.get(cmd)
        if x is None or y is None:
            parts = ["only in B" if x is None else "only in A"]
        else:
            parts = [part for part in ("exit", "stdout", "stderr") if x[part] != y[part]]
            files = sorted({*x["files"], *y["files"]})
            parts += [f"file {f}" for f in files if x["files"].get(f) != y["files"].get(f)]
        if parts:
            differ[cmd] = parts
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", help="checkout to digest")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A", "B"),
        help="two checkouts or recorded digests",
    )
    parser.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        records = _run_all(json.loads(sys.stdin.read()), Path(args.child))
        json.dump({**_versions(), "commands": records}, sys.stdout)
        return 0
    if args.compare:
        a, b = (_load(x) for x in args.compare)
        differ = compare(a, b)
        for cmd, parts in differ.items():
            print(f"differs: {cmd[:200]} ({', '.join(parts)})")
        exits = sum("exit" in parts for parts in differ.values())
        total = len({" ".join(r["argv"]) for d in (a, b) for r in d["commands"]})
        print(f"{len(differ)} of {total} commands differ; "
              f"{exits} exit codes changed")
        return 1 if differ else 0
    if args.checkout is None:
        parser.error("give a checkout, or --compare A B")
    json.dump(digest(Path(args.checkout)), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
