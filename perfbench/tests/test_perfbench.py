"""Tests of the benchmark itself: operation streams, tracing, metric names
and the correctness checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_ops(workload: str, seed: int, n: int = 12) -> list[workloads.Op]:
    return list(itertools.islice(workloads.operations(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations_other_seed_other_operations(workload):
    assert first_ops(workload, 5) == first_ops(workload, 5)
    assert [op.argv for op in first_ops(workload, 5)] != [
        op.argv for op in first_ops(workload, 6)
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_block_has_the_same_mix(workload):
    want = (
        ["aggregate-key", "node-key", "node-key"]
        if workload == "sweep"
        else ["depth1", "depth2", "depth3"]
    )
    ops = first_ops(workload, 9, 30)
    for start in range(0, len(ops), workloads.BLOCK):
        assert sorted(op.kind for op in ops[start:start + workloads.BLOCK]) == want


def test_stored_reference_matches_the_default_seed_stream():
    ref = worker.load_reference("sweep", workloads.DEFAULT_SEED)
    ops = first_ops("sweep", workloads.DEFAULT_SEED, workloads.BLOCK)
    assert sorted(ref) == [op.index for op in ops]
    for op in ops:
        assert ref[op.index][0] == list(op.argv)


def bound_functions() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "satrep" or name.startswith("satrep.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_traced_run_restores_every_function(tmp_path):
    import satrep.cli
    import satrep.flyby
    import satrep.mc_oracle

    before = bound_functions()
    original = satrep.flyby.build_profile
    tracer = tracing.Tracer()
    with tracer:
        wrapped = satrep.flyby.build_profile
        assert wrapped is not original
        assert satrep.cli.build_profile is wrapped
        assert satrep.mc_oracle.build_profile is wrapped
        assert satrep.cli.main(["rates", "--distances-km", "10000", "--links", "4",
                                "--output", str(tmp_path / "out.csv")]) == 0
    after = bound_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "flyby.converged_aggregates", "flyby.build_profile",
            "orbit.pass_timing", "channel.pair_fidelity"} <= names
    by_id = {s.span_id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "flyby.build_profile":
            assert by_id[s.parent].name == "flyby.converged_aggregates"
        assert s.self_s <= s.end_s - s.start_s


def test_worker_traced_run_restores_functions_and_counts_exactly(tmp_path):
    import satrep

    before = bound_functions()
    results = []
    for _ in range(2):
        runner = worker.Runner("sweep", 3, tmp_path)
        record = worker.traced(runner, "sweep", 3, 0.0, tmp_path / "spans.jsonl.gz")
        assert runner.failed == 0, runner.failures
        results.append(record["per_layer"])
    after = bound_functions()
    assert all(after[k] is before[k] for k in before)
    assert satrep.build_profile is before[("satrep", "build_profile")]
    for key in ("flyby.build_profile.samples", "sweep.aggregates_per_row",
                "flyby.converged_aggregates.calls"):
        assert results[0][key] == results[1][key] > 0
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_exactly_the_declared_ones(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep",
         "--seed", "2", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def reference_csv() -> tuple[str, int]:
    ref = worker.load_reference("sweep", workloads.DEFAULT_SEED)
    op = first_ops("sweep", workloads.DEFAULT_SEED, 1)[0]
    return ref[op.index][1], op.items


def corrupt(text: str, column: str, new) -> str:
    """Replace ``column`` in the first row that has it filled."""
    lines = text.splitlines(keepends=True)
    header = lines[1].rstrip("\n").split(",")
    col = header.index(column)
    for i in range(2, len(lines)):
        cells = lines[i].rstrip("\n").split(",")
        if cells[col]:
            cells[col] = new(cells[col])
            lines[i] = ",".join(cells) + "\n"
            return "".join(lines)
    raise AssertionError(f"no filled {column} cell")


def test_sweep_check_accepts_the_reference_and_flags_corruption():
    text, rows = reference_csv()
    assert checks.check_sweep(0, text, rows, text) == []
    assert checks.check_sweep(2, text, rows) == ["exit code 2"]
    nudged = corrupt(text, "pairs_per_flyby", lambda c: repr(float(c) * (1 + 1e-9)))
    assert any("pairs_per_flyby" in p for p in checks.check_sweep(0, nudged, rows))
    drifted = corrupt(text, "P0", lambda c: repr(float(c) * (1 + 1e-5)))
    assert checks.check_sweep(0, drifted, rows) == []
    assert any("P0" in p for p in checks.check_sweep(0, drifted, rows, text))
    for column, bad in (("F_pair_avg", "1.5"), ("rate_hz", "nan"), ("T_FB_s", "inf")):
        broken = corrupt(text, column, lambda c: bad)
        assert any(column in p for p in checks.check_sweep(0, broken, rows)), column
    assert checks.check_sweep(0, text, rows + 1)


def test_sweep_reference_match_ignores_added_columns():
    text, rows = reference_csv()
    lines = text.splitlines()
    widened = [lines[0], lines[1] + ",status"] + [line + ",ok" for line in lines[2:]]
    assert checks.check_sweep(0, "\n".join(widened) + "\n", rows, text) == []


def mc_report(tmp_path, time_model: str) -> str:
    import satrep.cli

    out = tmp_path / "mc.json"
    code = satrep.cli.main(["mc", "--trials", "300" if time_model == "constant-p" else "2",
                            "--seed", "4", "--set", "repeater.nesting_levels=1",
                            "--set", f"mc.time_model={time_model}", "--output", str(out)])
    assert code in (0, 3)
    return out.read_text()


@pytest.mark.parametrize("time_model", ["constant-p", "time-resolved"])
def test_mc_check_accepts_a_report_and_flags_large_z(tmp_path, time_model):
    text = mc_report(tmp_path, time_model)
    trials = 300 if time_model == "constant-p" else 2
    assert checks.check_mc(3, text, trials, 1, time_model) == []
    assert checks.check_mc(1, text, trials, 1, time_model) == ["exit code 1"]
    report = json.loads(text)
    report["completed_fraction"] = 0.0
    assert checks.check_mc(3, json.dumps(report), trials, 1, time_model)
    report = json.loads(text)
    report["entries"][1]["mc_stderr"] = None
    assert checks.check_mc(3, json.dumps(report), trials, 1, time_model)
    if time_model == "constant-p":
        report = json.loads(text)
        pairs = next(e for e in report["entries"] if e["quantity"] == "pairs_per_flyby")
        pairs["z"] = 5.5
        assert any("|z|" in p for p in checks.check_mc(3, json.dumps(report), trials, 1, time_model))
