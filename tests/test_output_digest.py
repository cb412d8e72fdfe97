"""``tools/output_digest.py``: its command list, its in-process runner,
``--compare``, and this checkout's outputs against the committed digest
``tests/data/output_digest.json``."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from satrep.cli import main
from satrep.config import bundled_baseline_text

ROOT = Path(__file__).resolve().parents[1]
DIGEST = ROOT / "tests" / "data" / "output_digest.json"
# numpy's AVX-512 loops for exp, log, power, arccos and others differ from
# glibc's in the last bit; with them off, its loops match on any x86-64 CPU.
# The committed digest was recorded with this setting.
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"}


@pytest.fixture(scope="module")
def digest_tool():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "tools" / "output_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file in tools/ or perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_commands_cover_the_benchmark_stream_and_every_subcommand(digest_tool):
    cmds = digest_tool.commands()
    bench = len(digest_tool.BENCH_SEEDS) * digest_tool.BENCH_OPS
    assert len(cmds) == len({" ".join(c) for c in cmds})  # no command twice
    assert all(c[0] == "sensitivity" for c in cmds[-bench:])
    assert {c[0] for c in cmds} == {
        "flyby", "rates", "sensitivity", "mc", "caps-curve",
    }
    # Per-trial dumps of both time models, the time-resolved one at depths
    # 2, 1 and 3, and reports of both to a file.
    dumps = [c for c in cmds if "--dump-trials" in c]
    assert [("mc.time_model=time-resolved" in c) for c in dumps] == [True, True, True, False]
    assert "repeater.nesting_levels=1" in dumps[1] and "repeater.nesting_levels=3" in dumps[2]
    reports = [c for c in cmds if c[0] == "mc" and digest_tool.OUT in c]
    assert [("mc.time_model=time-resolved" in c) for c in reports] == [False, True]
    assert len(cmds) == 157
    # One node-key and one aggregate-key sweep read the scenario file.
    assert [c[c.index("--param") + 1] for c in cmds if digest_tool.CFG in c] == [
        "node.spin_decoherence_rate_hz", "channel.beam_waist_m",
    ]


def test_scenario_file_changes_one_value(digest_tool, tmp_path, capsys):
    argv = ["rates", "--config", digest_tool.CFG, "--distances-km", "10000", "--links", "4"]
    (record,) = digest_tool._run_all([argv], tmp_path)
    assert record["exit"] == 0 and record["files"] == {}
    scenario = tmp_path / "scenario.cfg"
    assert main([*argv[:2], str(scenario), *argv[3:]]) == 0
    stdout = capsys.readouterr().out
    assert record["stdout"] == hashlib.sha256(stdout.encode()).hexdigest()
    changed = [
        line for line, base in zip(
            scenario.read_text().splitlines(), bundled_baseline_text().splitlines()
        ) if line != base
    ]
    assert changed == [digest_tool.CFG_EDIT[1]]


def test_record_hashes_stdout_and_written_files(digest_tool, tmp_path, capsys):
    argv = ["rates", "--distances-km", "10000,80000", "--links", "4"]
    (record,) = digest_tool._run_all([argv], tmp_path)
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert record["exit"] == 0
    assert record["stdout"] == hashlib.sha256(stdout.encode()).hexdigest()
    assert record["files"] == {}
    (written,) = digest_tool._run_all([argv + ["--output", digest_tool.OUT]], tmp_path)
    assert written["files"] == {digest_tool.OUT: record["stdout"]}
    assert written["stdout"] == hashlib.sha256(b"").hexdigest()
    (bad,) = digest_tool._run_all([["rates", "--links", "3"]], tmp_path)
    assert bad["exit"] == 1 and bad["stderr"] != record["stderr"]


def test_compare_lists_differing_commands(digest_tool, tmp_path, capsys):
    records = [
        {"argv": ["rates"], "exit": 0, "stdout": "a", "stderr": "b", "files": {}},
        {"argv": ["mc"], "exit": 3, "stdout": "c", "stderr": "b", "files": {}},
    ]
    same, changed = tmp_path / "same.json", tmp_path / "changed.json"
    same.write_text(json.dumps({"commands": records}))
    moved = [dict(records[0]), dict(records[1], files={"{dump}": "d"})]
    # The checkout and the versions are not compared.
    changed.write_text(json.dumps({"checkout": "x", "numpy": "0", "commands": moved}))
    assert digest_tool.main(["--compare", str(same), str(same)]) == 0
    assert capsys.readouterr().out == "0 of 2 commands differ; 0 exit codes changed\n"
    assert digest_tool.main(["--compare", str(same), str(changed)]) == 1
    assert capsys.readouterr().out == (
        "differs: mc (file {dump})\n1 of 2 commands differ; 0 exit codes changed\n"
    )
    # Each differing part is named, and exit-code changes are counted.
    other = [
        dict(records[0], exit=2, stderr="e", files={"{out}": "f"}),
        dict(records[1], argv=["caps-curve"]),
    ]
    changed.write_text(json.dumps({"commands": other}))
    assert digest_tool.main(["--compare", str(same), str(changed)]) == 1
    assert capsys.readouterr().out == (
        "differs: rates (exit, stderr, file {out})\n"
        "differs: mc (only in A)\n"
        "differs: caps-curve (only in B)\n"
        "3 of 3 commands differ; 1 exit codes changed\n"
    )


def test_outputs_match_the_committed_digest():
    """Every command of the tool prints the committed bytes and exit code.
    A deliberate output change re-records the file (see the tool's usage)
    with the same setting."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"), "--compare",
         str(DIGEST), str(ROOT)],
        capture_output=True, text=True, env={**os.environ, **NO_AVX512}, check=False,
    )
    recorded = json.loads(DIGEST.read_text())
    assert proc.returncode == 0, (
        f"outputs differ from {DIGEST.name}, recorded with Python "
        f"{recorded['python']} and numpy {recorded['numpy']}:\n"
        f"{proc.stdout}{proc.stderr[-2000:]}"
    )
