"""The benchmark's stored sweep outputs, replayed through the CLI.

``perfbench/reference/`` holds three seed-1 sweep operations and the CSV each
produced; ``perfbench/checks.py`` checks an output's invariants and compares
it with such a CSV at the quadrature's tolerance (relative 1e-6).  Both are
only read here, so a drift in sweep numbers fails these tests, not only the
benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from satrep.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference"
INDEX = json.loads((REFERENCE / "index.json").read_text())


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", PERFBENCH / "checks.py"
    )
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


@pytest.mark.parametrize("op", sorted(INDEX))
def test_stored_sweep_is_reproduced(op, checks, capsys):
    entry = INDEX[op]
    reference = (REFERENCE / entry["file"]).read_text()
    code = main(entry["argv"])
    rows = len(checks.parse_sweep_csv(reference))
    assert checks.check_sweep(code, capsys.readouterr().out, rows, reference) == []
