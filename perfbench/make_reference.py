"""Store the reference outputs the sweep check compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs the first block of ``sweep`` operations of the default seed and writes
each CSV, with an index of the command lines, to ``perfbench/reference/``.
Run it only at a commit whose sweep numbers are trusted: the benchmark then
fails every operation whose numbers drift from these by more than the
quadrature tolerance.
"""

from __future__ import annotations

import itertools
import json
import sys

import workloads
from worker import REFERENCE_DIR


def main() -> int:
    from satrep import cli

    REFERENCE_DIR.mkdir(exist_ok=True)
    index = {}
    ops = workloads.operations("sweep", workloads.DEFAULT_SEED)
    for op in itertools.islice(ops, workloads.BLOCK):
        name = f"sweep-seed{workloads.DEFAULT_SEED}-op{op.index}.csv"
        code = cli.main(list(op.argv) + ["--output", str(REFERENCE_DIR / name)])
        if code != 0:
            raise SystemExit(f"operation {op.index} exited {code}")
        index[str(op.index)] = {"argv": list(op.argv), "file": name}
    (REFERENCE_DIR / "index.json").write_text(json.dumps(index, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
