"""The functions ``perfbench/tracing.py`` wraps by name still exist.

The tracer looks each name of its ``TRACED`` table up in the ``satrep``
module that defines it, so renaming or deleting one breaks every traced
benchmark run.  The table is read from the source with :mod:`ast`; nothing
under ``perfbench/`` is imported or written.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_table():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def test_every_traced_function_is_defined_in_its_module():
    table = traced_table()
    assert table
    for module, names in table.items():
        mod = importlib.import_module(f"satrep.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            assert callable(fn), f"satrep.{module}.{name} is gone"
            assert fn.__module__ == mod.__name__, f"satrep.{module}.{name} is not defined there"
