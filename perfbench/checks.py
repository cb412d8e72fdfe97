"""Correctness checks on the output of one benchmark operation.

Each check returns a list of problems; an empty list means the output passed.
A failed check counts the operation as failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

__all__ = ["check_mc", "check_sweep", "parse_sweep_csv"]

PAIRS_RTOL = 1e-12
REFERENCE_RTOL = 1e-6  # the quadrature's convergence tolerance
Z_MAX = 5.0
FIDELITY_RANGE = (-1.0 / 3.0, 1.0)
_FIDELITY_COLUMN = re.compile(r"^(F_pair_avg|fidelity_final|F\d+)$")
_NUMERIC_COLUMN = re.compile(
    r"^(value|L_total_km|n_levels|h_km|L0_km|T_FB_s|P0|rate_hz|pairs_per_flyby"
    r"|F_pair_avg|fidelity_final|F\d+)$"
)
_ROW_KEY = ("value", "L_total_km", "n_levels")


def parse_sweep_csv(text: str) -> list[dict[str, str]]:
    """Rows of a ``rates``/``sensitivity`` CSV as column-name dicts; the
    leading provenance line must be a ``#`` comment holding JSON."""
    first, _, body = text.partition("\n")
    if not first.startswith("# "):
        raise ValueError("missing provenance line")
    json.loads(first[2:])
    return list(csv.DictReader(io.StringIO(body)))


def check_sweep(
    exit_code: int, text: str, expected_rows: int, reference: str | None = None
) -> list[str]:
    """Check a sweep CSV: exit code 0, the expected row count, finite numeric
    cells, pairs_per_flyby = rate_hz * T_FB_s, fidelities within [-1/3, 1] and,
    when ``reference`` is given, agreement with it column by column."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        rows = parse_sweep_csv(text)
    except (ValueError, csv.Error) as exc:
        return [f"unparseable CSV: {exc}"]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    lo, hi = FIDELITY_RANGE
    for i, row in enumerate(rows):
        if row.get("visible") not in ("true", "false"):
            problems.append(f"row {i}: visible={row.get('visible')!r}")
        numbers = {}
        for col, cell in row.items():
            if cell in ("", None):
                continue
            try:
                value = float(cell)
            except ValueError:
                if _NUMERIC_COLUMN.match(col):
                    problems.append(f"row {i}: {col}={cell!r} is not a number")
                continue  # a text column added after this check was written
            if not math.isfinite(value):
                problems.append(f"row {i}: {col}={cell!r} is not finite")
                continue
            numbers[col] = value
            if _FIDELITY_COLUMN.match(col) and not lo <= value <= hi:
                problems.append(f"row {i}: {col}={value!r} outside [-1/3, 1]")
        if {"rate_hz", "T_FB_s", "pairs_per_flyby"} <= numbers.keys():
            want = numbers["rate_hz"] * numbers["T_FB_s"]
            got = numbers["pairs_per_flyby"]
            if abs(got - want) > PAIRS_RTOL * max(abs(got), abs(want)):
                problems.append(
                    f"row {i}: pairs_per_flyby {got!r} != rate_hz*T_FB_s {want!r}"
                )
    if reference is not None:
        problems += _compare_reference(rows, parse_sweep_csv(reference))
    return problems


def _compare_reference(rows: list[dict], ref_rows: list[dict]) -> list[str]:
    """Match rows on (value, distance, depth) and cells on column name, so an
    added column or a reordered sweep does not break the comparison."""
    by_key = {tuple(r.get(k) for k in _ROW_KEY): r for r in rows}
    problems = []
    for ref in ref_rows:
        key = tuple(ref.get(k) for k in _ROW_KEY)
        row = by_key.get(key)
        if row is None:
            problems.append(f"reference row {key} missing")
            continue
        for col, want in ref.items():
            if col not in row:
                problems.append(f"column {col!r} missing")
                return problems
            got = row[col]
            if not _NUMERIC_COLUMN.match(col) or want == "" or got == "":
                if got != want:
                    problems.append(f"{key} {col}: {got!r} != reference {want!r}")
                continue
            a, b = float(got), float(want)
            if abs(a - b) > REFERENCE_RTOL * max(abs(a), abs(b)):
                problems.append(f"{key} {col}: {a!r} != reference {b!r}")
    return problems


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_mc(
    exit_code: int, text: str, trials: int, depth: int, time_model: str
) -> list[str]:
    """Check an ``mc`` JSON report.

    Exit code 3 is the documented outcome while the waiting-gap rows are out
    of band, so it passes.  Every reported estimate must be finite and the
    completed fraction within (0, 1].  In constant-p mode the pairs and
    elementary-time estimators are built to have the analytic mean, so their
    |z| must be at most 5.  The time-resolved model truncates at the pass
    end and follows the instantaneous transmission, so its pairs sit far
    below the analytic value by design (z near -100); there the pairs mean
    must lie in (0, analytic] instead.
    """
    if exit_code not in (0, 3):
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"unparseable JSON: {exc}"]
    problems = []
    for field, want in (
        ("trials", trials),
        ("n_levels", depth),
        ("time_model", time_model),
    ):
        if report.get(field) != want:
            problems.append(f"{field}={report.get(field)!r}, expected {want!r}")
    fraction = report.get("completed_fraction")
    if not (_finite(fraction) and 0.0 < fraction <= 1.0):
        problems.append(f"completed_fraction={fraction!r} outside (0, 1]")
    entries = {e.get("quantity"): e for e in report.get("entries", [])}
    if len(entries) != 3 + depth:
        problems.append(f"{len(entries)} report rows, expected {3 + depth}")
    for name, e in entries.items():
        for field in ("analytic", "mc_mean", "mc_stderr"):
            if not _finite(e.get(field)):
                problems.append(f"{name}.{field}={e.get(field)!r} is not finite")
    for name in ("pairs_per_flyby", "elementary_time_s"):
        e = entries.get(name)
        if e is None:
            problems.append(f"{name} row missing")
        elif time_model == "constant-p":
            z = e.get("z")
            if not (_finite(z) and abs(z) <= Z_MAX):
                problems.append(f"{name}: |z|={z!r} > {Z_MAX}")
    pairs = entries.get("pairs_per_flyby")
    if time_model != "constant-p" and pairs is not None:
        mean, analytic = pairs.get("mc_mean"), pairs.get("analytic")
        if not (_finite(mean) and _finite(analytic) and 0.0 < mean <= analytic):
            problems.append(
                f"time-resolved pairs {mean!r} outside (0, analytic {analytic!r}]"
            )
    return problems
