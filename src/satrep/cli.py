"""Command-line surface.

Five subcommands, all pure functions of the config file and flags (no clock,
no network, no hidden state), emitting CSV or JSON:

* ``flyby``      — time-resolved single-pass profile (transmission, fidelity).
* ``rates``      — pairs/fidelity versus total distance for given chain sizes.
* ``sensitivity``— the same sweep repeated over values of one parameter.
* ``mc``         — Monte Carlo cross-check of the analytic recursion.
* ``caps-curve`` — memory-loading success probability versus cooperativity.

Every CSV starts with a ``#`` comment line holding the fully resolved
parameter set as JSON, so an output file identifies its own provenance.
Files are written atomically (temp file in the target directory, then rename).

Exit codes: 0 success; 1 usage or configuration error; 2 a well-formed
scenario that the model rejects (no visibility, unphysical parameters,
quadrature failure); 3 Monte Carlo comparison ran but did not pass.  A sweep
point the model has no result for is a row whose ``status`` names the cause.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import ConfigError, Scenario, load_scenario, sweepable_keys
from .flyby import QuadratureError, build_profile, converged_aggregates
from .mc_oracle import compare_report, simulate_chain
from .node import caps_success
from .repeater import (
    RepeaterConfig,
    SweepPoint,
    distance_sweep,
    evaluate_with_aggregates,
    pairs_per_flyby,
    rate_direct,
)

__all__ = ["UsageError", "main"]

_DEFAULT_DISTANCES_KM = "10000,12500,15000,17500,20000"
_DEFAULT_LINKS = "4,8"

_SWEEP_COLUMNS = [
    "L_total_km",
    "n_levels",
    "h_km",
    "L0_km",
    "T_FB_s",
    "P0",
    "F_pair_avg",
    "rate_hz",
    "pairs_per_flyby",
    "fidelity_final",
    "visible",
    "status",
]


class UsageError(Exception):
    """Bad invocation: wrong flags, malformed lists, unknown sweep keys."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the documented contract is 1,
    # so usage problems are surfaced as exceptions and mapped in main().
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--config", metavar="FILE", help="scenario file (defaults to the baseline)"
    )
    common.add_argument(
        "--set",
        metavar="SECTION.KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one scenario value (repeatable)",
    )
    common.add_argument("--output", metavar="FILE", help="write here instead of stdout")

    parser = _Parser(prog="satrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser(
        "flyby", parents=[common], help="single-pass transmission/fidelity profile"
    )
    p.add_argument("--samples", type=int, default=2001, help="CSV profile grid points (odd)")
    p.set_defaults(func=_cmd_flyby, output_required=True)

    p = sub.add_parser(
        "rates", parents=[common], help="pairs and fidelity versus total distance"
    )
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser(
        "sensitivity",
        parents=[common],
        help="distance sweep repeated over values of one parameter",
    )
    _add_sweep_flags(p)
    p.add_argument("--param", required=True, metavar="SECTION.KEY")
    p.add_argument(
        "--values", required=True, metavar="V1,V2,...", help="comma-separated values"
    )
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser(
        "mc", parents=[common], help="Monte Carlo cross-check of the analytic model"
    )
    p.add_argument("--trials", type=int, help="override [mc] trials")
    p.add_argument("--seed", type=int, help="override [mc] seed")
    p.add_argument(
        "--dump-trials", metavar="FILE", help="also write per-trial samples as CSV"
    )
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser(
        "caps-curve",
        parents=[common],
        help="memory-loading success probability versus internal cooperativity",
    )
    p.add_argument("--cin-min", type=float, default=0.0)
    p.add_argument("--cin-max", type=float, default=300.0)
    p.add_argument("--points", type=int, default=601)
    p.set_defaults(func=_cmd_caps_curve)

    return parser


def _add_sweep_flags(p: _Parser) -> None:
    p.add_argument(
        "--distances-km",
        default=_DEFAULT_DISTANCES_KM,
        metavar="D1,D2,...",
        help="total ground distances in km",
    )
    p.add_argument(
        "--links",
        default=_DEFAULT_LINKS,
        metavar="N1,N2,...",
        help="elementary links per chain (powers of two)",
    )
    p.add_argument(
        "--with-direct",
        action="store_true",
        help="add no-repeater direct-transmission rows (n_levels = 0)",
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.error("a subcommand is required")
        if getattr(args, "output_required", False) and args.output is None:
            parser.error(f"{args.command} requires --output")
        return args.func(args)
    except UsageError as exc:
        print(f"satrep: error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"satrep: config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, QuadratureError) as exc:
        print(f"satrep: model error: {exc}", file=sys.stderr)
        return 2


def _load(args) -> Scenario:
    return load_scenario(args.config, tuple(args.overrides))


def _provenance(scenario: Scenario) -> str:
    return "# " + json.dumps(scenario.flat_dict()) + "\n"


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
        return
    _atomic_write(args.output, text)


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(
            dir=str(target.parent) or ".", prefix=target.name + ".", suffix=".tmp"
        )
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(scenario: Scenario, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(_provenance(scenario))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    return values


def _parse_links(text: str) -> list[int]:
    try:
        counts = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--links expects comma-separated integers, got {text!r}") from None
    levels = []
    for count in counts:
        n = count.bit_length() - 1
        if count < 2 or 2**n != count:
            raise UsageError(f"--links entries must be powers of two >= 2, got {count}")
        levels.append(n)
    return levels


# ---------------------------------------------------------------- subcommands


def _cmd_flyby(args) -> int:
    scenario = _load(args)
    cfg = scenario.repeater_config()
    if args.samples < 3 or args.samples % 2 == 0:
        raise UsageError("--samples must be an odd integer >= 3")
    profile = build_profile(
        cfg.geometry, cfg.channel, cfg.source.pair_fidelity, n_samples=args.samples
    )
    agg = converged_aggregates(cfg.geometry, cfg.channel, cfg.source.pair_fidelity)
    header = ["t_s", "d_m", "zenith_rad", "eta_tr", "eta2_tr", "f_pair"]
    rows = [
        [
            repr(float(profile.times_s[i])),
            repr(float(profile.slant_m[i])),
            repr(float(profile.zenith_rad[i])),
            repr(float(profile.eta_tr[i])),
            repr(float(profile.eta2_tr[i])),
            repr(float(profile.f_pair[i])),
        ]
        for i in range(profile.n_samples)
    ]
    _atomic_write(args.output, _csv_text(scenario, header, rows))
    print(f"T_FB_s = {agg.flyby_duration_s!r}")
    print(f"P0 = {agg.p0!r}")
    print(f"F_pair_avg = {agg.f_pair_avg!r}")
    return 0


def _sweep_rows(
    scenario: Scenario,
    distances_m: list[float],
    levels: list[int],
    with_direct: bool,
    cache: dict,
) -> list[dict]:
    """One output dict per :func:`distance_sweep` point: the chain at each
    depth in ``levels``, then, with ``with_direct``, the direct-transmission
    reference as depth 0."""
    base = scenario.repeater_config()
    depths = levels + [0] if with_direct else levels
    points = distance_sweep(base, distances_m, cache, depths)
    return [_point_row(base, pt) for pt in points]


def _point_row(base: RepeaterConfig, pt: SweepPoint) -> dict:
    row = {
        "L_total_km": pt.l_total_m / 1e3,
        "n_levels": pt.n_levels,
        "h_km": pt.altitude_m / 1e3,
        "L0_km": pt.link_length_m / 1e3,
        "visible": pt.visible,
        "status": pt.status,
    }
    agg = pt.aggregates
    if agg is None:
        if not pt.visible:
            row["T_FB_s"] = 0.0
        return row
    row["T_FB_s"] = agg.flyby_duration_s
    row["P0"] = agg.p0
    row["F_pair_avg"] = agg.f_pair_avg
    if pt.n_levels == 0:
        # Direct rows use only the pass aggregates: no memories, no swapping.
        # Unlike repeater rows, whose fidelity_final is the Werner parameter,
        # this is the Bell-state fidelity F_pair_avg.
        rate = rate_direct(base, agg)
        row["rate_hz"] = rate
        row["pairs_per_flyby"] = pairs_per_flyby(rate, agg.flyby_duration_s)
        row["fidelity_final"] = agg.f_pair_avg
    elif pt.result is not None:
        row["rate_hz"] = pt.result.rate_hz
        row["pairs_per_flyby"] = pt.result.pairs_per_flyby
        row["fidelity_final"] = pt.result.fidelity_final
        for k, f in enumerate(pt.result.fidelity_per_level):
            row[f"F{k}"] = f
    return row


def _render_sweep(rows: list[dict], levels: list[int], extra: list[str]) -> tuple[list[str], list[list]]:
    max_levels = max(levels, default=0)
    header = extra + _SWEEP_COLUMNS + [f"F{k}" for k in range(max_levels + 1)]
    rendered = []
    for row in rows:
        rendered.append([_cell(row.get(col)) for col in header])
    return header, rendered


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_rates(args) -> int:
    scenario = _load(args)
    distances = [d * 1e3 for d in _parse_floats(args.distances_km, "--distances-km")]
    levels = _parse_links(args.links)
    rows = _sweep_rows(scenario, distances, levels, args.with_direct, {})
    header, rendered = _render_sweep(rows, levels, [])
    _emit(args, _csv_text(scenario, header, rendered))
    return 0


def _cmd_sensitivity(args) -> int:
    sweepable = sweepable_keys()
    if args.param not in sweepable:
        raise UsageError(
            f"cannot sweep {args.param!r}; sweepable keys: {', '.join(sweepable)}"
        )
    tokens = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    if not tokens:
        raise UsageError("--values must list at least one value")
    distances = [d * 1e3 for d in _parse_floats(args.distances_km, "--distances-km")]
    levels = _parse_links(args.links)

    all_rows: list[dict] = []
    cache: dict = {}
    base = _load(args)
    for tok in tokens:
        scenario = load_scenario(
            args.config, tuple(args.overrides) + (f"{args.param}={tok}",)
        )
        rows = _sweep_rows(scenario, distances, levels, args.with_direct, cache)
        for row in rows:
            row["param"] = args.param
            row["value"] = float(tok)
        all_rows.extend(rows)
    header, rendered = _render_sweep(all_rows, levels, ["param", "value"])
    _emit(args, _csv_text(base, header, rendered))
    return 0


def _cmd_mc(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise UsageError("--seed must fit in 64 bits")
    scenario = _load(args)
    scenario = scenario.with_mc(trials=args.trials, seed=args.seed)
    cfg = scenario.repeater_config()
    agg = converged_aggregates(cfg.geometry, cfg.channel, cfg.source.pair_fidelity)
    analytic = evaluate_with_aggregates(cfg, agg)
    estimates = simulate_chain(
        scenario.mc, cfg, agg, keep_samples=args.dump_trials is not None
    )
    report = compare_report(analytic, estimates)
    payload = report.to_dict()
    payload["parameters"] = scenario.flat_dict()
    _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if args.dump_trials is not None:
        buf = io.StringIO()
        buf.write(_provenance(scenario))
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["trial", "pairs", "fidelity"])
        for i in range(estimates.trials):
            fid = estimates.fidelity_samples[i]
            writer.writerow(
                [
                    i,
                    repr(float(estimates.pairs_samples[i])),
                    "" if math.isnan(fid) else repr(float(fid)),
                ]
            )
        _atomic_write(args.dump_trials, buf.getvalue())
    return 0 if report.all_pass else 3


def _cmd_caps_curve(args) -> int:
    scenario = _load(args)
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    if args.cin_min < 0 or args.cin_max <= args.cin_min:
        raise UsageError("need 0 <= --cin-min < --cin-max")
    grid = np.linspace(args.cin_min, args.cin_max, args.points)
    eta = caps_success(grid)
    header = ["c_in", "eta_caps"]
    rows = [[repr(float(c)), repr(float(e))] for c, e in zip(grid, eta)]
    _emit(args, _csv_text(scenario, header, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
