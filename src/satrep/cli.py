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
CSV cells are joined with commas and never quoted: each is a ``repr``
float, an int, a fixed token (``true``/``false``, a status) or a sweepable
config key, none of which can hold a comma, a quote or a newline.
Files are written atomically (temp file in the target directory, then rename).

Exit codes: 0 success; 1 usage or configuration error; 2 a well-formed
scenario that the model rejects (no visibility, unphysical parameters,
quadrature failure); 3 Monte Carlo comparison ran but did not pass.  A sweep
point the model has no result for is a row whose ``status`` names the cause.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import ConfigError, Scenario, load_scenario, load_scenarios, sweepable_keys
from .flyby import QuadratureError, build_profile, pass_aggregates
from .mc_oracle import compare_report, simulate_chain
from .node import caps_success
from .repeater import distance_sweep, evaluate_with_aggregates

__all__ = ["UsageError", "main"]

_DEFAULT_DISTANCES_KM = "10000,12500,15000,17500,20000"
_DEFAULT_LINKS = "4,8"
# Most points --samples or --points may ask for, and most rows of a sweep,
# checked before any allocation: a --samples point, a --points point and a
# sweep row peak at about 870, 360 and 700 bytes (tracemalloc), under 1 GB.
# A row grows by up to 70 bytes per level of its run's deepest chain, so its
# level cells, rows x (deepest level + 1), are capped too: a run peaks at
# 0.93 GB (10^6 rows at depth 4) or less (47 KB a row at depth 1,000).
_MAX_GRID_POINTS = 10**6
_MAX_ROWS = 10**6
_MAX_CELLS = 5 * 10**6

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


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and then shared: parsing
    leaves it unchanged and returns a fresh namespace per call, whose
    defaults are immutable (no ``--set`` is None, not a shared list)."""
    common = _Parser(add_help=False)
    common.add_argument(
        "--config", metavar="FILE", help="scenario file (defaults to the baseline)"
    )
    common.add_argument(
        "--set",
        metavar="SECTION.KEY=VALUE",
        action="append",
        dest="overrides",
        help="override one scenario value (repeatable)",
    )
    common.add_argument("--output", metavar="FILE", help="write here instead of stdout")

    parser = _Parser(prog="satrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser(
        "flyby", parents=[common], help="single-pass transmission/fidelity profile"
    )
    p.add_argument("--samples", type=int, default=2001, help="CSV profile grid points")
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


def _load(args, *overrides: str) -> Scenario:
    """The scenario from ``--config`` and ``--set``, then ``overrides``
    (``section.key=value``, applied last)."""
    return load_scenario(args.config, (*(args.overrides or ()), *overrides))


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
        return
    _atomic_write(args.output, text)


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file that is then renamed
    over it; the temp file is removed if either step fails, and an
    ``OSError`` (an existing directory at ``path``, a full disk) is a
    :class:`UsageError`."""
    target = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=str(target.parent) or ".", prefix=target.name + ".", suffix=".tmp"
        )
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write {path}: {exc}") from exc
        raise


def _csv_text(scenario: Scenario, header: list[str], rows: list[str]) -> str:
    """The provenance line, the header and ``rows``, each already joined."""
    provenance = "# " + json.dumps(scenario.flat_dict())
    return "\n".join([provenance, ",".join(header), *rows, ""])


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{flag} values must be finite, got {text!r}")
    return values


def _check_rows(args, values: int, distances: list[float], levels: list[int]) -> None:
    """Refuse a sweep of more than :data:`_MAX_ROWS` rows, then one of more
    than :data:`_MAX_CELLS` level cells, rows x (deepest level + 1)."""
    depths = len(levels) + args.with_direct
    rows = values * len(distances) * depths
    width = max(levels, default=0) + 1
    if rows > _MAX_ROWS:
        raise UsageError(
            f"{values} x {len(distances)} x {depths} (values x distances x depths) "
            f"= {rows} rows, more than {_MAX_ROWS}"
        )
    if rows * width > _MAX_CELLS:
        raise UsageError(
            f"{rows} rows x {width} (deepest level + 1) = {rows * width} level cells, "
            f"more than {_MAX_CELLS}"
        )


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
    cfg = scenario.repeater
    if args.samples < 3:
        raise UsageError("--samples must be an integer >= 3")
    if args.samples > _MAX_GRID_POINTS:
        raise UsageError(f"--samples must be at most {_MAX_GRID_POINTS}")
    one_pass = (cfg.geometry, cfg.channel, cfg.source.pair_fidelity)
    profile = build_profile(*one_pass, n_samples=args.samples)
    agg = pass_aggregates(*one_pass)
    header = ["t_s", "d_m", "zenith_rad", "eta_tr", "eta2_tr", "f_pair"]
    columns = (
        profile.times_s, profile.slant_m, profile.zenith_rad,
        profile.eta_tr, profile.eta2_tr, profile.f_pair,
    )
    rows = [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    _atomic_write(args.output, _csv_text(scenario, header, rows))
    print(f"T_FB_s = {agg.flyby_duration_s!r}")
    print(f"P0 = {agg.p0!r}")
    print(f"F_pair_avg = {agg.f_pair_avg!r}")
    return 0


def _sweep_rows(
    scenarios: list[Scenario], leads: list[str], distances_m: list[float],
    levels: list[int], with_direct: bool,
) -> list[str]:
    """CSV rows of one run's distance sweeps, in :func:`_header` order: per
    scenario, each row after that scenario's ``lead`` text (its cells, each
    followed by a comma), the chain at each depth in ``levels``, then, with
    ``with_direct``, the direct-transmission reference as depth 0.  One
    :func:`distance_sweep` call converges every pass of the run, and each
    cell that several rows share (a distance, a depth's link length, a
    pass's T_FB_s, P0 and F_pair_avg) is formatted once, as are the blank
    level cells.  Floats are written with ``repr``, blank where the row
    has none."""
    depths = levels + [0] if with_direct else levels
    width = max(levels, default=0) + 1
    no_levels = "," * width
    totals = [repr(d / 1e3) for d in distances_m]
    links: dict[int, list[str]] = {}
    passes: dict = {}
    cfgs = [scenario.repeater for scenario in scenarios]
    rows = []
    for cfg, lead, sweep in zip(cfgs, leads, distance_sweep(cfgs, distances_m, depths)):
        h_km = repr(cfg.geometry.altitude_m / 1e3)
        for n, depth_rows in zip(depths, sweep):
            if n not in links:
                links[n] = [repr(row.link_length_m / 1e3) for row in depth_rows]
            for total, link_km, row in zip(totals, links[n], depth_rows):
                _, status, agg, rate, pairs, _, fidelities = row
                if agg is None:
                    cells = ",," if row.visible else "0.0,,"
                else:
                    cells = passes.get(agg)
                    if cells is None:
                        cells = passes[agg] = (
                            f"{agg.flyby_duration_s!r},{agg.p0!r},{agg.f_pair_avg!r}"
                        )
                tail = no_levels
                if rate is None:
                    chain = ",,"
                elif fidelities is None:
                    # Direct rows have no levels: unlike repeater rows, whose
                    # fidelity_final is the Werner parameter, theirs is the
                    # Bell-state fidelity F_pair_avg.
                    chain = f"{rate!r},{pairs!r},{cells.rpartition(',')[2]}"
                else:
                    texts = [repr(f) for f in fidelities]
                    chain = f"{rate!r},{pairs!r},{texts[-1]}"
                    tail = "," + ",".join(texts) + "," * (width - len(fidelities))
                flag = "true" if row.visible else "false"
                rows.append(
                    f"{lead}{total},{n},{h_km},{link_km},{cells},{chain},{flag},{status}{tail}"
                )
    return rows


def _header(levels: list[int], lead: list[str]) -> list[str]:
    return lead + _SWEEP_COLUMNS + [f"F{k}" for k in range(max(levels, default=0) + 1)]


def _cmd_rates(args) -> int:
    scenario = _load(args)
    distances = [d * 1e3 for d in _parse_floats(args.distances_km, "--distances-km")]
    levels = _parse_links(args.links)
    _check_rows(args, 1, distances, levels)
    rows = _sweep_rows([scenario], [""], distances, levels, args.with_direct)
    _emit(args, _csv_text(scenario, _header(levels, []), rows))
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
    _check_rows(args, len(tokens), distances, levels)

    variants = tuple(f"{args.param}={tok}" for tok in tokens)
    base, *scenarios = load_scenarios(args.config, args.overrides or (), variants)
    leads = [f"{args.param},{float(tok)!r}," for tok in tokens]
    rows = _sweep_rows(scenarios, leads, distances, levels, args.with_direct)
    _emit(args, _csv_text(base, _header(levels, ["param", "value"]), rows))
    return 0


def _cmd_mc(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise UsageError("--seed must fit in 64 bits")
    flags = {"mc.trials": args.trials, "mc.seed": args.seed}
    scenario = _load(args, *(f"{k}={v}" for k, v in flags.items() if v is not None))
    cfg = scenario.repeater
    agg = pass_aggregates(cfg.geometry, cfg.channel, cfg.source.pair_fidelity)
    analytic = evaluate_with_aggregates(cfg, agg)
    estimates = simulate_chain(scenario.mc, cfg, agg)
    report = compare_report(analytic, estimates)
    payload = report.to_dict()
    payload["parameters"] = scenario.flat_dict()
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # The dump is written first, so a dump that cannot be written leaves no
    # report behind.
    if args.dump_trials is not None:
        rows = [
            f"{i},{float(pairs)!r}," + ("" if math.isnan(fid) else repr(float(fid)))
            for i, (pairs, fid) in enumerate(
                zip(estimates.pairs_samples, estimates.fidelity_samples)
            )
        ]
        header = ["trial", "pairs", "fidelity"]
        _atomic_write(args.dump_trials, _csv_text(scenario, header, rows))
    _emit(args, text)
    return 0 if report.all_pass else 3


def _cmd_caps_curve(args) -> int:
    scenario = _load(args)
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    if args.points > _MAX_GRID_POINTS:
        raise UsageError(f"--points must be at most {_MAX_GRID_POINTS}")
    for flag, value in (("--cin-min", args.cin_min), ("--cin-max", args.cin_max)):
        if not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    if args.cin_min < 0 or args.cin_max <= args.cin_min:
        raise UsageError("need 0 <= --cin-min < --cin-max")
    grid = np.linspace(args.cin_min, args.cin_max, args.points)
    eta = caps_success(grid)
    header = ["c_in", "eta_caps"]
    rows = [f"{c!r},{e!r}" for c, e in zip(grid.tolist(), eta.tolist())]
    _emit(args, _csv_text(scenario, header, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
