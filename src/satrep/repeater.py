"""Nested entanglement swapping over satellite-fed elementary links.

A chain of 2^n elementary links (each one satellite downlink pair, heralded
into two memory nodes) is fused pairwise by deterministic-but-lossy gate-based
swaps, n levels deep.  This module computes the analytic end-to-end quantities:
distributed-pair rate with and without multiplexing, expected pairs during one
satellite pass, the level-by-level fidelity recursion with memory-decay
penalties, and distance sweeps that re-derive the pass geometry for each total
distance.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .channel import ChannelParams, NoResultError
from .flyby import FlybyAggregates, converged_aggregates
from .node import (
    NodeParams,
    SourceParams,
    elementary_link_fidelity,
    werner_fidelity_decay,
)
from .orbit import OrbitGeometry

__all__ = [
    "RepeaterConfig",
    "RepeaterResult",
    "SweepPoint",
    "distance_sweep",
    "elementary_time",
    "evaluate",
    "final_fidelity",
    "herald_probability",
    "pairs_per_flyby",
    "rate",
    "rate_direct",
    "rate_multiplexed",
    "swap_probability",
    "waiting_time",
]


@dataclass(frozen=True)
class RepeaterConfig:
    """Full parameterization of one repeater chain under one satellite pass.

    ``detector_exponent`` selects how many detection events gate each
    elementary-link heralding attempt (1: the memory-loading herald only;
    2: herald plus readout verification); it multiplies the per-attempt
    efficiency as eta_d ** detector_exponent.
    """

    geometry: OrbitGeometry
    channel: ChannelParams
    source: SourceParams
    node: NodeParams
    n_levels: int
    gate_efficiency: float = 1.0
    detector_exponent: int = 1

    def __post_init__(self) -> None:
        if self.n_levels < 0:
            raise ValueError("nesting depth must be >= 0")
        if not 0.0 < self.gate_efficiency <= 1.0:
            raise ValueError("gate efficiency must lie in (0, 1]")
        if self.detector_exponent not in (1, 2):
            raise ValueError("detector exponent must be 1 or 2")

    @property
    def n_links(self) -> int:
        return 2**self.n_levels

    @property
    def total_distance_m(self) -> float:
        return self.n_links * self.geometry.link_length_m

    @property
    def slot_s(self) -> float:
        """Duration of one multiplexed attempt slot, 1/(N_mux R_s)."""
        return 1.0 / (self.source.multiplexing_channels * self.source.repetition_rate_hz)


def swap_probability(n_levels: int, gate_efficiency: float = 1.0) -> float:
    """Probability that all 2^n - 1 swaps in an n-level chain succeed,
    ((2/3) * P_gate)^n, for the intrinsic-2/3 gate-based swap."""
    if n_levels < 0:
        raise ValueError("nesting depth must be >= 0")
    if not 0.0 < gate_efficiency <= 1.0:
        raise ValueError("gate efficiency must lie in (0, 1]")
    return ((2.0 / 3.0) * gate_efficiency) ** n_levels


def _detection_factor(cfg: RepeaterConfig) -> float:
    return cfg.node.detection_efficiency**cfg.detector_exponent


def rate(cfg: RepeaterConfig, agg: FlybyAggregates) -> float:
    """Pass-averaged end-to-end pair rate of a single (non-multiplexed) chain:
    R_s * eta_s * P0 * eta_caps * eta_d^e * P_swap.
    """
    return (
        cfg.source.repetition_rate_hz
        * cfg.source.emission_efficiency
        * agg.p0
        * cfg.node.caps_success_probability
        * _detection_factor(cfg)
        * swap_probability(cfg.n_levels, cfg.gate_efficiency)
    )


def rate_multiplexed(cfg: RepeaterConfig, agg: FlybyAggregates) -> float:
    """Multiplexed rate: N_mux parallel source channels, each paying the
    demultiplexer once per end of the elementary link."""
    return cfg.source.multiplexing_channels * cfg.source.demux_efficiency**2 * rate(cfg, agg)


def rate_direct(cfg: RepeaterConfig, agg: FlybyAggregates) -> float:
    """Rate of the repeaterless reference: the same satellite sends both
    photons of each pair straight down to the end points, no memories, no
    swapping, at the direct-transmission source rate."""
    return (
        cfg.source.multiplexing_channels
        * cfg.source.direct_repetition_rate_hz
        * cfg.source.emission_efficiency
        * agg.p0
    )


def pairs_per_flyby(rate_hz: float, t_fb_s: float) -> float:
    """Expected distributed pairs accumulated over one pass."""
    return rate_hz * t_fb_s


def herald_probability(cfg: RepeaterConfig, p0: float) -> float:
    """Per-slot probability that one elementary link heralds,
    demux^2 * eta_s * P0 * eta_caps * eta_d^e: T0 is the slot duration divided
    by it, and the Monte Carlo draws from it (time-resolved: at the
    instantaneous transmission in place of P0)."""
    return (
        cfg.source.demux_efficiency**2
        * cfg.source.emission_efficiency
        * p0
        * cfg.node.caps_success_probability
        * _detection_factor(cfg)
    )


def elementary_time(cfg: RepeaterConfig, agg: FlybyAggregates) -> float:
    """Mean time for one multiplexed elementary link to herald, T0: the slot
    duration divided by the per-slot herald probability."""
    p = herald_probability(cfg, agg.p0)
    if p <= 0:
        raise NoResultError(
            "zero_herald_rate", "elementary link rate is zero; no heralding possible"
        )
    return cfg.slot_s / p


def waiting_time(level: int, t0_s: float) -> float:
    """The paper's heuristic storage time at swap level ``level`` (1-based):
    (1/2) * (3/2)^(level-1) * T0, the rule of Sangouard et al., Rev. Mod.
    Phys. 83, 33 (2011).

    It is not the mean time a link waits for its partner.  With exponential
    heralding times of mean T0, a level-k sub-chain completes at the latest
    of its m = 2^(k-1) leaves, and the exact mean gap between two sibling
    sub-chains is 2 * (H_2m - H_m) * T0 (H_j the j-th harmonic number):
    T0, 7/6 T0 and 1.2690 T0 at levels 1-3, levelling off towards
    2 ln 2 T0.  The recursion keeps the rule as the paper's model.
    """
    if level < 1:
        raise ValueError("swap levels are counted from 1")
    return 0.5 * 1.5 ** (level - 1) * t0_s


def final_fidelity(
    cfg: RepeaterConfig, agg: FlybyAggregates, *, t0_s: float | None = None
) -> list[float]:
    """Werner parameter after each swap level, including memory decay.

    Returns [F_0, F_1, ..., F_n]: F_0 is the freshly heralded elementary link;
    each level applies the gate/readout depolarization and the waiting-time
    decay before squaring the Werner parameter's linear factor:

        F_k = F_gate * F_readout^2 * (1/4 + (F_{k-1} - 1/4) e^{-gamma_s T_k}) * F_{k-1}

    ``t0_s`` is T0 (:func:`elementary_time`) where the caller has it already.
    F_0 lies in [-1/3, 1], the gate factor in [0, 1] and the decayed value
    between F_{k-1} and 1/4, so F_k >= min(0, F_{k-1}/4): F_1, ..., F_n lie
    in [-1/12, 1] and no level needs a check.
    """
    f0 = elementary_link_fidelity(agg.f_pair_avg, cfg.node.caps_fidelity)
    t0 = elementary_time(cfg, agg) if t0_s is None else t0_s
    gamma_s = cfg.node.spin_decoherence_rate_hz
    gate_factor = cfg.node.rydberg_gate_fidelity * cfg.node.readout_fidelity**2
    levels = [f0]
    f = f0
    for level in range(1, cfg.n_levels + 1):
        decayed = werner_fidelity_decay(f, gamma_s, waiting_time(level, t0))
        f = gate_factor * decayed * f
        levels.append(f)
    return levels


@dataclass(frozen=True)
class RepeaterResult:
    """Analytic end-to-end figures for one configuration and one pass."""

    rate_hz: float
    pairs_per_flyby: float
    fidelity_per_level: tuple[float, ...]
    waiting_time_per_level: tuple[float, ...]
    elementary_time_s: float
    aggregates: FlybyAggregates

    @property
    def fidelity_final(self) -> float:
        return self.fidelity_per_level[-1]


def evaluate(cfg: RepeaterConfig, *, rtol: float = 1e-6) -> RepeaterResult:
    """Run the full analytic pipeline: converge the pass averages, then apply
    the rate and fidelity recursions."""
    agg = converged_aggregates(
        cfg.geometry, cfg.channel, cfg.source.pair_fidelity, rtol=rtol
    )
    return evaluate_with_aggregates(cfg, agg)


def evaluate_with_aggregates(
    cfg: RepeaterConfig, agg: FlybyAggregates
) -> RepeaterResult:
    """Same as :func:`evaluate` but reusing precomputed pass averages (the
    aggregates depend only on geometry, channel, and source fidelity, so sweeps
    over nesting depth can share them)."""
    r_mux = rate_multiplexed(cfg, agg)
    t0 = elementary_time(cfg, agg)
    waits = tuple(waiting_time(k, t0) for k in range(1, cfg.n_levels + 1))
    return RepeaterResult(
        rate_hz=r_mux,
        pairs_per_flyby=pairs_per_flyby(r_mux, agg.flyby_duration_s),
        fidelity_per_level=tuple(final_fidelity(cfg, agg, t0_s=t0)),
        waiting_time_per_level=waits,
        elementary_time_s=t0,
        aggregates=agg,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One point of a distance sweep.  ``status`` is ``ok`` or that of the
    :class:`NoResultError` that stopped the point: ``no_visibility`` and
    ``zero_transmission`` leave ``aggregates`` None, ``zero_herald_rate``
    only ``result``.  Depth 0 is the direct-transmission reference: it has
    no chain, so ``result`` is None."""

    l_total_m: float
    n_levels: int
    altitude_m: float
    link_length_m: float
    status: str
    aggregates: FlybyAggregates | None
    result: RepeaterResult | None

    @property
    def visible(self) -> bool:
        return self.status != "no_visibility"


def distance_sweep(
    cfg_template: RepeaterConfig,
    l_totals_m: list[float],
    cache: dict | None = None,
    levels: list[int] | None = None,
) -> list[SweepPoint]:
    """Evaluate the chain over a set of total ground distances.

    Each total distance is split into 2^n equal elementary links, for each
    nesting depth n in ``levels`` (default: the template's), depth-major;
    the geometry is rebuilt once per distinct link length, everything else
    is taken from the template; depth 0 (direct transmission, no memories)
    stops at the pass aggregates.  ``cache`` maps (geometry, channel, source
    fidelity) to the pass's converged aggregates, or to the status of the
    :class:`NoResultError` that stopped it; pass the same dict to sweeps
    that differ only in node-side parameters to skip their quadrature and
    their classification.  The passes missing from it are converged in one
    batch.  A :class:`NoResultError` ends only its point, any other error
    the sweep, and is not cached.
    """
    cache = {} if cache is None else cache
    channel, fidelity = cfg_template.channel, cfg_template.source.pair_fidelity
    altitude = cfg_template.geometry.altitude_m
    depths = (cfg_template.n_levels,) if levels is None else levels
    # The recursion reads no geometry: one config per depth serves every
    # distance.
    configs = [dataclasses.replace(cfg_template, n_levels=n) for n in depths]
    if depths and not all(l_total > 0 for l_total in l_totals_m):
        raise ValueError("total distance must be positive")
    links = dict.fromkeys(l_total / 2**n for n in depths for l_total in l_totals_m)
    geoms = {
        link: dataclasses.replace(cfg_template.geometry, link_length_m=link)
        for link in links
    }
    entries = {link: cache.get((geom, channel, fidelity)) for link, geom in geoms.items()}
    missing = [link for link, entry in entries.items() if entry is None]
    if missing:
        batch = [geoms[link] for link in missing]
        outcomes = converged_aggregates(batch, channel, fidelity)
        for link, agg in zip(missing, outcomes):
            entry = agg.status if isinstance(agg, NoResultError) else agg
            entries[link] = cache[geoms[link], channel, fidelity] = entry
    points = []
    for cfg in configs:
        n = cfg.n_levels
        for l_total in l_totals_m:
            link = l_total / 2**n
            agg, status, result = entries[link], "ok", None
            if isinstance(agg, str):
                status, agg = agg, None
            elif n:
                try:
                    result = evaluate_with_aggregates(cfg, agg)
                except NoResultError as exc:
                    status = exc.status
            points.append(SweepPoint(l_total, n, altitude, link, status, agg, result))
    return points
