"""Nested entanglement swapping over satellite-fed elementary links.

A chain of 2^n elementary links (each one satellite downlink pair, heralded
into two memory nodes) is fused pairwise by deterministic-but-lossy gate-based
swaps, n levels deep.  This module computes the analytic end-to-end quantities:
distributed-pair rate with and without multiplexing, expected pairs during one
satellite pass, the level-by-level fidelity recursion with memory-decay
penalties, and distance sweeps that give one row per nesting depth and total
distance, with every pass of a run's configs converged in one batch.
:class:`Chain` holds each chain formula once, for the evaluations, the sweeps
and the Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .channel import ChannelParams, NoResultError
from .flyby import FlybyAggregates, converged_aggregates, pass_aggregates
from .node import (
    NodeParams,
    SourceParams,
    elementary_link_fidelity,
    werner_fidelity_decay,
)
from .orbit import OrbitGeometry, pass_shape

__all__ = [
    "Chain",
    "RepeaterConfig",
    "RepeaterResult",
    "SweepRow",
    "distance_sweep",
    "evaluate",
    "evaluate_with_aggregates",
    "pairs_per_flyby",
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
    def slot_s(self) -> float:
        """Duration of one multiplexed attempt slot, 1/(N_mux R_s)."""
        return 1.0 / (self.source.multiplexing_channels * self.source.repetition_rate_hz)


# Deepest chain: its 2^n links still convert to a float (to split a distance),
# as does each waiting factor (3/2)^(k-1) / 2.
_MAX_LEVELS = 1023


class Chain:
    """Each chain formula of one config at one depth (default: the config's).
    ``swap`` = ((2/3) * P_gate)^n is the probability that all 2^n - 1 swaps
    succeed, ``gate`` = F_gate * F_readout^2 the depolarization of one swap.
    Python multiplies left to right, so each product's config-only leading
    factors are multiplied here once, without moving a bit of any result."""

    def __init__(self, cfg: RepeaterConfig, n_levels: int | None = None) -> None:
        n_levels = cfg.n_levels if n_levels is None else n_levels
        if not 0 <= n_levels <= _MAX_LEVELS:
            raise ValueError(f"nesting depth must lie in [0, {_MAX_LEVELS}], got {n_levels}")
        source, node = cfg.source, cfg.node
        mux, eta_s = source.multiplexing_channels, source.emission_efficiency
        demux2 = source.demux_efficiency**2
        self.rate_prefix = source.repetition_rate_hz * eta_s
        self.mux_prefix = mux * demux2
        self.direct_prefix = mux * source.direct_repetition_rate_hz * eta_s
        self.herald_prefix = demux2 * eta_s
        self.caps = node.caps_success_probability
        self.detection = node.detection_efficiency**cfg.detector_exponent
        self.swap = ((2.0 / 3.0) * cfg.gate_efficiency) ** n_levels
        self.slot_s, self.node = cfg.slot_s, node
        self.gate = node.rydberg_gate_fidelity * node.readout_fidelity**2
        self.wait_factors = [0.5 * 1.5 ** (k - 1) for k in range(1, n_levels + 1)]

    def rate(self, p0: float) -> float:
        """Pass-averaged end-to-end pair rate of a single (non-multiplexed)
        chain: R_s * eta_s * P0 * eta_caps * eta_d^e * P_swap."""
        return self.rate_prefix * p0 * self.caps * self.detection * self.swap

    def rate_multiplexed(self, p0: float) -> float:
        """Multiplexed rate: N_mux parallel source channels, each paying the
        demultiplexer once per end of the elementary link."""
        return self.mux_prefix * self.rate(p0)

    def rate_direct(self, p0: float) -> float:
        """Rate of the repeaterless reference: the same satellite sends both
        photons of each pair straight down to the end points, no memories,
        no swapping, at the direct-transmission source rate."""
        return self.direct_prefix * p0

    def herald_probability(self, p0: float) -> float:
        """Per-slot probability that one elementary link heralds,
        demux^2 * eta_s * P0 * eta_caps * eta_d^e: T0 is the slot duration
        divided by it, and the Monte Carlo draws from it (time-resolved: at
        the instantaneous transmission in place of P0)."""
        return self.herald_prefix * p0 * self.caps * self.detection

    def elementary_time(self, p0: float) -> float:
        """Mean time for one multiplexed elementary link to herald, T0: the
        slot duration divided by the per-slot herald probability."""
        p = self.herald_probability(p0)
        if p <= 0:
            raise NoResultError(
                "zero_herald_rate", "elementary link rate is zero; no heralding possible"
            )
        return self.slot_s / p

    def waiting_times(self, t0_s: float) -> list[float]:
        """The paper's heuristic storage time at swap levels k = 1..n,
        (1/2) * (3/2)^(k-1) * T0: the rule of Sangouard et al., Rev. Mod.
        Phys. 83, 33 (2011), kept as the paper's model.  It is not the mean
        wait for a partner: with exponential heralding times of mean T0, a
        level-k sub-chain completes at the latest of its m = 2^(k-1) leaves,
        and the exact mean gap between siblings is 2 * (H_2m - H_m) * T0
        (H_j the j-th harmonic number): T0, 7/6 T0 and 1.2690 T0 at levels
        1-3, levelling off towards 2 ln 2 T0."""
        return [factor * t0_s for factor in self.wait_factors]

    def fidelities(self, f_pair_avg: float, waits: list[float]) -> list[float]:
        """Werner parameters [F_0, F_1, ..., F_n] after each swap level,
        with memory decay.  F_0 is the freshly heralded elementary link;
        level k applies the gate/readout depolarization and the decay over
        ``waits[k-1]`` (:meth:`waiting_times`) before squaring the Werner
        parameter's linear factor:

            F_k = F_gate * F_readout^2 * (1/4 + (F_{k-1} - 1/4) e^{-gamma_s T_k}) * F_{k-1}

        F_0 lies in [-1/3, 1], the gate factor in [0, 1] and the decayed
        value between F_{k-1} and 1/4, so F_k >= min(0, F_{k-1}/4): F_1,
        ..., F_n lie in [-1/12, 1] and no level needs a check."""
        f = elementary_link_fidelity(f_pair_avg, self.node.caps_fidelity)
        levels = [f]
        for wait in waits:
            decayed = werner_fidelity_decay(f, self.node.spin_decoherence_rate_hz, wait)
            f = self.gate * decayed * f
            levels.append(f)
        return levels

    def evaluate(self, agg: FlybyAggregates) -> tuple:
        """(rate, pairs, T0, waiting times, fidelities) of one pass."""
        t0 = self.elementary_time(agg.p0)
        rate_hz, waits = self.rate_multiplexed(agg.p0), self.waiting_times(t0)
        pairs = pairs_per_flyby(rate_hz, agg.flyby_duration_s)
        return rate_hz, pairs, t0, waits, self.fidelities(agg.f_pair_avg, waits)


def pairs_per_flyby(rate_hz: float, t_fb_s: float) -> float:
    """Expected distributed pairs accumulated over one pass."""
    return rate_hz * t_fb_s


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


def evaluate(cfg: RepeaterConfig) -> RepeaterResult:
    """Run the full analytic pipeline: converge the pass averages, then apply
    the rate and fidelity recursions."""
    agg = pass_aggregates(cfg.geometry, cfg.channel, cfg.source.pair_fidelity)
    return evaluate_with_aggregates(cfg, agg)


def evaluate_with_aggregates(
    cfg: RepeaterConfig, agg: FlybyAggregates
) -> RepeaterResult:
    """Same as :func:`evaluate` but reusing precomputed pass averages (the
    aggregates depend only on geometry, channel, and source fidelity, so sweeps
    over nesting depth can share them)."""
    rate_hz, pairs, t0, waits, levels = Chain(cfg).evaluate(agg)
    return RepeaterResult(rate_hz, pairs, tuple(levels), tuple(waits), t0, agg)


class SweepRow(NamedTuple):
    """One total distance of a distance sweep at one nesting depth.
    ``status`` is ``ok`` or that of the :class:`NoResultError` that stopped
    the row: ``no_visibility`` and ``zero_transmission`` leave its
    ``aggregates`` None, ``zero_herald_rate`` only its chain fields, the last
    four.  Depth 0 is the direct-transmission reference: its rate is
    :meth:`Chain.rate_direct`'s and, having no chain, it has no T0 and no
    fidelity levels."""

    link_length_m: float
    status: str
    aggregates: FlybyAggregates | None
    rate_hz: float | None
    pairs_per_flyby: float | None
    elementary_time_s: float | None
    fidelity_per_level: list[float] | None

    @property
    def visible(self) -> bool:
        return self.status != "no_visibility"


def distance_sweep(
    cfgs: list[RepeaterConfig], l_totals_m: list[float], levels: list[int]
) -> list[list[list[SweepRow]]]:
    """Evaluate the chains of a run's configs over a set of total ground
    distances.

    Each total distance is split into 2^n equal elementary links, for each
    nesting depth n in ``levels``; the result holds per config and per
    depth, in that order, one :class:`SweepRow` per total distance.
    Everything but the link length is taken from the config; depth 0
    (direct transmission, no memories) stops at the pass aggregates.  A
    pass is defined by its link length, its :func:`~satrep.orbit.pass_shape`,
    channel and source fidelity, so configs that differ only in node-side
    parameters share their passes; every distinct pass of the run is
    converged in one batch.  A :class:`NoResultError` ends only its row, any
    other error the sweep.
    """
    chains = [[Chain(cfg, n) for n in levels] for cfg in cfgs]
    if cfgs and levels and not all(l_total > 0 for l_total in l_totals_m):
        raise ValueError("total distance must be positive")
    links_at = {n: [l_total / 2**n for l_total in l_totals_m] for n in levels}
    # Per pass key, each link length's converged aggregates or the status of
    # the NoResultError that stopped it (None until the batch is converged).
    passes: dict[tuple, dict[float, FlybyAggregates | str | None]] = {}
    known_per_cfg, missing = [], []
    for cfg in cfgs:
        geom, channel, fidelity = cfg.geometry, cfg.channel, cfg.source.pair_fidelity
        known = passes.setdefault((pass_shape(geom), channel, fidelity), {})
        for n in levels:
            for link in links_at[n]:
                if link not in known:
                    known[link] = None
                    missing.append((known, geom, channel, fidelity, link))
        known_per_cfg.append(known)
    if missing:
        knowns, geoms, channels, fidelities, links = map(list, zip(*missing))
        converged = converged_aggregates(geoms, channels, fidelities, links)
        for known, link, result in zip(knowns, links, converged):
            known[link] = result
    return [
        [_depth_rows(n, chain, links_at[n], known) for n, chain in zip(levels, chain_row)]
        for chain_row, known in zip(chains, known_per_cfg)
    ]


def _depth_rows(n: int, chain: Chain, links: list[float], passes: dict) -> list[SweepRow]:
    """The sweep rows of depth ``n`` over ``links``, whose passes ``passes``
    holds."""
    rows = []
    for link in links:
        agg = passes[link]
        if isinstance(agg, str):
            rows.append(SweepRow(link, agg, None, None, None, None, None))
        elif not n:
            rate_hz = chain.rate_direct(agg.p0)
            pairs = pairs_per_flyby(rate_hz, agg.flyby_duration_s)
            rows.append(SweepRow(link, "ok", agg, rate_hz, pairs, None, None))
        else:
            try:
                rate_hz, pairs, t0, _, fidelities = chain.evaluate(agg)
                rows.append(SweepRow(link, "ok", agg, rate_hz, pairs, t0, fidelities))
            except NoResultError as exc:
                rows.append(SweepRow(link, exc.status, agg, None, None, None, None))
    return rows
