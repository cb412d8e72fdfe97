"""Time-resolved flyby profile and its quadrature aggregates.

Composes the pass geometry with the downlink model on a time grid over one
flyby, then reduces the sampled curves to the two numbers the repeater
analysis consumes: the flyby-averaged two-photon transmission

    P0 = (1 / T_FB) * integral of eta_tr^2(t) dt

and the transmission-weighted average pair fidelity

    F_pair_avg = integral of F_pair(t) eta_tr^2(t) dt / (P0 * T_FB).

:func:`converged_aggregates` integrates both with Gauss-Legendre rules on
the nodes t = (x + 1) T_FB / 2.  The integrands are analytic in t, so the
rules converge exponentially: the 32- and 64-node rules are compared first,
and on disagreement the node count doubles, one profile per rule, up to
1,024 nodes (six rules) before :class:`QuadratureError`.  Most passes agree
at 64 nodes; grazing passes with a thin atmosphere and a narrow beam need up
to 256.  A pass is symmetric about closest approach (t -> T_FB - t leaves d,
theta, eta and F_pair unchanged) and numpy's ``leggauss`` returns
mirror-symmetric nodes and weights, so each rule samples only its first
half of the nodes, with doubled weights: 48 samples per pass for the 32/64
pair, not 96.

:func:`converged_aggregates` converges a batch of passes.  The visible
ones, as :func:`~satrep.orbit.pass_timing` classifies them, are sampled
together as (passes x nodes) arrays, each stage once per distinct value of
its own inputs (see :func:`build_profile`), and each pass leaves the batch
at its own converged rule; a call of more than 1,024 passes samples them
1,024 at a time.  Each pass mean is a row sum of that pass's own samples,
so a pass has the same bits in any batch, and no mean goes through BLAS,
whose kernel depends on the batch's row count and the CPU.
:func:`pass_aggregates` is the batch of one that raises for a status.

The uniform time grid of :func:`build_profile` is what the ``flyby`` CSV
prints; the tests keep a composite Simpson rule on it as the quadrature
reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelParams,
    NoResultError,
    mean_background_photons,
    pair_fidelity,
    single_photon_transmission,
)
from .orbit import (
    OrbitGeometry, PassTiming, pass_shape, pass_timing, slant_distance, zenith_angle,
)

__all__ = [
    "FlybyAggregates",
    "FlybyProfile",
    "NoVisibilityError",
    "QuadratureError",
    "build_profile",
    "converged_aggregates",
    "pass_aggregates",
]

DEFAULT_SAMPLES = 2001
CONVERGENCE_RTOL = 1e-6
# Gauss-Legendre node counts compared pairwise by converged_aggregates.  A
# budget of 128 nodes fails on grazing passes (h = 200 km, max zenith 89.9
# deg, zenith transmittance 0.5, 5 mm beam waist) that 256 nodes resolve.
GAUSS_NODES = (32, 64, 128, 256, 512, 1024)
# Most passes one batch samples at once: a sweep of many --values entries
# converges its passes in batches of this size, so its arrays stay below
# about 50 MB even if every pass needs 1,024 nodes.
_BATCH_PASSES = 1024
_TINY = np.finfo(float).tiny


class NoVisibilityError(NoResultError):
    """The satellite is never simultaneously visible from both stations."""

    def __init__(self, geom: OrbitGeometry) -> None:
        super().__init__(
            "no_visibility",
            f"no visibility window: altitude {geom.altitude_m} m cannot serve "
            f"stations {geom.link_length_m} m apart below zenith angle "
            f"{geom.max_zenith_rad} rad",
        )


class QuadratureError(RuntimeError):
    """An integral failed to converge to the requested tolerance."""


@dataclass(frozen=True, eq=False)
class FlybyProfile:
    """Sampled flyby over [0, T_FB]: a time series on a uniform grid, or, when
    built from given fractions of the pass such as Gauss-Legendre nodes,
    samples for quadrature only, which need not be ordered in time.

    Arrays are aligned sample-by-sample; ``eta2_tr``, the two-photon
    transmission, is exactly ``eta_tr**2`` (both legs are equal), and
    ``f_pair`` is the instantaneous pair fidelity with the constant
    background photon number folded in (NaN where ``eta_tr`` is 0).
    A profile of a batch of passes holds (passes, samples) arrays and a
    (passes, 1) column of durations.
    """

    times_s: np.ndarray
    slant_m: np.ndarray
    zenith_rad: np.ndarray
    eta_tr: np.ndarray
    eta2_tr: np.ndarray
    f_pair: np.ndarray
    flyby_duration_s: float

    @property
    def n_samples(self) -> int:
        return self.times_s.size


@dataclass(frozen=True)
class FlybyAggregates:
    """Flyby-averaged quantities feeding the repeater rate/fidelity model."""

    p0: float
    f_pair_avg: float
    flyby_duration_s: float


def build_profile(
    geom: OrbitGeometry | list[OrbitGeometry],
    params: ChannelParams | list[ChannelParams],
    source_fidelity: float | list[float],
    n_samples: int = DEFAULT_SAMPLES,
    *,
    fractions: np.ndarray | None = None,
    timing: PassTiming | None = None,
) -> FlybyProfile:
    """Sample d(t), theta(t), eta_tr(t), eta_tr^2(t) and F_pair(t) over a flyby.

    Without ``timing``, of the one pass ``geom`` with channel ``params`` and
    source fidelity ``source_fidelity``: on ``n_samples`` (>= 3) uniform
    points, or at t = fractions * T_FB for ``fractions`` in [0, 1], a
    profile for quadrature only whose times keep their order.  A geometry
    with no joint-visibility window raises :class:`NoVisibilityError`.

    With ``timing`` (column arrays from :func:`~satrep.orbit.pass_timing` of
    a list), of a batch of visible passes at ``fractions``: ``geom``,
    ``params`` and ``source_fidelity`` are lists of one entry per pass.
    Each stage runs once per distinct value of its own inputs: the orbit per
    pass shape (``geom`` but its link length), the transmission per channel,
    the pair fidelity per (source fidelity, channel).
    """
    if fractions is None and n_samples < 3:
        raise ValueError(f"n_samples must be >= 3, got {n_samples}")
    if timing is None:
        timing = pass_timing(geom)
        if not timing.visible:
            raise NoVisibilityError(geom)
        geom, params, source_fidelity = [geom], [params], [source_fidelity]
    if fractions is None:
        times = np.linspace(0.0, timing.flyby_duration_s, n_samples)
    else:
        times = fractions * timing.flyby_duration_s
    shapes = _distinct(geom, pass_shape)
    slant = _each(
        shapes,
        lambda g, t0, cos_half, t: slant_distance(g, PassTiming(t0, cos_half), t),
        timing.t0_s, timing.cos_half_angle, times,
    )
    zenith = _each(shapes, zenith_angle, slant)
    channels = _distinct(params)
    eta = _each(channels, single_photon_transmission, slant, zenith)
    # No pair fidelity where no photon arrives: NaN there, not an error, so
    # that one such pass does not stop a batch.
    f_pair = _each(
        _pairs(_distinct(source_fidelity), channels),
        lambda pair, e: pair_fidelity(pair[0], mean_background_photons(pair[1]), e),
        np.where(eta > 0.0, eta, np.nan),
    )
    return FlybyProfile(
        times_s=times,
        slant_m=slant,
        zenith_rad=zenith,
        eta_tr=eta,
        eta2_tr=eta * eta,
        f_pair=f_pair,
        flyby_duration_s=timing.flyby_duration_s,
    )


def _distinct(values: list, key=None) -> tuple[list, np.ndarray | None]:
    """The distinct values of ``values`` (one per pass) in order of first
    appearance, and per pass the index of its own, None when one value
    serves every pass.  Values compare by ``key`` (default: themselves),
    which runs once per object."""
    distinct: list = []
    labels, by_id, by_key = [], {}, {}
    for value in values:
        label = by_id.get(id(value))
        if label is None:
            label = by_key.setdefault(value if key is None else key(value), len(distinct))
            if label == len(distinct):
                distinct.append(value)
            by_id[id(value)] = label
        labels.append(label)
    return distinct, None if len(distinct) == 1 else np.array(labels)


def _pairs(first, second) -> tuple[list, np.ndarray | None]:
    """The :func:`_distinct` result of the passes' (first, second) value
    pairs, from the two :func:`_distinct` results."""
    (values_a, labels_a), (values_b, labels_b) = first, second
    if labels_a is None and labels_b is None:
        return [(values_a[0], values_b[0])], None
    codes = (0 if labels_a is None else labels_a) * len(values_b) + (
        0 if labels_b is None else labels_b
    )
    used, labels = np.unique(codes, return_inverse=True)
    pairs = [divmod(code, len(values_b)) for code in used.tolist()]
    return [(values_a[a], values_b[b]) for a, b in pairs], labels


def _each(distinct, fn, *arrays):
    """``fn(value, *rows)`` once per value of a :func:`_distinct` result, with
    the rows (axis 0) of ``arrays`` that are its passes', the results put
    together in pass order."""
    values, labels = distinct
    if labels is None:
        return fn(values[0], *arrays)
    out = None
    for label, value in enumerate(values):
        rows = np.flatnonzero(labels == label)
        part = fn(value, *(a[rows] for a in arrays))
        if out is None:
            out = np.empty(labels.shape + part.shape[1:])
        out[rows] = part
    return out


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule mapped to [0, 1], in ascending order:
    fractions (x + 1) / 2 and weights w / 2, which sum to 1.  Built once per
    n, on first use; numpy.polynomial is imported here, off the CLI's import
    chain."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    fractions, weights = (x + 1.0) / 2.0, w / 2.0
    fractions.setflags(write=False)
    weights.setflags(write=False)
    return fractions, weights


def _folded(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule (n even) folded about the pass's midpoint: its n/2
    fractions below 1/2, with their weights doubled.  A pass is symmetric
    about closest approach (t -> T_FB - t leaves d, theta, eta and F_pair
    unchanged) and leggauss returns mirror-symmetric nodes and weights, so
    the folded rule gives the full rule's value up to the rounding of the
    samples."""
    fractions, weights = _gauss_legendre(n)
    doubled = 2.0 * weights[: n // 2]
    doubled.setflags(write=False)
    return fractions[: n // 2], doubled


@functools.cache
def _rules(counts: tuple[int, ...]) -> tuple[np.ndarray, tuple]:
    """The folded rules with these node counts, sampled in one profile: their
    fractions, concatenated, and per rule the slice of the samples that are
    its own and its weights.  Read-only, built once per ``counts``."""
    rules = [_folded(n) for n in counts]
    fractions = np.concatenate([f for f, _ in rules])
    fractions.setflags(write=False)
    ends = np.cumsum([w.size for _, w in rules]).tolist()
    return fractions, tuple(
        (slice(end - w.size, end), w) for end, (_, w) in zip(ends, rules)
    )


def _settled(history: np.ndarray) -> np.ndarray:
    """Per pass, whether P0 and F_pair_avg (axis 0 of ``history``) both moved
    by less than :data:`CONVERGENCE_RTOL` between the last two rules (its
    last axis), relative to the last."""
    prev, last = history[..., -2], history[..., -1]
    rel = np.abs(last - prev) / np.maximum(np.abs(last), _TINY)
    return (rel < CONVERGENCE_RTOL).all(axis=0)


def converged_aggregates(
    geometries: list[OrbitGeometry],
    params: list[ChannelParams],
    source_fidelities: list[float],
    link_lengths_m: list[float],
) -> list[FlybyAggregates | str]:
    """The flyby aggregates of a batch of passes, each from the first two
    successive rules of :data:`GAUSS_NODES` that agree to :data:`CONVERGENCE_RTOL`.

    Pass i is the pass shape of ``geometries[i]`` at ``link_lengths_m[i]``
    (not the geometry's own link length), with channel ``params[i]`` and
    source fidelity ``source_fidelities[i]``.  Returns per pass its
    :class:`FlybyAggregates`, with the bits it has alone, or its status:
    ``no_visibility``, or ``zero_transmission`` when the transmission is 0
    at a node or the two-photon transmission averages to 0.  Any other error
    stops the whole batch, among them :class:`QuadratureError` for a pass
    still unconverged past the last rule, naming its link length and giving
    its (nodes, P0, F_pair_avg) history.
    """
    if len(link_lengths_m) > _BATCH_PASSES:
        results = []
        for start in range(0, len(link_lengths_m), _BATCH_PASSES):
            part = slice(start, start + _BATCH_PASSES)
            results += converged_aggregates(
                geometries[part], params[part], source_fidelities[part],
                link_lengths_m[part],
            )
        return results
    timing = pass_timing(geometries, link_lengths_m)
    durations = timing.flyby_duration_s[:, 0].tolist()
    results: list = ["no_visibility"] * len(link_lengths_m)
    # The passes still converging and, per rule so far, their P0 and
    # F_pair_avg as a (2, passes, rules) history.
    rows = [i for i, t_fb in enumerate(durations) if t_fb > 0.0]
    history = None
    nodes = GAUSS_NODES
    for counts in (nodes[:2], *((n,) for n in nodes[2:])):
        if not rows:
            break
        fractions, rules = _rules(counts)
        profile = build_profile(
            *([batch[i] for i in rows] for batch in (geometries, params, source_fidelities)),
            fractions=fractions,
            timing=PassTiming(timing.t0_s[rows], timing.cos_half_angle[rows]),
        )
        eta2 = profile.eta2_tr
        # Each row sum is one pass's mean (the weights sum to 1) over its own
        # samples alone: P0, then the weighted F_pair mean, divided by P0.
        # 0/0 (eta^2 underflowing on every node) gives NaN, as a node with
        # eta = 0 does.
        both = np.concatenate((eta2, profile.f_pair * eta2))
        means = np.empty((both.shape[0], len(rules)))
        for j, (part, weights) in enumerate(rules):
            means[:, j] = np.add.reduce(both[:, part] * weights, axis=1)
        means = means.reshape(2, len(rows), len(rules))
        p0, fbar = means
        with np.errstate(invalid="ignore"):
            fbar /= p0
        history = means if history is None else np.concatenate((history, means), axis=2)
        dark = np.isnan(fbar).any(axis=1)
        settled = _settled(history)
        p0_last, fbar_last = p0[:, -1].tolist(), fbar[:, -1].tolist()
        pending = []
        outcomes = zip(rows, dark.tolist(), settled.tolist())
        for k, (row, no_light, done) in enumerate(outcomes):
            if no_light:
                results[row] = "zero_transmission"
            elif done:
                results[row] = FlybyAggregates(p0_last[k], fbar_last[k], durations[row])
            else:
                pending.append(k)
        rows = [rows[k] for k in pending]
        history = history[:, pending]
    if rows:
        trail = list(zip(nodes, history[0, 0].tolist(), history[1, 0].tolist()))
        raise QuadratureError(
            f"flyby aggregates did not converge to {CONVERGENCE_RTOL} within {nodes[-1]} "
            f"Gauss-Legendre nodes at link length {link_lengths_m[rows[0]]} m; "
            f"history (nodes, P0, F_pair_avg): {trail}"
        )
    return results


def pass_aggregates(
    geometry: OrbitGeometry, params: ChannelParams, source_fidelity: float
) -> FlybyAggregates:
    """The aggregates of the one pass ``geometry``: the batch of one of
    :func:`converged_aggregates`, whose statuses raise
    :class:`NoVisibilityError` or ``NoResultError("zero_transmission")``."""
    (result,) = converged_aggregates(
        [geometry], [params], [source_fidelity], [geometry.link_length_m]
    )
    if result == "no_visibility":
        raise NoVisibilityError(geometry)
    if result == "zero_transmission":
        raise NoResultError(
            "zero_transmission", "pass-averaged pair fidelity undefined: zero "
            f"transmission at link length {geometry.link_length_m} m"
        )
    return result
