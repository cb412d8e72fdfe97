"""Time-resolved flyby profile and its quadrature aggregates.

Composes the pass geometry with the downlink model on a time grid over one
flyby, then reduces the sampled curves to the two numbers the repeater
analysis consumes: the flyby-averaged two-photon transmission

    P0 = (1 / T_FB) * integral of eta_tr^2(t) dt

and the transmission-weighted average pair fidelity

    F_pair_avg = integral of F_pair(t) eta_tr^2(t) dt / (P0 * T_FB).

:func:`converged_aggregates` integrates both with Gauss-Legendre rules on
the nodes t = (x + 1) T_FB / 2.  The integrands are analytic in t, so the
rules converge exponentially: the 32- and 64-node rules are compared first
(96 samples in one profile), and on disagreement the node count doubles,
one profile per rule, up to 1,024 nodes (six rules) before
:class:`QuadratureError`.  Most passes agree at 64 nodes; grazing passes
with a thin atmosphere and a narrow beam need up to 256.

The composite Simpson rule on the uniform grid (:func:`average_two_photon`,
:func:`average_pair_fidelity`) stays as the reference the tests and the
``flyby`` CSV use; every Simpson estimate is cross-checked against its own
embedded half-resolution grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelParams,
    NoResultError,
    mean_background_photons,
    pair_fidelity,
    single_photon_transmission,
)
from .orbit import OrbitGeometry, pass_timing, slant_distance, zenith_angle

__all__ = [
    "FlybyAggregates",
    "FlybyProfile",
    "NoVisibilityError",
    "QuadratureError",
    "average_pair_fidelity",
    "average_two_photon",
    "build_profile",
    "converged_aggregates",
]

DEFAULT_SAMPLES = 2001
CONVERGENCE_RTOL = 1e-6
# Gauss-Legendre node counts compared pairwise by converged_aggregates.  A
# budget of 128 nodes fails on grazing passes (h = 200 km, max zenith 89.9
# deg, zenith transmittance 0.5, 5 mm beam waist) that 256 nodes resolve.
GAUSS_NODES = (32, 64, 128, 256, 512, 1024)


class NoVisibilityError(NoResultError):
    """The satellite is never simultaneously visible from both stations."""

    def __init__(self, message: str) -> None:
        super().__init__("no_visibility", message)


class QuadratureError(RuntimeError):
    """An integral failed to converge to the requested tolerance."""


@dataclass(frozen=True, eq=False)
class FlybyProfile:
    """Sampled flyby over [0, T_FB]: a time series on a uniform grid, or, when
    built from given fractions of the pass such as Gauss-Legendre nodes,
    samples for quadrature only, which need not be ordered in time.

    Arrays are aligned sample-by-sample; ``eta2_tr`` is exactly ``eta_tr**2``
    and ``f_pair`` is the instantaneous pair fidelity with the scenario's
    constant background photon number folded in.
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
    geom: OrbitGeometry,
    params: ChannelParams,
    source_fidelity: float,
    n_samples: int = DEFAULT_SAMPLES,
    *,
    fractions: np.ndarray | None = None,
) -> FlybyProfile:
    """Sample d(t), theta(t), eta_tr(t), eta_tr^2(t) and F_pair(t) over one flyby.

    By default on ``n_samples`` uniform points, which must be odd (composite
    Simpson needs an even interval count); with ``fractions`` (values in
    [0, 1]) at t = fractions * T_FB instead, and ``n_samples`` is unused.
    Such a profile is for quadrature only, not a time series: its times keep
    the order of ``fractions``.  A geometry with no joint-visibility window
    raises :class:`NoVisibilityError`.
    """
    if fractions is None and (n_samples < 3 or n_samples % 2 == 0):
        raise ValueError(f"n_samples must be odd and >= 3, got {n_samples}")
    timing = pass_timing(geom)
    if not timing.visible:
        raise NoVisibilityError(
            f"no visibility window: altitude {geom.altitude_m} m cannot serve "
            f"stations {geom.link_length_m} m apart below zenith angle "
            f"{geom.max_zenith_rad} rad"
        )
    if fractions is None:
        times = np.linspace(0.0, timing.flyby_duration_s, n_samples)
    else:
        times = fractions * timing.flyby_duration_s
    slant = slant_distance(geom, timing, times)
    zenith = zenith_angle(geom, slant)
    eta = single_photon_transmission(params, slant, zenith)
    n_bar = mean_background_photons(params)
    f_pair = pair_fidelity(source_fidelity, n_bar, eta)
    return FlybyProfile(
        times_s=times,
        slant_m=slant,
        zenith_rad=zenith,
        eta_tr=eta,
        eta2_tr=eta * eta,
        f_pair=f_pair,
        flyby_duration_s=timing.flyby_duration_s,
    )


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of samples ``y`` on an odd-length grid ``x``.

    Uses the irregular-grid weights from each pair of spacings (h0, h1) and
    one ``np.sum``, in the operation order of the reference implementation
    the tests compare it with bit for bit.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    terms = hsum / 6.0 * (
        y[:-2:2] * (2.0 - 1.0 / h0divh1)
        + y[1::2] * (hsum * (hsum / (h0 * h1)))
        + y[2::2] * (2.0 - h0divh1)
    )
    return float(np.sum(terms))


def _pass_means(profile: FlybyProfile, stride: int = 1) -> tuple[float, float]:
    """(P0, F_pair_avg) of a profile, on every ``stride``-th sample (stride 2
    is the embedded half-resolution grid).  F_pair_avg is NaN when P0 is 0."""
    times = profile.times_s[::stride]
    duration = profile.flyby_duration_s
    p0 = _simpson(profile.eta2_tr[::stride], times) / duration
    weighted = _simpson((profile.f_pair * profile.eta2_tr)[::stride], times)
    fbar = weighted / (p0 * duration) if p0 else math.nan
    return p0, fbar


def _coarse_check(fine: float, coarse: float, what: str, profile: FlybyProfile) -> None:
    scale = max(abs(fine), abs(coarse), np.finfo(float).tiny)
    rel = abs(fine - coarse) / scale
    if rel >= CONVERGENCE_RTOL:
        raise QuadratureError(
            f"{what} not converged at {profile.n_samples} samples: "
            f"fine={fine!r}, half-grid={coarse!r}, relative difference {rel:.3e} "
            f">= {CONVERGENCE_RTOL}"
        )


def _has_embedded_grid(profile: FlybyProfile) -> bool:
    # Every other sample forms a valid Simpson grid iff the interval count is
    # divisible by 4 (point count = 4k + 1).
    return profile.n_samples >= 5 and (profile.n_samples - 1) % 4 == 0


def average_two_photon(profile: FlybyProfile) -> float:
    """Flyby-averaged two-photon transmission P0 by composite Simpson.

    The estimate is compared against the embedded half-resolution grid; a
    relative disagreement above the convergence tolerance raises
    :class:`QuadratureError` (resample more finely, e.g. via
    :func:`converged_aggregates`).
    """
    p0, _ = _pass_means(profile)
    if _has_embedded_grid(profile):
        coarse, _ = _pass_means(profile, stride=2)
        _coarse_check(p0, coarse, "average two-photon transmission", profile)
    return p0


def average_pair_fidelity(profile: FlybyProfile) -> float:
    """Transmission-weighted average pair fidelity over the flyby.

    Weighting by eta_tr^2 means the average reflects the instants when pairs
    actually arrive; with zero average transmission the weight vanishes and the
    quantity is undefined.
    """
    p0, fbar = _pass_means(profile)
    if p0 <= 0.0:
        raise ValueError("average pair fidelity undefined: zero average transmission")
    if _has_embedded_grid(profile):
        _, coarse = _pass_means(profile, stride=2)
        _coarse_check(fbar, coarse, "average pair fidelity", profile)
    return fbar


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


def converged_aggregates(
    geom: OrbitGeometry,
    params: ChannelParams,
    source_fidelity: float,
    rtol: float = CONVERGENCE_RTOL,
) -> FlybyAggregates:
    """Compute the flyby aggregates by Gauss-Legendre quadrature, doubling
    the node count from the 32/64 pair of :data:`GAUSS_NODES` until P0 and
    F_pair_avg both move by less than ``rtol`` between successive rules, and
    return the finer rule's values.  Past the last rule, raise
    :class:`QuadratureError` with the (nodes, P0, F_pair_avg) history.
    """
    history = []
    for batch in (GAUSS_NODES[:2], *((n,) for n in GAUSS_NODES[2:])):
        rules = [_gauss_legendre(n) for n in batch]
        profile = build_profile(
            geom, params, source_fidelity, fractions=np.concatenate([f for f, _ in rules])
        )
        eta2 = profile.eta2_tr
        f_eta2 = profile.f_pair * eta2
        start = 0
        for n, (_, weights) in zip(batch, rules):
            part = slice(start, start + n)
            # The weights sum to 1, so each dot product is a pass mean.
            p0 = float(weights @ eta2[part])
            fbar = float(weights @ f_eta2[part]) / p0 if p0 else math.nan
            history.append((n, p0, fbar))
            start += n
        (_, p0_prev, fbar_prev), (_, p0, fbar) = history[-2:]
        rel_p0 = abs(p0 - p0_prev) / max(abs(p0), np.finfo(float).tiny)
        rel_fb = abs(fbar - fbar_prev) / max(abs(fbar), np.finfo(float).tiny)
        if rel_p0 < rtol and rel_fb < rtol:
            return FlybyAggregates(
                p0=p0, f_pair_avg=fbar, flyby_duration_s=profile.flyby_duration_s
            )
    raise QuadratureError(
        f"flyby aggregates did not converge to {rtol} within {GAUSS_NODES[-1]} "
        f"Gauss-Legendre nodes; history (nodes, P0, F_pair_avg): {history}"
    )
