"""Time-resolved flyby profile and its quadrature aggregates.

Composes the pass geometry with the downlink model on a uniform time grid over
one flyby, then reduces the sampled curves to the two numbers the repeater
analysis consumes: the flyby-averaged two-photon transmission

    P0 = (1 / T_FB) * integral of eta_tr^2(t) dt

and the transmission-weighted average pair fidelity

    F_pair_avg = integral of F_pair(t) eta_tr^2(t) dt / (P0 * T_FB).

Integrals use composite Simpson quadrature; every estimate is cross-checked
against its own coarser grid and refinement is available until successive grid
doublings agree to a relative tolerance.
"""

from __future__ import annotations

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


class NoVisibilityError(NoResultError):
    """The satellite is never simultaneously visible from both stations."""

    def __init__(self, message: str) -> None:
        super().__init__("no_visibility", message)


class QuadratureError(RuntimeError):
    """An integral failed to converge to the requested tolerance."""


@dataclass(frozen=True, eq=False)
class FlybyProfile:
    """Sampled flyby time series on a uniform grid over [0, T_FB].

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
) -> FlybyProfile:
    """Sample d(t), theta(t), eta_tr(t), eta_tr^2(t) and F_pair(t) over one flyby.

    ``n_samples`` must be odd (composite Simpson needs an even interval count);
    a geometry with no joint-visibility window raises :class:`NoVisibilityError`.
    """
    if n_samples < 3 or n_samples % 2 == 0:
        raise ValueError(f"n_samples must be odd and >= 3, got {n_samples}")
    timing = pass_timing(geom)
    if not timing.visible:
        raise NoVisibilityError(
            f"no visibility window: altitude {geom.altitude_m} m cannot serve "
            f"stations {geom.link_length_m} m apart below zenith angle "
            f"{geom.max_zenith_rad} rad"
        )
    times = np.linspace(0.0, timing.flyby_duration_s, n_samples)
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


def converged_aggregates(
    geom: OrbitGeometry,
    params: ChannelParams,
    source_fidelity: float,
    start_samples: int = DEFAULT_SAMPLES,
    rtol: float = CONVERGENCE_RTOL,
    max_doublings: int = 6,
) -> FlybyAggregates:
    """Compute the flyby aggregates, doubling the grid until P0 and F_pair_avg
    both move by less than ``rtol`` between successive resolutions.
    """
    n = start_samples
    p0_prev, fbar_prev = _pass_means(build_profile(geom, params, source_fidelity, n))
    history = [(n, p0_prev, fbar_prev)]
    for _ in range(max_doublings):
        n = 2 * (n - 1) + 1
        profile = build_profile(geom, params, source_fidelity, n)
        p0, fbar = _pass_means(profile)
        history.append((n, p0, fbar))
        rel_p0 = abs(p0 - p0_prev) / max(abs(p0), np.finfo(float).tiny)
        rel_fb = abs(fbar - fbar_prev) / max(abs(fbar), np.finfo(float).tiny)
        if rel_p0 < rtol and rel_fb < rtol:
            return FlybyAggregates(
                p0=p0, f_pair_avg=fbar, flyby_duration_s=profile.flyby_duration_s
            )
        p0_prev, fbar_prev = p0, fbar
    raise QuadratureError(
        f"flyby aggregates did not converge to {rtol} within {max_doublings} "
        f"grid doublings; history (n, P0, F_pair_avg): {history}"
    )
