"""Instantaneous downlink efficiency and noise model.

A diffracting Gaussian beam is sent from the satellite to a ground telescope.
The single-photon transmission factors into diffraction capture, atmospheric
attenuation along the slanted path, a time-independent pointing-jitter penalty,
and a lumped system coupling efficiency.  Background sky photons within the
receiver's field of view, filter bandwidth, and coincidence window depolarize
the collected pair, degrading its fidelity.

All efficiency functions return values in [0, 1] and accept numpy arrays for the
distance/angle arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PLANCK_J_S, SPEED_OF_LIGHT_M_PER_S

__all__ = [
    "ChannelParams",
    "NoResultError",
    "atmospheric_eff",
    "beam_waist",
    "diffraction_eff",
    "mean_background_photons",
    "pair_fidelity",
    "pointing_divergence",
    "pointing_eff",
    "single_photon_transmission",
    "two_photon_transmission",
]

_APERTURE_MODES = ("literal", "radius")


class NoResultError(ValueError):
    """A well-formed scenario point the model has no result for; ``status``
    names the cause, such as ``zero_transmission``."""

    def __init__(self, status: str, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class ChannelParams:
    """Optics and sky-noise parameters of the downlink.

    Parameters
    ----------
    wavelength_m:
        Photon wavelength (m).
    beam_waist_m:
        Initial beam waist at the transmitter (m).
    beam_quality_m2:
        Beam quality factor M^2 (>= 1); widens the diffraction-limited divergence.
    receiver_radius_m:
        Receiver telescope radius D_R (m).
    pointing_sigma_rad:
        One-axis pointing-jitter standard deviation (rad).
    zenith_transmittance:
        Atmospheric transmittance looking straight up.
    coupling_efficiency:
        Lumped system coupling efficiency (fiber coupling, optics, filters).
    sky_spectral_irradiance_w_m2_um_sr:
        Sky spectral irradiance H (W m^-2 um^-1 sr^-1).
    field_of_view_sr:
        Receiver field of view (sr).
    filter_bandwidth_m:
        Spectral filter bandwidth (m).
    coincidence_window_s:
        Coincidence time window (s).
    aperture_interpretation:
        Aperture area convention in the background-photon formula: "literal"
        uses pi (D_R/2)^2 (the collecting area written with D_R in the diameter
        slot), "radius" uses pi D_R^2 (D_R taken as the radius it is elsewhere).
        The two conventions differ by 4x in the background count only.
    """

    wavelength_m: float
    beam_waist_m: float
    beam_quality_m2: float
    receiver_radius_m: float
    pointing_sigma_rad: float
    zenith_transmittance: float
    coupling_efficiency: float
    sky_spectral_irradiance_w_m2_um_sr: float
    field_of_view_sr: float
    filter_bandwidth_m: float
    coincidence_window_s: float
    aperture_interpretation: str = "literal"

    def __post_init__(self) -> None:
        positive = {
            "wavelength_m": self.wavelength_m,
            "beam_waist_m": self.beam_waist_m,
            "receiver_radius_m": self.receiver_radius_m,
            "field_of_view_sr": self.field_of_view_sr,
            "filter_bandwidth_m": self.filter_bandwidth_m,
            "coincidence_window_s": self.coincidence_window_s,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.beam_quality_m2 < 1.0:
            raise ValueError("beam quality factor must be >= 1")
        if self.pointing_sigma_rad < 0:
            raise ValueError("pointing sigma must be >= 0")
        if not 0.0 < self.zenith_transmittance <= 1.0:
            raise ValueError("zenith transmittance must lie in (0, 1]")
        if not 0.0 < self.coupling_efficiency <= 1.0:
            raise ValueError("coupling efficiency must lie in (0, 1]")
        if self.sky_spectral_irradiance_w_m2_um_sr < 0:
            raise ValueError("sky spectral irradiance must be >= 0")
        if self.aperture_interpretation not in _APERTURE_MODES:
            raise ValueError(
                f"aperture_interpretation must be one of {_APERTURE_MODES}, "
                f"got {self.aperture_interpretation!r}"
            )


def _clamp_unit(x):
    # Floating-point hygiene only: anything beyond 1 by more than noise, or
    # NaN, is a model error and must not be clamped away.
    if not np.all(np.asarray(x) <= 1.0 + 1e-12):
        raise ValueError("efficiency exceeded 1 beyond noise or is NaN")
    return np.clip(x, 0.0, 1.0)


def beam_waist(params: ChannelParams, distance_m):
    """Diffracted beam waist (m) after propagating ``distance_m``:
    sqrt(w0^2 (1 + (lambda d / (pi w0^2))^2)).
    """
    d = np.asarray(distance_m, dtype=float)
    w0 = params.beam_waist_m
    # An underflowing w0^2 gives NaN, which diffraction_eff rejects, and an
    # overflowing spread gives an infinite waist; no warning.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        spread = params.wavelength_m * d / (math.pi * w0 * w0)
        out = np.sqrt(w0 * w0 * (1.0 + spread * spread))
    return float(out) if np.isscalar(distance_m) else out


def diffraction_eff(params: ChannelParams, distance_m):
    """Fraction of the beam captured by the telescope: 1 - exp(-D_R^2 / 2 w_d^2)."""
    w_d = np.asarray(beam_waist(params, distance_m), dtype=float)
    try:
        aperture = params.receiver_radius_m**2
    except OverflowError as exc:
        raise ValueError(
            f"receiver radius {params.receiver_radius_m:.3g} m overflows double precision"
        ) from exc
    out = _clamp_unit(1.0 - np.exp(-aperture / (2.0 * w_d * w_d)))
    return float(out) if np.isscalar(distance_m) else out


def atmospheric_eff(params: ChannelParams, zenith_rad):
    """Atmospheric transmittance along the slanted path: eta_zenith^sec(theta).

    The flat-atmosphere secant scaling diverges at the horizon, so zenith angles
    at or beyond pi/2 are rejected.
    """
    theta = np.asarray(zenith_rad, dtype=float)
    if np.any(theta < 0.0) or np.any(theta >= math.pi / 2):
        raise ValueError("zenith angle must lie in [0, pi/2)")
    out = _clamp_unit(params.zenith_transmittance ** (1.0 / np.cos(theta)))
    return float(out) if np.isscalar(zenith_rad) else out


def pointing_divergence(params: ChannelParams) -> float:
    """Full beam divergence used by the pointing model: 4 M^2 lambda / (pi w0)."""
    return 4.0 * params.beam_quality_m2 * params.wavelength_m / (
        math.pi * params.beam_waist_m
    )


def pointing_eff(params: ChannelParams) -> float:
    """Time-independent pointing efficiency dtheta^2 / (dtheta^2 + 4 sigma^2)."""
    dtheta = pointing_divergence(params)
    try:
        ratio = dtheta**2 / (dtheta**2 + 4.0 * params.pointing_sigma_rad**2)
    except OverflowError as exc:
        raise ValueError(
            f"pointing efficiency overflows double precision (divergence {dtheta:.3g} "
            f"rad, jitter {params.pointing_sigma_rad:.3g} rad)"
        ) from exc
    return float(_clamp_unit(ratio))


def single_photon_transmission(params: ChannelParams, distance_m, zenith_rad):
    """Single-photon downlink transmission eta_tr(d, theta):
    diffraction x atmosphere x pointing x coupling.
    """
    out = (
        np.asarray(diffraction_eff(params, distance_m))
        * np.asarray(atmospheric_eff(params, zenith_rad))
        * pointing_eff(params)
        * params.coupling_efficiency
    )
    scalar = np.isscalar(distance_m) and np.isscalar(zenith_rad)
    return float(out) if scalar else out


def two_photon_transmission(params: ChannelParams, d1_m, zenith1_rad, d2_m, zenith2_rad):
    """Joint transmission of both photons of a pair, one to each station.

    With the satellite over the midpoint both legs are identical and the result
    is exactly ``single_photon_transmission(...)**2``.
    """
    eta1 = single_photon_transmission(params, d1_m, zenith1_rad)
    eta2 = single_photon_transmission(params, d2_m, zenith2_rad)
    return eta1 * eta2


def mean_background_photons(params: ChannelParams) -> float:
    """Mean number of background sky photons per coincidence window.

    n_bar = H * Omega_fov * A * dlambda * dT / (h c / lambda), with the collecting
    area A set by ``aperture_interpretation`` and H per micrometre of bandwidth
    (the filter bandwidth is converted from metres accordingly).  Constant over a
    flyby: the sky brightness is treated as fixed.
    """
    if params.aperture_interpretation == "literal":
        area = math.pi * (params.receiver_radius_m / 2.0) ** 2
    else:
        area = math.pi * params.receiver_radius_m**2
    bandwidth_um = params.filter_bandwidth_m * 1e6
    photon_energy = PLANCK_J_S * SPEED_OF_LIGHT_M_PER_S / params.wavelength_m
    return (
        params.sky_spectral_irradiance_w_m2_um_sr
        * params.field_of_view_sr
        * area
        * bandwidth_um
        * params.coincidence_window_s
        / photon_energy
    )


def pair_fidelity(f_s: float, n_bar: float, eta_tr):
    """Fidelity of a distributed photon pair against background contamination:

    F_pair = (1/4) (1 + (4 F_s - 1) / (1 + n_bar / eta_tr)^2)

    Decays from the source fidelity ``f_s`` (clean sky) toward the fully
    depolarized 1/4 as the background-to-signal ratio ``n_bar / eta_tr`` grows.
    """
    if not 0.25 <= f_s <= 1.0:
        raise ValueError(f"source fidelity must lie in [1/4, 1], got {f_s}")
    if n_bar < 0:
        raise ValueError("mean background photon number must be >= 0")
    eta = np.asarray(eta_tr, dtype=float)
    if np.any(eta <= 0.0):
        raise NoResultError(
            "zero_transmission", "pair fidelity undefined at zero transmission"
        )
    # For tiny eta the square overflows to inf, which gives the correct
    # limit 1/4; that overflow is expected, not a fault.
    with np.errstate(over="ignore"):
        out = 0.25 * (1.0 + (4.0 * f_s - 1.0) / (1.0 + n_bar / eta) ** 2)
    return float(out) if np.isscalar(eta_tr) else out
