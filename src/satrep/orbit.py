"""Satellite pass geometry over two equatorial ground stations.

A satellite on a circular orbit at altitude ``h`` passes over the midpoint of two
ground stations separated by the great-circle distance ``L0``.  The model yields
the time-dependent slant distance from either station (both see the same distance
by symmetry), the corresponding zenith angle, and the flyby window during which
the satellite is simultaneously visible from both stations (zenith angle below
``theta_max`` at each).  Earth's rotation is neglected; time ``t = 0`` is the
instant the satellite enters visibility, ``t = t0`` the closest approach.

All functions are pure and accept numpy arrays in the time/distance arguments;
:func:`pass_timing` also takes a list of link lengths, and its
:class:`PassTiming` of column arrays batches one pass shape's passes at them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH_MU_M3_PER_S2, EARTH_RADIUS_M

__all__ = [
    "GeometryError",
    "OrbitGeometry",
    "PassTiming",
    "angular_speed",
    "pass_shape",
    "pass_timing",
    "slant_distance",
    "zenith_angle",
]

# Tolerance for arccos arguments that exceed 1 by floating-point noise only.
_COS_SLACK = 1e-12
# An array's least and greatest element, each one reduction that skips NaN
# as a comparison and `.any()` do (+inf and -inf for none).
_low = functools.partial(np.fmin.reduce, axis=None, initial=math.inf)
_high = functools.partial(np.fmax.reduce, axis=None, initial=-math.inf)


def _scalar(x) -> bool:
    """``np.isscalar(x)``, without its slow abstract-class check on an array."""
    return not isinstance(x, np.ndarray) and np.isscalar(x)


class GeometryError(ValueError):
    """Raised when a requested configuration is geometrically impossible."""


@dataclass(frozen=True)
class OrbitGeometry:
    """Static geometry of one elementary link served by a passing satellite.

    Parameters
    ----------
    altitude_m:
        Satellite altitude above the surface, ``h`` (m).
    link_length_m:
        Ground-station great-circle separation, ``L0`` (m).
    earth_radius_m, mu_m3_per_s2:
        Earth radius and gravitational parameter; overridable for tests.
    max_zenith_rad:
        Largest usable zenith angle ``theta_max`` at either station (rad),
        strictly between 0 and pi/2.
    """

    altitude_m: float
    link_length_m: float
    earth_radius_m: float = EARTH_RADIUS_M
    mu_m3_per_s2: float = EARTH_MU_M3_PER_S2
    max_zenith_rad: float = math.radians(80.0)

    def __post_init__(self) -> None:
        if self.altitude_m <= 0:
            raise ValueError(f"altitude must be positive, got {self.altitude_m}")
        if self.link_length_m < 0:
            raise ValueError(f"link length must be >= 0, got {self.link_length_m}")
        if self.earth_radius_m <= 0 or self.mu_m3_per_s2 <= 0:
            raise ValueError("Earth radius and mu must be positive")
        if not 0.0 < self.max_zenith_rad < math.pi / 2:
            raise ValueError(
                f"max zenith angle must lie in (0, pi/2), got {self.max_zenith_rad}"
            )

    @property
    def orbit_radius_m(self) -> float:
        return self.altitude_m + self.earth_radius_m


@dataclass(frozen=True)
class PassTiming:
    """One pass over a pair of stations: its half-flyby time ``t0``
    (``T_FB = 2 t0``, 0 when never jointly visible) and ``cos(L0 / 2 R_E)``,
    the cosine of half the stations' central angle.

    For a batch of passes, both fields are column arrays of shape (passes,
    1), and :func:`slant_distance` broadcasts over those of one pass shape.
    """

    t0_s: float
    cos_half_angle: float

    @property
    def flyby_duration_s(self) -> float:
        return 2.0 * self.t0_s

    @property
    def visible(self) -> bool:
        return self.t0_s > 0.0


def pass_shape(geom: OrbitGeometry) -> tuple[float, ...]:
    """Everything of a geometry but its link length: the passes of one shape
    share their orbit terms, and differ only in the stations' separation."""
    return (geom.altitude_m, geom.earth_radius_m, geom.mu_m3_per_s2, geom.max_zenith_rad)


def angular_speed(geom: OrbitGeometry) -> float:
    """Orbital angular speed sqrt(mu / (h + R_E)^3) in rad/s; a speed that
    underflows to 0 raises ValueError."""
    omega = math.sqrt(geom.mu_m3_per_s2 / geom.orbit_radius_m**3)
    if omega == 0.0:
        raise ValueError(
            f"orbital angular speed underflows double precision (mu {geom.mu_m3_per_s2:.3g}"
            f" m^3/s^2, orbit radius {geom.orbit_radius_m:.3g} m)"
        )
    return omega


def pass_timing(geom: OrbitGeometry, link_lengths_m: list[float] | None = None) -> PassTiming:
    """The pass's t0 (hence T_FB) and cos(L0 / 2 R_E); given ``link_lengths_m``,
    those of ``geom``'s pass shape at each of them (not the geometry's own),
    as (passes, 1) columns.  Each link is computed in ``math`` arithmetic,
    and the shape's own terms once, when a link first needs them, so a link
    has the bits, and raises the errors, it has alone.

    Closed form: the satellite sits at zenith angle ``theta_max`` (from each
    station) when the central angle from the stations' midpoint equals the value
    whose cosine appears below; dividing by the angular speed gives the time from
    closest approach back to the visibility edge.
    """
    r_e, r_o = geom.earth_radius_m, geom.orbit_radius_m
    half_circle, diameter = math.pi * r_e, 2.0 * r_e
    numer = omega = None
    t0s, cosines = [], []
    for link_m in [geom.link_length_m] if link_lengths_m is None else link_lengths_m:
        if link_m < 0:
            raise ValueError(f"link length must be >= 0, got {link_m}")
        cos_half = math.cos(link_m / diameter)
        cosines.append(cos_half)
        t0s.append(0.0)
        if link_m >= half_circle:
            # Stations half a great circle apart or more: never jointly visible.
            # The cosine below turns positive again past 3 pi R_E.
            continue
        if numer is None:
            h = geom.altitude_m
            cos_tm = math.cos(geom.max_zenith_rad)
            try:
                numer = r_e * (1.0 - cos_tm**2) + cos_tm * math.sqrt(
                    h * h + 2.0 * h * r_e + r_e**2 * cos_tm**2
                )
            except OverflowError as exc:
                raise ValueError(
                    f"pass geometry overflows double precision (Earth radius {r_e:.3g} m)"
                ) from exc
        denom = r_o * cos_half
        if denom <= 0.0:
            continue  # L0 within rounding of pi R_E
        arg = numer / denom
        if arg > 1.0:
            continue
        if omega is None:
            omega = angular_speed(geom)
        t0s[-1] = math.acos(arg) / omega
    if link_lengths_m is None:
        return PassTiming(t0s[0], cosines[0])
    columns = np.array([t0s, cosines]).T
    return PassTiming(columns[:, :1], columns[:, 1:])


def slant_distance(geom: OrbitGeometry, timing: PassTiming, t_s):
    """Station-to-satellite distance d(t) (m) for t within the flyby window.

    d^2 = R_E^2 + (R_E + h)^2
          - 2 R_E (R_E + h) cos(L0 / 2 R_E) cos(omega (t0 - t))

    ``timing`` (from :func:`pass_timing`) supplies t0 and cos(L0 / 2 R_E),
    so a batch timing samples, against ``t_s`` of shape (passes, samples),
    every pass that differs from ``geom`` only in link length.  Accepts scalar
    or array ``t_s``; values outside [0, T_FB] are rejected.
    """
    t = np.asarray(t_s, dtype=float)
    if _low(t) < 0.0 or (t > timing.flyby_duration_s).any():
        raise ValueError(
            f"time outside the flyby window [0, {timing.flyby_duration_s}]"
        )
    r_e = geom.earth_radius_m
    r_o = geom.orbit_radius_m
    omega = angular_speed(geom)
    d_sq = r_e**2 + r_o**2 - 2.0 * r_e * r_o * timing.cos_half_angle * np.cos(
        omega * (timing.t0_s - t)
    )
    d = np.sqrt(d_sq)
    return float(d) if _scalar(t_s) else d


def zenith_angle(geom: OrbitGeometry, d_m):
    """Zenith angle (rad) at a ground station for slant distance d.

    cos(theta) = h/d - (d^2 - h^2) / (2 R_E d)

    Valid on the visible branch only: configurations whose cosine falls outside
    (0, 1] (satellite at or beyond the local horizon, or d below the physical
    minimum) raise :class:`GeometryError`.
    """
    d = np.asarray(d_m, dtype=float)
    if _low(d) <= 0.0:
        raise GeometryError("slant distance must be positive")
    h = geom.altitude_m
    r_e = geom.earth_radius_m
    cos_theta = h / d - (d * d - h * h) / (2.0 * r_e * d)
    if _high(cos_theta) > 1.0 + _COS_SLACK:
        raise GeometryError(
            "slant distance below the physical minimum for this altitude"
        )
    if _low(cos_theta) <= 0.0:
        raise GeometryError("satellite at or beyond the horizon (zenith >= pi/2)")
    theta = np.arccos(np.minimum(cos_theta, 1.0))
    return float(theta) if _scalar(d_m) else theta
