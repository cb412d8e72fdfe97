"""The composite Simpson rule on a uniform flyby grid: the reference the
Gauss-Legendre pass quadrature (``satrep.flyby.converged_aggregates``) is
tested against.  No runtime path uses it.

Every Simpson estimate is cross-checked against its own embedded
half-resolution grid.
"""

import math

import numpy as np

from satrep.flyby import CONVERGENCE_RTOL, FlybyProfile, QuadratureError


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
