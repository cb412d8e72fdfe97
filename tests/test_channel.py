import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satrep.channel import (
    ChannelParams,
    atmospheric_eff,
    beam_waist,
    diffraction_eff,
    mean_background_photons,
    pair_fidelity,
    pointing_divergence,
    pointing_eff,
    single_photon_transmission,
    two_photon_transmission,
)


def params(**overrides):
    base = dict(
        wavelength_m=780e-9,
        beam_waist_m=0.025,
        beam_quality_m2=1.0,
        receiver_radius_m=1.0,
        pointing_sigma_rad=0.5e-6,
        zenith_transmittance=0.79,
        coupling_efficiency=0.25,
        sky_spectral_irradiance_w_m2_um_sr=1.5e-5,
        field_of_view_sr=1.0e-8,
        filter_bandwidth_m=1.0e-9,
        coincidence_window_s=1.0e-9,
    )
    base.update(overrides)
    return ChannelParams(**base)


# Frozen values below were computed by independent per-term evaluation of the
# loss chain at d = 1500 km (satellite directly above at its own altitude).


def test_beam_waist_frozen():
    assert beam_waist(params(), 1.5e6) == pytest.approx(
        14.896923650901686, rel=1e-12
    )


def test_beam_waist_at_zero_distance_is_w0():
    assert beam_waist(params(), 0.0) == 0.025


def test_diffraction_frozen():
    assert diffraction_eff(params(), 1.5e6) == pytest.approx(
        0.002250544796971843, rel=1e-12
    )


def test_diffraction_complete_capture_near_field():
    # At 1 m the beam is still 2.5 cm against a 1 m aperture.
    assert diffraction_eff(params(), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_atmosphere_at_zenith_is_zenith_transmittance():
    assert atmospheric_eff(params(), 0.0) == 0.79


def test_atmosphere_at_mask_angle_frozen():
    assert atmospheric_eff(params(), math.radians(80.0)) == pytest.approx(
        0.25731074074839344, rel=1e-12
    )


def test_atmosphere_rejects_horizon():
    with pytest.raises(ValueError):
        atmospheric_eff(params(), math.pi / 2)
    with pytest.raises(ValueError):
        atmospheric_eff(params(), -0.1)


def test_pointing_frozen():
    p = params()
    assert pointing_divergence(p) == pytest.approx(3.972507379573708e-05, rel=1e-12)
    assert pointing_eff(p) == pytest.approx(0.9993667204589815, rel=1e-12)


def test_pointing_perfect_without_jitter():
    assert pointing_eff(params(pointing_sigma_rad=0.0)) == 1.0


def test_single_photon_transmission_frozen():
    assert single_photon_transmission(params(), 1.5e6, 0.0) == pytest.approx(
        4.442011156666655e-04, rel=1e-12
    )


def test_single_photon_transmission_is_product_of_terms():
    p = params()
    d, theta = 2.0e6, 0.7
    expected = (
        diffraction_eff(p, d)
        * atmospheric_eff(p, theta)
        * pointing_eff(p)
        * p.coupling_efficiency
    )
    assert single_photon_transmission(p, d, theta) == expected


def test_two_photon_transmission_squares_symmetric_link():
    p = params()
    eta = single_photon_transmission(p, 1.8e6, 0.5)
    assert two_photon_transmission(p, 1.8e6, 0.5, 1.8e6, 0.5) == eta * eta


def test_two_photon_transmission_mixed_legs():
    p = params()
    got = two_photon_transmission(p, 1.8e6, 0.5, 2.2e6, 0.9)
    expected = single_photon_transmission(p, 1.8e6, 0.5) * single_photon_transmission(
        p, 2.2e6, 0.9
    )
    assert got == expected


class TestBackgroundPhotons:
    def test_literal_aperture_frozen(self):
        assert mean_background_photons(params()) == pytest.approx(
            4.6259295105777524e-07, rel=1e-12
        )

    def test_radius_aperture_frozen(self):
        p = params(aperture_interpretation="radius")
        assert mean_background_photons(p) == pytest.approx(
            1.850371804231101e-06, rel=1e-12
        )

    def test_radius_mode_is_four_times_literal(self):
        lit = mean_background_photons(params())
        rad = mean_background_photons(params(aperture_interpretation="radius"))
        assert rad == pytest.approx(4.0 * lit, rel=1e-12)

    def test_dark_sky_means_zero_background(self):
        assert mean_background_photons(params(sky_spectral_irradiance_w_m2_um_sr=0.0)) == 0.0

    def test_unknown_interpretation_rejected(self):
        with pytest.raises(ValueError):
            params(aperture_interpretation="diameter")


class TestPairFidelity:
    def test_clean_sky_returns_source_fidelity(self):
        assert pair_fidelity(0.998, 0.0, 1e-4) == pytest.approx(0.998, rel=1e-15)

    def test_frozen_at_one_percent_background(self):
        assert pair_fidelity(0.998, 0.01, 1.0) == pytest.approx(
            0.9832614449563768, rel=1e-12
        )

    def test_swamped_by_background_approaches_floor(self):
        assert pair_fidelity(0.998, 1e9, 1e-4) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ratio_gives_floor_without_warning(self):
        # (1 + n_bar/eta)^2 overflows to inf; the limit 1/4 is the answer.
        assert pair_fidelity(0.998, 1e-3, 1e-160) == 0.25
        assert pair_fidelity(0.998, 1e-3, np.array([1e-160, 1.0]))[0] == 0.25

    def test_rejects_zero_transmission(self):
        with pytest.raises(ValueError):
            pair_fidelity(0.998, 1e-7, 0.0)

    def test_rejects_unphysical_source_fidelity(self):
        with pytest.raises(ValueError):
            pair_fidelity(0.2, 1e-7, 1e-4)
        with pytest.raises(ValueError):
            pair_fidelity(1.1, 1e-7, 1e-4)

    @settings(max_examples=80, deadline=None)
    @given(
        f_s=st.floats(min_value=0.25, max_value=1.0),
        n_bar=st.floats(min_value=0.0, max_value=1e3),
        eta=st.floats(min_value=1e-12, max_value=1.0),
    )
    def test_bounded_by_floor_and_source(self, f_s, n_bar, eta):
        f = pair_fidelity(f_s, n_bar, eta)
        assert 0.25 <= f <= f_s + 1e-15


@settings(max_examples=80, deadline=None)
@given(
    d=st.floats(min_value=1.0, max_value=5.0e6),
    theta=st.floats(min_value=0.0, max_value=1.5),
)
def test_transmission_is_a_probability(d, theta):
    eta = single_photon_transmission(params(), d, theta)
    assert 0.0 < eta <= 1.0


@settings(max_examples=40, deadline=None)
@given(d=st.floats(min_value=1e5, max_value=5e6))
def test_diffraction_decreases_with_distance(d):
    p = params()
    assert diffraction_eff(p, d) >= diffraction_eff(p, d * 1.5)


def test_vectorized_profile_matches_scalars():
    p = params()
    ds = np.array([1.0e6, 1.5e6, 2.5e6])
    thetas = np.array([0.1, 0.4, 1.2])
    vec = single_photon_transmission(p, ds, thetas)
    for d, theta, eta in zip(ds, thetas, vec):
        assert single_photon_transmission(p, float(d), float(theta)) == eta
