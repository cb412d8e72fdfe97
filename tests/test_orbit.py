import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satrep.orbit import (
    GeometryError,
    OrbitGeometry,
    angular_speed,
    pass_shape,
    pass_timing,
    slant_distance,
    zenith_angle,
)


def geom(h=1.5e6, l0=2.5e6, theta_deg=80.0):
    return OrbitGeometry(
        altitude_m=h, link_length_m=l0, max_zenith_rad=math.radians(theta_deg)
    )


class TestAngularSpeed:
    def test_baseline_altitude(self):
        # sqrt(mu / (R_E + h)^3) at h = 1500 km
        assert angular_speed(geom()) == pytest.approx(
            9.029109566896623e-04, rel=1e-12
        )

    def test_scales_with_altitude(self):
        assert angular_speed(geom(h=5.0e5)) > angular_speed(geom(h=1.5e6))


class TestHalfFlybyTime:
    # Frozen against an independent root-finding inversion of
    # zenith_angle(slant_distance(t)) = theta_max.
    CASES = {
        (1.5e6, 2.5e6): 480.4688402004395,
        (1.0e6, 2.5e6): 326.26838399398713,
        (1.5e6, 5.0e6): 302.07333889405487,
        (1.5e6, 2.0e6): 496.85485568093844,
        (1.0e6, 2.0e6): 346.4106727042657,
        (5.0e5, 2.0e6): 170.97803609532681,
    }

    @pytest.mark.parametrize("h,l0", sorted(CASES))
    def test_frozen_values(self, h, l0):
        assert pass_timing(geom(h=h, l0=l0)).t0_s == pytest.approx(
            self.CASES[(h, l0)], rel=1e-12
        )

    def test_flyby_duration_is_twice_t0(self):
        timing = pass_timing(geom())
        assert timing.flyby_duration_s == 2.0 * timing.t0_s
        assert timing.visible

    def test_no_window_when_stations_too_far_apart(self):
        # 1500 km altitude cannot serve stations 10000 km apart.
        timing = pass_timing(geom(l0=1.0e7))
        assert timing.t0_s == 0.0
        assert not timing.visible
        assert timing.flyby_duration_s == 0.0

    def test_no_window_beyond_quarter_circumference(self):
        g = geom(l0=math.pi * 6.378e6 * 1.01)
        assert pass_timing(g).t0_s == 0.0

    def test_no_window_where_the_cosine_turns_positive_again(self):
        # cos(L0 / 2 R_E) > 0 again past 3 pi R_E (about 60,100 km).
        assert not pass_timing(geom(l0=8.0e7)).visible

    def test_batch_columns_hold_each_pass_bits(self):
        links = [2.0e6, 1.0e7, 8.0e7]
        batch = pass_timing(geom(), links)
        assert batch.t0_s.shape == batch.cos_half_angle.shape == (3, 1)
        for row, l0 in enumerate(links):
            alone = pass_timing(geom(l0=l0))
            assert batch.t0_s[row, 0] == alone.t0_s
            assert batch.cos_half_angle[row, 0] == alone.cos_half_angle
        with pytest.raises(ValueError, match="link length must be >= 0"):
            pass_timing(geom(), [2.0e6, -1.0])

    def test_lower_altitude_means_shorter_window(self):
        assert pass_timing(geom(h=5.0e5, l0=2.0e6)).t0_s < pass_timing(
            geom(h=1.5e6, l0=2.0e6)
        ).t0_s


class TestPassShape:
    def test_covers_every_field_but_link_length(self):
        # Passes of one shape share their orbit terms and quadrature batch
        # entries, so a geometry field the shape left out would merge
        # passes that differ.
        g = geom()
        names = [f.name for f in dataclasses.fields(OrbitGeometry)]
        others = [name for name in names if name != "link_length_m"]
        assert len(pass_shape(g)) == len(others)
        assert pass_shape(dataclasses.replace(g, link_length_m=5.0e6)) == pass_shape(g)
        for name in others:
            changed = dataclasses.replace(g, **{name: getattr(g, name) * 0.9})
            assert pass_shape(changed) != pass_shape(g), name


class TestSlantDistance:
    def test_window_edge_distance(self):
        g = geom()
        timing = pass_timing(g)
        assert slant_distance(g, timing, 0.0) == pytest.approx(
            3647534.324291747, rel=1e-12
        )

    def test_closest_approach(self):
        g = geom()
        timing = pass_timing(g)
        assert slant_distance(g, timing, timing.t0_s) == pytest.approx(
            2042989.0878952874, rel=1e-12
        )

    def test_minimum_matches_direct_formula(self):
        # At closest approach the orbital phase term is 1, so
        # d_min^2 = R_E^2 + r_o^2 - 2 R_E r_o cos(L0 / 2 R_E).
        g = geom()
        timing = pass_timing(g)
        d_min = math.sqrt(
            g.earth_radius_m**2
            + g.orbit_radius_m**2
            - 2.0
            * g.earth_radius_m
            * g.orbit_radius_m
            * math.cos(g.link_length_m / (2.0 * g.earth_radius_m))
        )
        assert slant_distance(g, timing, timing.t0_s) == pytest.approx(
            d_min, rel=1e-14
        )

    def test_symmetric_about_closest_approach(self):
        g = geom()
        timing = pass_timing(g)
        offsets = np.linspace(0.0, timing.t0_s, 257)
        left = slant_distance(g, timing, timing.t0_s - offsets)
        right = slant_distance(g, timing, timing.t0_s + offsets)
        assert np.all(np.abs(left - right) <= 1e-9 * left)

    def test_rejects_time_outside_window(self):
        g = geom()
        timing = pass_timing(g)
        with pytest.raises(ValueError):
            slant_distance(g, timing, -1.0)
        with pytest.raises(ValueError):
            slant_distance(g, timing, timing.flyby_duration_s + 1.0)

    def test_vectorized_matches_scalar(self):
        g = geom()
        timing = pass_timing(g)
        times = np.linspace(0.0, timing.flyby_duration_s, 17)
        vec = slant_distance(g, timing, times)
        assert vec.shape == times.shape
        for t, d in zip(times, vec):
            assert slant_distance(g, timing, float(t)) == d


class TestZenithAngle:
    def test_edge_of_window_sits_at_max_zenith(self):
        g = geom()
        timing = pass_timing(g)
        d_edge = slant_distance(g, timing, 0.0)
        assert zenith_angle(g, d_edge) == pytest.approx(
            g.max_zenith_rad, rel=1e-9
        )

    def test_closest_approach_zenith(self):
        g = geom()
        assert zenith_angle(g, 2042989.0878952874) == pytest.approx(
            0.8494486842936889, rel=1e-9
        )

    def test_overhead_at_altitude(self):
        # Directly overhead: d = h, zenith 0 (station on the ground track).
        g = geom(l0=0.0)
        assert zenith_angle(g, g.altitude_m) == pytest.approx(0.0, abs=1e-7)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(GeometryError):
            zenith_angle(geom(), 0.0)

    def test_rejects_distance_below_minimum(self):
        with pytest.raises(GeometryError):
            zenith_angle(geom(), 1.0e5)

    def test_rejects_horizon_and_beyond(self):
        g = geom()
        # Far enough that the line of sight dips below the local horizon.
        with pytest.raises(GeometryError):
            zenith_angle(g, 6.0e6)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"altitude_m": 0.0, "link_length_m": 1e6},
            {"altitude_m": -1.0, "link_length_m": 1e6},
            {"altitude_m": 1e6, "link_length_m": -1.0},
            {"altitude_m": 1e6, "link_length_m": 1e6, "max_zenith_rad": 0.0},
            {"altitude_m": 1e6, "link_length_m": 1e6, "max_zenith_rad": math.pi / 2},
        ],
    )
    def test_bad_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OrbitGeometry(**kwargs)


@settings(max_examples=60, deadline=None)
@given(
    h=st.floats(min_value=4.0e5, max_value=2.0e6),
    l0=st.floats(min_value=1.0e5, max_value=3.0e6),
    theta_deg=st.floats(min_value=55.0, max_value=85.0),
)
def test_visible_passes_start_at_max_zenith_and_improve(h, l0, theta_deg):
    g = geom(h=h, l0=l0, theta_deg=theta_deg)
    timing = pass_timing(g)
    if not timing.visible:
        return
    d0 = slant_distance(g, timing, 0.0)
    assert zenith_angle(g, d0) == pytest.approx(g.max_zenith_rad, rel=1e-6)
    # Approach: distance decreases monotonically to closest approach, and the
    # zenith angle never exceeds the mask inside the window.
    ts = np.linspace(0.0, timing.t0_s, 64)
    ds = slant_distance(g, timing, ts)
    assert np.all(np.diff(ds) <= 1e-9)
    assert np.all(zenith_angle(g, ds) <= g.max_zenith_rad * (1 + 1e-9))
