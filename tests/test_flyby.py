import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from satrep import flyby
from satrep.channel import ChannelParams, NoResultError, single_photon_transmission
from satrep.constants import EARTH_RADIUS_M
from satrep.flyby import (
    FlybyAggregates,
    FlybyProfile,
    NoVisibilityError,
    QuadratureError,
    build_profile,
    converged_aggregates,
    pass_aggregates,
)
from satrep.orbit import OrbitGeometry, pass_timing, slant_distance, zenith_angle
from simpson_reference import _simpson, average_pair_fidelity, average_two_photon


def make_geom(h, l0):
    return OrbitGeometry(altitude_m=h, link_length_m=l0, max_zenith_rad=math.radians(80))


def batch_of(geom, params, source_fidelity, links):
    """The converged aggregates of ``geom``'s pass shape, channel ``params``
    and ``source_fidelity`` at each link length of ``links``, in one batch."""
    n = len(links)
    return converged_aggregates([geom] * n, [params] * n, [source_fidelity] * n, list(links))


def synthetic_profile(values, duration=10.0):
    """Profile wrapper around an arbitrary eta^2 curve for quadrature tests."""
    n = values.size
    t = np.linspace(0.0, duration, n)
    ones = np.ones(n)
    return FlybyProfile(
        times_s=t,
        slant_m=ones,
        zenith_rad=ones,
        eta_tr=np.sqrt(values),
        eta2_tr=values,
        f_pair=ones,
        flyby_duration_s=duration,
    )


# Aggregates frozen against adaptive quadrature at 1e-11 tolerance over the
# same closed-form integrands: (T_FB, P0, F_pair_avg) per (h, L0).
FROZEN = {
    (1.5e6, 2.5e6): (960.937680400879, 1.820740403201312e-08, 0.9934595182390792),
    (1.5e6, 2.0e6): (993.7097113618769, 2.6127315791822818e-08, 0.9942868007740826),
    (1.0e6, 2.0e6): (692.8213454085314, 6.144063655110974e-08, 0.9955546601593314),
    (1.0e6, 2.5e6): (652.5367679879743, 3.5357150011086495e-08, 0.994676661918984),
    (1.5e6, 5.0e6): (604.1466777881097, 2.0916577524849055e-09, 0.9834504302249495),
    (1.5e6, 1.25e6): (1027.704279482655, 4.1479337868660844e-08, 0.9951386576866785),
    (1.0e6, 1.25e6): (733.582943908869, 1.3265453166940795e-07, 0.9964170442913841),
}


@pytest.fixture(scope="module")
def channel(baseline_cfg):
    return baseline_cfg.channel


@pytest.mark.parametrize("h,l0", sorted(FROZEN))
def test_converged_aggregates_frozen(h, l0, channel):
    t_fb, p0, fbar = FROZEN[(h, l0)]
    agg = pass_aggregates(make_geom(h, l0), channel, 0.998)
    assert agg.flyby_duration_s == pytest.approx(t_fb, rel=1e-12)
    assert agg.p0 == pytest.approx(p0, rel=1e-8)
    assert agg.f_pair_avg == pytest.approx(fbar, rel=1e-8)


def test_profile_samples_compose_orbit_and_channel(channel):
    geom = make_geom(1.5e6, 2.5e6)
    profile = build_profile(geom, channel, 0.998, n_samples=101)
    timing = pass_timing(geom)
    mid = 50  # odd sample count puts this exactly at closest approach
    d_mid = slant_distance(geom, timing, profile.times_s[mid])
    theta_mid = zenith_angle(geom, d_mid)
    assert profile.slant_m[mid] == d_mid
    eta = single_photon_transmission(channel, d_mid, theta_mid)
    assert profile.eta2_tr[mid] == eta * eta


def test_profile_symmetric_and_peaked_at_midpass(channel):
    profile = build_profile(make_geom(1.5e6, 2.0e6), channel, 0.998, n_samples=201)
    eta2 = profile.eta2_tr
    assert np.argmax(eta2) == 100
    assert eta2[::-1] == pytest.approx(eta2, rel=1e-9)


def test_profile_rejects_tiny_grids(channel):
    with pytest.raises(ValueError):
        build_profile(make_geom(1.5e6, 2.5e6), channel, 0.998, n_samples=1)


def test_no_visibility_raises(channel):
    with pytest.raises(NoVisibilityError):
        build_profile(make_geom(1.5e6, 1.0e7), channel, 0.998)


def test_sine_average_is_two_over_pi():
    # A synthetic integrand with a known pass average: sin(pi t / T) -> 2/pi.
    t = np.linspace(0.0, 10.0, 2001)
    profile = synthetic_profile(np.sin(math.pi * t / 10.0))
    assert average_two_photon(profile) == pytest.approx(2.0 / math.pi, rel=1e-6)


@pytest.mark.parametrize(
    "n,integrand,stride",
    [(n, w, s) for n in (2001, 4001) for w in ("eta2", "f_eta2") for s in (1, 2)]
    + [(n, "half_sine", 1) for n in (5, 401, 2001)],
)
def test_simpson_is_bit_identical_to_reference(n, integrand, stride, baseline_cfg):
    # The numpy rule must reproduce scipy's irregular-grid Simpson exactly, on
    # the baseline pass integrands, their embedded stride-2 grids and a sine.
    if integrand == "half_sine":
        x = np.linspace(0.0, 10.0, n)
        y = np.sin(math.pi * x / 10.0)
    else:
        cfg = baseline_cfg
        profile = build_profile(
            cfg.geometry, cfg.channel, cfg.source.pair_fidelity, n_samples=n
        )
        y = profile.eta2_tr if integrand == "eta2" else profile.f_pair * profile.eta2_tr
        x, y = profile.times_s[::stride], y[::stride]
    assert _simpson(y, x) == float(simpson(y, x=x))


def test_unit_fidelity_average_is_one():
    t = np.linspace(0.0, 10.0, 401)
    profile = synthetic_profile(np.sin(math.pi * t / 10.0))
    assert average_pair_fidelity(profile) == pytest.approx(1.0, rel=1e-12)


def test_embedded_grid_check_catches_underresolved_integrand():
    # Five points cannot resolve a half sine to 1e-6, and the embedded
    # three-point grid disagrees loudly - the guard must trip.
    t = np.linspace(0.0, 10.0, 5)
    profile = synthetic_profile(np.sin(math.pi * t / 10.0))
    with pytest.raises(QuadratureError):
        average_two_photon(profile)


def test_zero_transmission_has_no_fidelity_average():
    profile = synthetic_profile(np.zeros(11))
    with pytest.raises(ValueError):
        average_pair_fidelity(profile)


def test_grid_doubling_agreement(channel):
    # The converged aggregates must be stable under one further doubling.
    geom = make_geom(1.5e6, 2.5e6)
    fine = build_profile(geom, channel, 0.998, n_samples=4001)
    coarse = build_profile(geom, channel, 0.998, n_samples=2001)
    assert average_two_photon(fine) == pytest.approx(
        average_two_photon(coarse), rel=1e-6
    )
    assert average_pair_fidelity(fine) == pytest.approx(
        average_pair_fidelity(coarse), rel=1e-6
    )


def test_converged_aggregates_match_direct_averages(channel, baseline_agg):
    geom = make_geom(1.5e6, 2.5e6)
    profile = build_profile(geom, channel, 0.998, n_samples=4001)
    assert baseline_agg.p0 == pytest.approx(average_two_photon(profile), rel=1e-9)
    assert baseline_agg.f_pair_avg == pytest.approx(
        average_pair_fidelity(profile), rel=1e-9
    )


def test_nonconvergent_integrand_raises_after_refinement_budget(channel, monkeypatch):
    # A 2/4-node schedule leaves no room to confirm convergence.
    monkeypatch.setattr(flyby, "GAUSS_NODES", (2, 4))
    with pytest.raises(QuadratureError, match=r"history \(nodes, P0, F_pair_avg\): \[\(2, "):
        pass_aggregates(make_geom(1.5e6, 2.5e6), channel, 0.998)


# Grazing passes that need 256 Gauss nodes, frozen from composite Simpson
# converged by grid doubling from 2,001 samples: (h, max zenith deg, L0,
# zenith transmittance, beam waist) -> (T_FB, P0, F_pair_avg).
GRAZING = {
    (2.0e5, 89.9, 1.0e5, 0.5, 0.005): (
        414.6753638946325, 2.6362425716815728e-08, 0.9961363658807791
    ),
    (3.0e5, 89.0, 3.0e5, 0.01, 0.025): (
        489.1768333647625, 2.1789909657827037e-10, 0.9817577090787873
    ),
}


@pytest.mark.parametrize("key", sorted(GRAZING))
def test_grazing_pass_converges_within_budget(key, channel, monkeypatch):
    h, zenith_deg, l0, transmittance, waist = key
    geom = OrbitGeometry(
        altitude_m=h, link_length_m=l0, max_zenith_rad=math.radians(zenith_deg)
    )
    params = dataclasses.replace(
        channel, zenith_transmittance=transmittance, beam_waist_m=waist
    )
    t_fb, p0, fbar = GRAZING[key]
    agg = pass_aggregates(geom, params, 0.998)
    assert agg.flyby_duration_s == pytest.approx(t_fb, rel=1e-12)
    assert agg.p0 == pytest.approx(p0, rel=1e-8)
    assert agg.f_pair_avg == pytest.approx(fbar, rel=1e-8)
    # A 128-node budget is not enough for these passes.
    monkeypatch.setattr(flyby, "GAUSS_NODES", flyby.GAUSS_NODES[:3])
    with pytest.raises(QuadratureError):
        pass_aggregates(geom, params, 0.998)


# Link lengths of one batch at the first grazing pass's altitude, zenith mask
# and channel: 1,000 and 2,500 km converge at 64 nodes, 300 km at 128, the
# grazing 100 km at 256; at 3,130 km eta^2 underflows to 0 on every node;
# 3,200 km lies beyond the zenith mask and 21,000 km beyond pi R_E.  Then the
# visibility boundaries: stations at one point, pi R_E and its two float
# neighbours, and a length past 3 pi R_E, where cos(L0 / 2 R_E) turns
# positive again.
HALF_CIRCLE = math.pi * EARTH_RADIUS_M
BATCH_LINKS = (
    1.0e6, 1.0e5, 3.0e5, 2.5e6, 3.13e6, 3.2e6, 2.1e7,
    0.0, HALF_CIRCLE, math.nextafter(HALF_CIRCLE, 0.0),
    math.nextafter(HALF_CIRCLE, math.inf), 3.5 * HALF_CIRCLE,
)
BATCH_STATUSES = {
    1.0: ["ok"] * 4 + ["zero_transmission"] + ["no_visibility"] * 2
    + ["ok"] + ["no_visibility"] * 4,
    1e-300: ["zero_transmission"] * 5 + ["no_visibility"] * 2
    + ["zero_transmission"] + ["no_visibility"] * 4,
}


@pytest.mark.parametrize("receiver_radius", sorted(BATCH_STATUSES))
def test_batch_agrees_with_single_passes(receiver_radius, channel):
    params = dataclasses.replace(
        channel, zenith_transmittance=0.5, beam_waist_m=0.005,
        receiver_radius_m=receiver_radius,
    )
    geom = OrbitGeometry(
        altitude_m=2.0e5, link_length_m=1.0, max_zenith_rad=math.radians(89.9)
    )
    batch = batch_of(geom, params, 0.998, BATCH_LINKS)
    statuses = [got if isinstance(got, str) else "ok" for got in batch]
    assert statuses == BATCH_STATUSES[receiver_radius]
    for l0, got in zip(BATCH_LINKS, batch):
        single = dataclasses.replace(geom, link_length_m=l0)
        try:
            want = pass_aggregates(single, params, 0.998)
        except NoResultError as exc:
            assert got == exc.status
            assert isinstance(exc, NoVisibilityError) == (got == "no_visibility")
            continue
        assert isinstance(got, FlybyAggregates)
        assert type(got.flyby_duration_s) is float
        assert got.flyby_duration_s == want.flyby_duration_s
        assert got.p0 == pytest.approx(want.p0, rel=1e-13)
        assert got.f_pair_avg == pytest.approx(want.f_pair_avg, rel=1e-13)


@pytest.mark.parametrize("n", flyby.GAUSS_NODES)
def test_gauss_rule_is_exact_for_polynomials_to_degree_2n_minus_1(n):
    fractions, weights = flyby._gauss_legendre(n)
    assert np.all(np.diff(fractions) > 0) and 0 < fractions[0] and fractions[-1] < 1
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
    for k in range(2 * n):
        assert weights @ fractions**k == pytest.approx(1.0 / (k + 1), rel=1e-11)


def test_gauss_rules_are_mirror_symmetric():
    # The folded rules rest on this: numpy's leggauss symmetrizes its nodes
    # and weights, so each rule is its own mirror image about the midpoint.
    for n in flyby.GAUSS_NODES:
        fractions, weights = flyby._gauss_legendre(n)
        assert (fractions + fractions[::-1] == 1.0).all()
        assert (weights == weights[::-1]).all()


def test_folded_rules_agree_with_full_rules(channel, baseline_cfg, monkeypatch):
    # Each folded rule samples half the nodes of the full rule; on a pass,
    # which is symmetric about closest approach, the two agree to rounding:
    # on the baseline pass, the grazing passes and the batch of
    # test_batch_agrees_with_single_passes.
    cfg = baseline_cfg
    batch_params = dataclasses.replace(
        channel, zenith_transmittance=0.5, beam_waist_m=0.005
    )
    batch_geom = OrbitGeometry(
        altitude_m=2.0e5, link_length_m=1.0, max_zenith_rad=math.radians(89.9)
    )

    def everything():
        baseline = pass_aggregates(cfg.geometry, cfg.channel, cfg.source.pair_fidelity)
        grazing = [
            pass_aggregates(
                OrbitGeometry(
                    altitude_m=h, link_length_m=l0, max_zenith_rad=math.radians(zenith_deg)
                ),
                dataclasses.replace(
                    channel, zenith_transmittance=transmittance, beam_waist_m=waist
                ),
                0.998,
            )
            for h, zenith_deg, l0, transmittance, waist in sorted(GRAZING)
        ]
        batch = batch_of(batch_geom, batch_params, 0.998, BATCH_LINKS)
        return [baseline, *grazing, *batch]

    folded = everything()
    monkeypatch.setattr(flyby, "_folded", flyby._gauss_legendre)
    monkeypatch.setattr(flyby, "_rules", flyby._rules.__wrapped__)
    full = everything()
    assert full != folded  # the full rules ran, and moved some last bits
    for got, want in zip(folded, full):
        if isinstance(want, str):
            assert got == want
            continue
        assert got.flyby_duration_s == want.flyby_duration_s
        assert got.p0 == pytest.approx(want.p0, rel=1e-13, abs=0.0)
        assert got.f_pair_avg == pytest.approx(want.f_pair_avg, rel=1e-13, abs=0.0)


# Pass parameters of the mixed batches below: link length, altitude, zenith
# mask, channel (zenith transmittance, beam waist, receiver radius) and
# source fidelity.  They take in visible and invisible passes, grazing ones
# that need 256 nodes and ones whose transmission underflows to 0.
MIXED_LINKS = st.one_of(
    st.sampled_from([1.0e5, 3.0e5, 1.0e6, 2.5e6, 3.13e6, 2.1e7]),
    st.floats(min_value=0.0, max_value=6.0e6),
)
MIXED_CHANNELS = [(0.5, 0.005, 1.0), (0.7, 0.1, 1.0), (0.9, 0.05, 0.5), (0.5, 0.005, 1e-300)]
MIXED_PASS = st.tuples(
    MIXED_LINKS,
    st.sampled_from([2.0e5, 5.0e5, 1.5e6]),
    st.sampled_from([60.0, 80.0, 89.9]),
    st.sampled_from(range(len(MIXED_CHANNELS))),
    st.sampled_from([0.998, 0.95, 1.0]),
)


@settings(max_examples=60, deadline=None)
@given(passes=st.lists(MIXED_PASS, min_size=1, max_size=9))
# One pass shape (60 deg mask at 200 km) whose passes are all invisible,
# beside visible passes of other shapes, so its orbit stage has no pass to
# sample.
@example(passes=[
    (2.5e6, 2.0e5, 60.0, 0, 0.998), (1.0e6, 1.5e6, 80.0, 1, 0.95),
    (4.0e6, 2.0e5, 60.0, 2, 1.0), (1.0e5, 2.0e5, 89.9, 0, 0.998),
])
def test_pass_bits_do_not_depend_on_batch(passes, channel):
    # Every pass's aggregates or status are those it has alone, bit for bit,
    # whatever other shapes, channels and sources share its batch.  Each
    # pass gets its own geometry and channel objects, so equal values are
    # grouped by value.
    geoms, channels, fidelities, links = [], [], [], []
    for link, altitude, zenith_deg, variant, fidelity in passes:
        transmittance, waist, radius = MIXED_CHANNELS[variant]
        geoms.append(OrbitGeometry(
            altitude_m=altitude, link_length_m=1.0, max_zenith_rad=math.radians(zenith_deg)
        ))
        channels.append(dataclasses.replace(
            channel, zenith_transmittance=transmittance, beam_waist_m=waist,
            receiver_radius_m=radius,
        ))
        fidelities.append(fidelity)
        links.append(link)
    batch = converged_aggregates(geoms, channels, fidelities, links)
    backwards = converged_aggregates(geoms[::-1], channels[::-1], fidelities[::-1], links[::-1])
    assert backwards[::-1] == batch
    for i, got in enumerate(batch):
        alone = converged_aggregates([geoms[i]], [channels[i]], [fidelities[i]], [links[i]])
        assert [got] == alone
        if isinstance(got, FlybyAggregates):
            single = dataclasses.replace(geoms[i], link_length_m=links[i])
            assert got == pass_aggregates(single, channels[i], fidelities[i])


def test_large_batches_converge_in_bounded_parts(channel, monkeypatch):
    # Past _BATCH_PASSES passes a batch is converged in parts of that size,
    # which, since a pass's bits do not depend on its batch, changes nothing.
    geom, params = make_geom(1.5e6, 1.0), [channel, dataclasses.replace(channel)] * 3
    links = [1.0e6, 2.5e6, 2.1e7, 3.0e6, 5.0e5, 4.0e6]
    geoms, fidelities = [geom] * len(links), [0.998] * len(links)
    whole = converged_aggregates(geoms, params, fidelities, links)
    calls = []
    batch = flyby.converged_aggregates

    def counted(*args, **kwargs):
        calls.append(len(args[3]))
        return batch(*args, **kwargs)

    monkeypatch.setattr(flyby, "converged_aggregates", counted)
    monkeypatch.setattr(flyby, "_BATCH_PASSES", 4)
    assert counted(geoms, params, fidelities, links) == whole
    assert calls == [6, 4, 2]
