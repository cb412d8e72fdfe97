import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satrep import flyby, repeater
from satrep.channel import NoResultError
from satrep.config import load_scenario
from satrep.flyby import (
    FlybyAggregates, QuadratureError, converged_aggregates, pass_aggregates,
)
from satrep.orbit import OrbitGeometry
from satrep.repeater import (
    Chain,
    RepeaterConfig,
    distance_sweep,
    evaluate,
    evaluate_with_aggregates,
    pairs_per_flyby,
)


EDGE_FIDELITIES = st.sampled_from([0.0, 1e-300, 0.25, 1.0]) | st.floats(0.0, 1.0)
EDGE_RATES = st.sampled_from([0.0, 1e-300, 1.0, 1e300]) | st.floats(0.0, 1e300)


def config_for(baseline, l_total_m, n_levels, detector_exponent=1):
    link = l_total_m / 2**n_levels
    geom = dataclasses.replace(baseline.geometry, link_length_m=link)
    return RepeaterConfig(
        geometry=geom,
        channel=baseline.channel,
        source=baseline.source,
        node=baseline.node,
        n_levels=n_levels,
        gate_efficiency=baseline.gate_efficiency,
        detector_exponent=detector_exponent,
    )


# (altitude_m, L_total_m, n_levels, detector_exponent) ->
#     (pairs_per_flyby, fidelity_final, elementary_time_or_None)
# Frozen from the analytic pipeline at convergence rtol 1e-6; the quadrature
# underneath reproduces an adaptive reference to ~1e-13, so 1e-8 is roomy.
FROZEN_RUNS = {
    (1.5e6, 1.0e7, 2, 1): (2517.402952786971, 0.8861435190168458, 0.16965238443002756),
    (1.5e6, 2.0e7, 2, 1): (181.82035467600267, 0.7722770574742003, 1.4767853415035281),
    (1.5e6, 2.0e7, 3, 1): (1678.2686351913137, 0.7744457259755271, None),
    (1.0e6, 2.0e7, 3, 1): (2213.09707422534, 0.7957006332276526, 0.08736364518473257),
    (1.5e6, 1.0e7, 3, 1): (4089.010309165106, 0.801423125010243, 0.07446911322675001),
    (1.5e6, 1.0e7, 2, 2): (2265.662657508274, 0.8850635630431122, None),
    (1.5e6, 2.0e7, 2, 2): (163.63831920840238, 0.7643371519783909, None),
    (1.0e6, 2.0e7, 3, 2): (1991.7873668028058, 0.7943882303686116, None),
}


def swap_of(cfg, n_levels, gate_efficiency=1.0):
    return Chain(dataclasses.replace(cfg, gate_efficiency=gate_efficiency), n_levels).swap


def fidelity_levels(cfg, agg):
    return Chain(cfg).evaluate(agg)[4]


class TestSwapProbability:
    def test_frozen_values(self, baseline_cfg):
        assert swap_of(baseline_cfg, 0) == 1.0
        assert swap_of(baseline_cfg, 1) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert swap_of(baseline_cfg, 3, 0.995) == pytest.approx(
            0.291874037037037, rel=1e-14
        )

    def test_gate_efficiency_enters_per_level(self, baseline_cfg):
        assert swap_of(baseline_cfg, 4, 0.9) == pytest.approx(
            swap_of(baseline_cfg, 4) * 0.9**4, rel=1e-14
        )

    def test_rejections(self, baseline_cfg):
        # The gate efficiency is checked by RepeaterConfig (TestEvaluate); a
        # depth passed apart from the config is checked here.
        with pytest.raises(ValueError, match="nesting depth"):
            Chain(baseline_cfg, -1)
        with pytest.raises(ValueError, match="nesting depth"):
            distance_sweep([baseline_cfg], [1.0e7], levels=[-1])


class TestRateComposition:
    def test_rate_is_exact_product(self, baseline_cfg, baseline_agg):
        cfg = baseline_cfg
        expected = (
            cfg.source.repetition_rate_hz
            * cfg.source.emission_efficiency
            * baseline_agg.p0
            * cfg.node.caps_success_probability
            * cfg.node.detection_efficiency**cfg.detector_exponent
            * ((2.0 / 3.0) * cfg.gate_efficiency) ** cfg.n_levels
        )
        mux = cfg.source.multiplexing_channels * cfg.source.demux_efficiency**2
        assert Chain(cfg).evaluate(baseline_agg)[0] == mux * expected

    def test_multiplexing_scales_by_channels_and_demux(self, baseline_cfg, baseline_agg):
        source = dataclasses.replace(
            baseline_cfg.source, multiplexing_channels=1, demux_efficiency=1.0
        )
        single = Chain(dataclasses.replace(baseline_cfg, source=source)).evaluate(baseline_agg)
        muxed = Chain(baseline_cfg).evaluate(baseline_agg)
        assert muxed[0] == (
            baseline_cfg.source.multiplexing_channels
            * baseline_cfg.source.demux_efficiency**2
            * single[0]
        )

    def test_detector_exponent_two_divides_by_eta_d(self, baseline, baseline_agg):
        cfg1 = config_for(baseline.repeater, 1.0e7, 2, detector_exponent=1)
        cfg2 = config_for(baseline.repeater, 1.0e7, 2, detector_exponent=2)
        agg = pass_aggregates(cfg1.geometry, cfg1.channel, cfg1.source.pair_fidelity)
        assert Chain(cfg2).evaluate(agg)[0] == pytest.approx(
            Chain(cfg1).evaluate(agg)[0] * cfg1.node.detection_efficiency, rel=1e-15
        )

    def test_direct_transmission_frozen(self, baseline):
        cfg = dataclasses.replace(
            baseline.repeater,
            geometry=dataclasses.replace(baseline.repeater.geometry, link_length_m=2.0e6),
        )
        agg = pass_aggregates(cfg.geometry, cfg.channel, cfg.source.pair_fidelity)
        assert Chain(cfg).rate_direct(agg.p0) == pytest.approx(
            2351.4584212640534, rel=1e-8
        )


class TestFidelityRecursion:
    def test_depth_zero_is_elementary_link(self, baseline, baseline_agg):
        cfg = dataclasses.replace(baseline.repeater, n_levels=0)
        levels = Chain(cfg).evaluate(baseline_agg)[4]
        assert len(levels) == 1
        expected = (4.0 * baseline_agg.f_pair_avg * cfg.node.caps_fidelity - 1.0) / 3.0
        assert levels[0] == pytest.approx(expected, rel=1e-15)

    def test_each_level_decreases_fidelity(self, baseline_cfg, baseline_agg):
        levels = Chain(baseline_cfg).evaluate(baseline_agg)[4]
        assert len(levels) == baseline_cfg.n_levels + 1
        assert all(b < a for a, b in zip(levels, levels[1:]))

    def test_recursion_matches_hand_rolled_step(self, baseline_cfg, baseline_agg):
        cfg = baseline_cfg
        chain = Chain(cfg)
        _, _, t0, _, levels = chain.evaluate(baseline_agg)
        gamma_s = cfg.node.spin_decoherence_rate_hz
        gate = cfg.node.rydberg_gate_fidelity * cfg.node.readout_fidelity**2
        f = levels[0]
        for k in range(1, cfg.n_levels + 1):
            t_k = 0.5 * 1.5 ** (k - 1) * t0
            f = gate * (0.25 + (f - 0.25) * math.exp(-gamma_s * t_k)) * f
            assert levels[k] == pytest.approx(f, rel=1e-14)

    def test_waiting_time_halves_t0_at_level_one(self, baseline_cfg, baseline_agg):
        _, _, t0, waits, _ = Chain(baseline_cfg, 3).evaluate(baseline_agg)
        assert waits[0] == 0.5 * t0
        assert waits[2] == 1.125 * t0


def written_out(cfg, agg):
    """(rate, pairs, T0, waits, levels) from the formulas, each product in
    Python's left-to-right order."""
    source, node, n = cfg.source, cfg.node, cfg.n_levels
    detection = node.detection_efficiency**cfg.detector_exponent
    swap = ((2.0 / 3.0) * cfg.gate_efficiency) ** n
    rate = (source.multiplexing_channels * source.demux_efficiency**2) * (
        source.repetition_rate_hz * source.emission_efficiency * agg.p0
        * node.caps_success_probability * detection * swap
    )
    herald = (
        source.demux_efficiency**2 * source.emission_efficiency * agg.p0
        * node.caps_success_probability * detection
    )
    t0 = 1.0 / (source.multiplexing_channels * source.repetition_rate_hz) / herald
    waits = [0.5 * 1.5 ** (k - 1) * t0 for k in range(1, n + 1)]
    gate = node.rydberg_gate_fidelity * node.readout_fidelity**2
    f = (4.0 * agg.f_pair_avg * node.caps_fidelity - 1.0) / 3.0
    levels = [f]
    for wait in waits:
        decay = math.exp(-node.spin_decoherence_rate_hz * wait)
        f = gate * (0.25 + (f - 0.25) * decay) * f
        levels.append(f)
    return rate, rate * agg.flyby_duration_s, t0, waits, levels


class TestChainEvaluate:
    # Every factor off its default, one case each for the detector
    # exponent, the gate efficiency and the decay rate.
    @pytest.mark.parametrize("overrides", [
        (),
        ("repeater.detector_exponent=2",),
        ("repeater.gate_efficiency=0.93", "repeater.nesting_levels=3"),
        ("node.spin_decoherence_rate_hz=0",),
        (
            "node.caps_success_probability=0.55",
            "node.caps_fidelity=0.97",
            "node.rydberg_gate_fidelity=0.985",
            "node.readout_fidelity=0.993",
            "node.detection_efficiency=0.7",
            "node.spin_decoherence_rate_hz=0.8",
            "source.repetition_rate_hz=3.7e6",
            "source.multiplexing_channels=37",
            "source.demux_efficiency=0.81",
            "repeater.gate_efficiency=0.93",
            "repeater.detector_exponent=2",
            "repeater.nesting_levels=4",
        ),
    ])
    def test_bit_for_bit_with_written_out_formulas(self, overrides, baseline_agg):
        cfg = load_scenario(None, overrides).repeater
        assert Chain(cfg).evaluate(baseline_agg) == written_out(cfg, baseline_agg)

    def test_zero_herald_rate_raises(self, baseline_cfg, baseline_agg):
        node = dataclasses.replace(baseline_cfg.node, caps_success_probability=0.0)
        chain = Chain(dataclasses.replace(baseline_cfg, node=node))
        with pytest.raises(NoResultError, match="no heralding") as exc:
            chain.evaluate(baseline_agg)
        assert exc.value.status == "zero_herald_rate"

    def test_no_decay_survives_an_infinite_wait(self, baseline_cfg, baseline_agg):
        # At gamma_s = 0 an overflowing T0 leaves every level undecayed,
        # where -0 * inf in the exponent would make it NaN.
        node = dataclasses.replace(baseline_cfg.node, spin_decoherence_rate_hz=0.0)
        cfg = dataclasses.replace(baseline_cfg, node=node)
        agg = dataclasses.replace(baseline_agg, p0=1e-300)
        source = dataclasses.replace(
            cfg.source, repetition_rate_hz=1e-306, multiplexing_channels=1
        )
        _, _, t0, waits, levels = Chain(dataclasses.replace(cfg, source=source)).evaluate(agg)
        assert t0 == math.inf and waits == [math.inf] * 2
        gate = node.rydberg_gate_fidelity * node.readout_fidelity**2
        f0 = levels[0]
        assert levels[1] == gate * f0 * f0
        assert all(math.isfinite(f) for f in levels)

    def test_sweep_rows_equal_evaluate_of_their_pass(self):
        cfg = load_scenario(None, ("node.spin_decoherence_rate_hz=0.3",)).repeater
        levels = [1, 2, 3]
        (sweep,) = distance_sweep([cfg], [5.0e6, 1.0e7, 2.0e7, 8.0e7], levels)
        # 8 of the 12 rows are visible: all at 5,000 and 10,000 km, and the
        # 20,000 km ones split into 4 or 8 links.
        ok = 0
        for n, rows in zip(levels, sweep):
            for row in rows:
                if row.aggregates is None:
                    continue
                rate, pairs, t0, _, fidelities = Chain(cfg, n).evaluate(row.aggregates)
                assert (row.rate_hz, row.pairs_per_flyby) == (rate, pairs)
                assert (row.elementary_time_s, row.fidelity_per_level) == (t0, fidelities)
                ok += 1
        assert ok == 8


class TestFidelityBound:
    # The bound Chain.evaluate's docstring derives, which lets it skip any
    # per-level check.  P0 sets T0 (from a few ns to about 1e292 s at the
    # baseline slot), so gamma_s * T_k spans 0 to inf.
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        f_pair=EDGE_FIDELITIES,
        caps=EDGE_FIDELITIES,
        gate=EDGE_FIDELITIES,
        readout=EDGE_FIDELITIES,
        gamma_s=EDGE_RATES,
        p0=st.sampled_from([1e-300, 1.0]) | st.floats(1e-300, 1.0),
        depth=st.integers(0, 8),
    )
    def test_levels_stay_within_bound(
        self, baseline_cfg, f_pair, caps, gate, readout, gamma_s, p0, depth
    ):
        node = dataclasses.replace(
            baseline_cfg.node,
            caps_fidelity=caps,
            rydberg_gate_fidelity=gate,
            readout_fidelity=readout,
            spin_decoherence_rate_hz=gamma_s,
        )
        cfg = dataclasses.replace(baseline_cfg, node=node, n_levels=depth)
        agg = FlybyAggregates(p0=p0, f_pair_avg=f_pair, flyby_duration_s=100.0)
        levels = fidelity_levels(cfg, agg)
        assert len(levels) == depth + 1
        assert -1.0 / 3.0 <= levels[0] <= 1.0
        assert all(-1.0 / 12.0 <= f <= 1.0 for f in levels[1:])

    def test_floor_is_reached(self, baseline_cfg):
        # F_0 = -1/3 decays fully to 1/4 before a perfect swap: -1/12.
        node = dataclasses.replace(
            baseline_cfg.node,
            caps_fidelity=0.0,
            rydberg_gate_fidelity=1.0,
            readout_fidelity=1.0,
            spin_decoherence_rate_hz=1e300,
        )
        cfg = dataclasses.replace(baseline_cfg, node=node, n_levels=1)
        agg = FlybyAggregates(p0=0.5, f_pair_avg=0.5, flyby_duration_s=100.0)
        assert fidelity_levels(cfg, agg) == [-1.0 / 3.0, -1.0 / 12.0]


class TestEvaluate:
    @pytest.mark.parametrize("key", sorted(FROZEN_RUNS))
    def test_frozen_pipeline_outputs(self, key, baseline):
        h, l_total, n, det = key
        pairs, f_final, t0 = FROZEN_RUNS[key]
        template = baseline.repeater
        template = dataclasses.replace(
            template,
            geometry=dataclasses.replace(template.geometry, altitude_m=h),
        )
        cfg = config_for(template, l_total, n, detector_exponent=det)
        result = evaluate(cfg)
        assert result.pairs_per_flyby == pytest.approx(pairs, rel=1e-8)
        assert result.fidelity_final == pytest.approx(f_final, rel=1e-8)
        if t0 is not None:
            assert result.elementary_time_s == pytest.approx(t0, rel=1e-8)

    def test_evaluate_equals_evaluate_with_aggregates(self, baseline_cfg, baseline_agg):
        direct = evaluate(baseline_cfg)
        reused = evaluate_with_aggregates(baseline_cfg, baseline_agg)
        assert direct.rate_hz == reused.rate_hz
        assert direct.fidelity_per_level == reused.fidelity_per_level
        assert direct.waiting_time_per_level == reused.waiting_time_per_level

    def test_result_consistency(self, baseline_cfg, baseline_agg):
        result = evaluate_with_aggregates(baseline_cfg, baseline_agg)
        link = baseline_cfg.geometry.link_length_m
        assert result[:3] == (link, "ok", baseline_agg) and result.visible
        assert result.pairs_per_flyby == result.rate_hz * baseline_agg.flyby_duration_s
        assert result.fidelity_final == result.fidelity_per_level[-1]
        assert len(result.waiting_time_per_level) == baseline_cfg.n_levels
        assert result.waiting_time_per_level[0] == 0.5 * result.elementary_time_s

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_waiting_times_are_the_chains(self, baseline_cfg, baseline_agg, n):
        # Derived from T0 on access, bit for bit what Chain.evaluate computed.
        cfg = dataclasses.replace(baseline_cfg, n_levels=n)
        waits = evaluate_with_aggregates(cfg, baseline_agg).waiting_time_per_level
        assert waits == Chain(cfg).evaluate(baseline_agg)[3] and type(waits) is list
        (direct,) = distance_sweep([cfg], [2.0e6], [0])[0][0]
        assert direct.status == "ok" and direct.waiting_time_per_level is None

    def test_detector_exponent_validation(self, baseline_cfg):
        with pytest.raises(ValueError):
            dataclasses.replace(baseline_cfg, detector_exponent=3)
        with pytest.raises(ValueError):
            dataclasses.replace(baseline_cfg, n_levels=-1)
        with pytest.raises(ValueError):
            dataclasses.replace(baseline_cfg, gate_efficiency=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(baseline_cfg, gate_efficiency=1.1)

    def test_links_and_distance_properties(self, baseline_cfg):
        assert baseline_cfg.n_links == 2**baseline_cfg.n_levels


class TestDistanceSweep:
    def test_rows_follow_visibility(self, baseline_cfg):
        ((rows,),) = distance_sweep([baseline_cfg], [1.0e7, 2.0e7, 8.0e7], [2])
        assert [row.visible for row in rows] == [True, True, False]
        assert [row.status for row in rows] == ["ok", "ok", "no_visibility"]
        assert rows[2].aggregates is None
        assert rows[0].fidelity_per_level is not None
        assert rows[2].fidelity_per_level is None
        assert rows[1].link_length_m == pytest.approx(5.0e6)

    def test_sweep_matches_single_evaluation(self, baseline, baseline_cfg):
        (((row,),),) = distance_sweep([baseline_cfg], [1.0e7], [2])
        single = evaluate(config_for(baseline.repeater, 1.0e7, 2))
        assert row.pairs_per_flyby == pytest.approx(single.pairs_per_flyby, rel=1e-12)

    def test_zero_transmission_is_a_visible_status(self, baseline_cfg):
        channel = dataclasses.replace(baseline_cfg.channel, receiver_radius_m=1e-300)
        cfg = dataclasses.replace(baseline_cfg, channel=channel)
        (((row,),),) = distance_sweep([cfg], [1.0e7], [2])
        assert (row.status, row.visible) == ("zero_transmission", True)
        assert row.aggregates is None and row.fidelity_per_level is None

    def test_zero_herald_rate_keeps_aggregates(self, baseline_cfg):
        node = dataclasses.replace(baseline_cfg.node, caps_success_probability=0.0)
        cfg = dataclasses.replace(baseline_cfg, node=node)
        (((row,),),) = distance_sweep([cfg], [1.0e7], [2])
        assert row.status == "zero_herald_rate"
        assert row.aggregates is not None and row.fidelity_per_level is None

    def test_direct_depth_stops_at_aggregates(self, baseline_cfg):
        # Depth 0 needs no memory herald: no chain is evaluated, even where
        # the chain's herald rate is zero.
        node = dataclasses.replace(baseline_cfg.node, caps_success_probability=0.0)
        cfg = dataclasses.replace(baseline_cfg, node=node)
        (((row,),),) = distance_sweep([cfg], [2.0e6], [0])
        assert row.status == "ok"
        assert row.aggregates is not None and row.fidelity_per_level is None

    def test_cache_is_shared_across_node_parameters(self, baseline_cfg, monkeypatch):
        geometries = []
        post_init = OrbitGeometry.__post_init__

        def counted_geometry(geom):
            geometries.append(geom)
            post_init(geom)

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return converged_aggregates(*args, **kwargs)

        monkeypatch.setattr(OrbitGeometry, "__post_init__", counted_geometry)
        monkeypatch.setattr(repeater, "converged_aggregates", counted)
        node = dataclasses.replace(baseline_cfg.node, caps_fidelity=0.95)
        cfg = dataclasses.replace(baseline_cfg, node=node)
        first, second = distance_sweep([baseline_cfg, cfg], [1.0e7, 8.0e7], levels=[2, 3])
        assert [
            (n, row.link_length_m * 2**n) for n, rows in zip([2, 3], first) for row in rows
        ] == [
            (2, 1.0e7), (2, 8.0e7), (3, 1.0e7), (3, 8.0e7),
        ]
        # One batch holds each distinct pass once, the invisible ones (20,000
        # and 10,000 km links) included, as link lengths of the first
        # config's pass shape, with no geometry of their own; the second
        # config, which differs only in a node parameter, adds none.
        ((geoms, channels, fidelities, links),) = calls
        assert geometries == []
        assert links == [2.5e6, 2.0e7, 1.25e6, 1.0e7]
        assert all(g is baseline_cfg.geometry for g in geoms)
        assert all(c is baseline_cfg.channel for c in channels)
        assert fidelities == [baseline_cfg.source.pair_fidelity] * 4
        statuses = [[row.status for row in rows] for rows in first]
        assert [[row.status for row in rows] for rows in second] == statuses
        assert statuses[0] == ["ok", "no_visibility"]
        assert second[0][0].aggregates is first[0][0].aggregates
        assert second[0][0].fidelity_per_level[-1] < first[0][0].fidelity_per_level[-1]

    @pytest.mark.parametrize(
        "key, values, orbit_calls, channel_calls, pair_calls",
        [
            ("orbit.altitude_m", ("1.2e6", "1.5e6", "1.8e6"), 3, 3, 3),
            ("channel.beam_waist_m", ("0.04", "0.05", "0.06"), 3, 3, 3),
            ("source.pair_fidelity", ("0.95", "0.97", "0.998"), 3, 3, 3),
            ("node.caps_fidelity", ("0.95", "0.97", "0.99"), 1, 1, 1),
        ],
    )
    def test_each_stage_runs_once_per_pass_group(
        self, key, values, orbit_calls, channel_calls, pair_calls, monkeypatch
    ):
        # One quadrature batch per run, whose passes all converge at 64
        # nodes: each stage runs once per pass group (geometry, channel and
        # source fidelity), and configs that differ in a node key share one.
        calls = {"slant_distance": 0, "single_photon_transmission": 0, "pair_fidelity": 0}
        for name in calls:
            original = getattr(flyby, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(flyby, name, counted)
        cfgs = [load_scenario(None, (f"{key}={value}",)).repeater for value in values]
        sweeps = distance_sweep(cfgs, [5.0e6, 1.0e7, 8.0e7], levels=[2, 3])
        assert [[[row.status for row in rows] for rows in sweep] for sweep in sweeps] == [
            [["ok", "ok", "no_visibility"]] * 2
        ] * 3
        assert calls == {
            "slant_distance": orbit_calls,
            "single_photon_transmission": channel_calls,
            "pair_fidelity": pair_calls,
        }

    def test_quadrature_error_of_one_point_ends_the_sweep(self, baseline_cfg, monkeypatch):
        # 1,000 km links converge at 64 nodes and 20,000 km ones are never
        # seen, but the grazing 100 km pass needs 256 nodes.
        geometry = OrbitGeometry(
            altitude_m=2.0e5, link_length_m=1.0e5, max_zenith_rad=math.radians(89.9)
        )
        channel = dataclasses.replace(
            baseline_cfg.channel, zenith_transmittance=0.5, beam_waist_m=0.005
        )
        cfg = dataclasses.replace(baseline_cfg, geometry=geometry, channel=channel)
        ((rows,),) = distance_sweep([cfg], [4.0e6, 8.0e7], [2])
        assert [row.status for row in rows] == ["ok", "no_visibility"]
        monkeypatch.setattr(flyby, "GAUSS_NODES", (32, 64))
        with pytest.raises(QuadratureError, match=r"at link length 100000\.0 m;"):
            distance_sweep([cfg], [4.0e6, 4.0e5, 8.0e7], [2])

    # Non-default values for every factor of the chain formulas.
    NODE_AND_SOURCE = (
        "node.caps_success_probability=0.55",
        "node.caps_fidelity=0.97",
        "node.rydberg_gate_fidelity=0.985",
        "node.readout_fidelity=0.993",
        "node.detection_efficiency=0.7",
        "node.spin_decoherence_rate_hz=0.8",
        "source.repetition_rate_hz=3.7e6",
        "source.multiplexing_channels=37",
        "source.demux_efficiency=0.81",
        "source.direct_repetition_rate_hz=2.2e8",
        "repeater.gate_efficiency=0.93",
        "repeater.detector_exponent=2",
    )

    @pytest.mark.parametrize(
        "overrides, chain_statuses, direct_statuses",
        [
            (NODE_AND_SOURCE, {"ok", "no_visibility"}, {"ok", "no_visibility"}),
            (
                ("channel.receiver_radius_m=1e-300",),
                {"zero_transmission", "no_visibility"},
                {"zero_transmission", "no_visibility"},
            ),
            # A direct entry needs no memory herald.
            (
                ("node.caps_success_probability=0",),
                {"zero_herald_rate", "no_visibility"},
                {"ok", "no_visibility"},
            ),
        ],
    )
    def test_columns_equal_single_point_evaluation(
        self, overrides, chain_statuses, direct_statuses
    ):
        # Bit for bit: each chain entry is evaluate_with_aggregates of the
        # entry's own pass, each direct entry Chain.rate_direct of it, and a pass
        # without aggregates is classified as converging it alone does.
        cfg = load_scenario(None, overrides).repeater
        distances = [2.0e6, 1.0e7, 2.0e7, 8.0e7]
        (sweep,) = distance_sweep([cfg], distances, levels=[0, 1, 2, 3, 4])
        assert [len(rows) for rows in sweep] == [len(distances)] * 5
        seen = {True: set(), False: set()}
        for n, rows in enumerate(sweep):
            chain = dataclasses.replace(cfg, n_levels=n)
            for row, l_total in zip(rows, distances):
                link = l_total / 2**n
                agg, status = row.aggregates, row.status
                entry = (
                    row.rate_hz, row.pairs_per_flyby,
                    row.elementary_time_s, row.fidelity_per_level,
                )
                assert row.link_length_m == link
                seen[n == 0].add(status)
                if agg is None:
                    geom = dataclasses.replace(cfg.geometry, link_length_m=link)
                    with pytest.raises(NoResultError) as exc:
                        pass_aggregates(geom, cfg.channel, cfg.source.pair_fidelity)
                    assert status == exc.value.status
                    assert entry == (None, None, None, None)
                elif n == 0:
                    rate_hz = Chain(cfg).rate_direct(agg.p0)
                    assert status == "ok"
                    assert entry == (
                        rate_hz, pairs_per_flyby(rate_hz, agg.flyby_duration_s), None, None
                    )
                elif status == "zero_herald_rate":
                    with pytest.raises(NoResultError, match="no heralding"):
                        evaluate_with_aggregates(chain, agg)
                    assert entry == (None, None, None, None)
                else:
                    result = evaluate_with_aggregates(chain, agg)
                    assert status == "ok"
                    assert entry == (
                        result.rate_hz,
                        result.pairs_per_flyby,
                        result.elementary_time_s,
                        result.fidelity_per_level,
                    )
                    assert row == result._replace(link_length_m=link)
                    assert len(entry[3]) == n + 1
        assert seen == {False: chain_statuses, True: direct_statuses}

    def test_sweep_rejects_nonpositive_distance(self, baseline_cfg):
        with pytest.raises(ValueError):
            distance_sweep([baseline_cfg], [1.0e7, 0.0], [2])
