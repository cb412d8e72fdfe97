import dataclasses
import math

import pytest

from satrep.flyby import converged_aggregates
from satrep.repeater import (
    RepeaterConfig,
    distance_sweep,
    elementary_time,
    evaluate,
    evaluate_with_aggregates,
    final_fidelity,
    rate,
    rate_direct,
    rate_multiplexed,
    swap_probability,
    waiting_time,
)


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


class TestSwapProbability:
    def test_frozen_values(self):
        assert swap_probability(0) == 1.0
        assert swap_probability(1) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert swap_probability(3, 0.995) == pytest.approx(0.291874037037037, rel=1e-14)

    def test_gate_efficiency_enters_per_level(self):
        assert swap_probability(4, 0.9) == pytest.approx(
            swap_probability(4) * 0.9**4, rel=1e-14
        )

    def test_rejections(self):
        with pytest.raises(ValueError):
            swap_probability(-1)
        with pytest.raises(ValueError):
            swap_probability(2, 0.0)
        with pytest.raises(ValueError):
            swap_probability(2, 1.1)


class TestRateComposition:
    def test_rate_is_exact_product(self, baseline_cfg, baseline_agg):
        cfg = baseline_cfg
        expected = (
            cfg.source.repetition_rate_hz
            * cfg.source.emission_efficiency
            * baseline_agg.p0
            * cfg.node.caps_success_probability
            * cfg.node.detection_efficiency**cfg.detector_exponent
            * swap_probability(cfg.n_levels, cfg.gate_efficiency)
        )
        assert rate(cfg, baseline_agg) == expected

    def test_multiplexing_scales_by_channels_and_demux(self, baseline_cfg, baseline_agg):
        single = rate(baseline_cfg, baseline_agg)
        muxed = rate_multiplexed(baseline_cfg, baseline_agg)
        assert muxed == (
            baseline_cfg.source.multiplexing_channels
            * baseline_cfg.source.demux_efficiency**2
            * single
        )

    def test_detector_exponent_two_divides_by_eta_d(self, baseline, baseline_agg):
        cfg1 = config_for(baseline.repeater_config(), 1.0e7, 2, detector_exponent=1)
        cfg2 = config_for(baseline.repeater_config(), 1.0e7, 2, detector_exponent=2)
        agg = converged_aggregates(cfg1.geometry, cfg1.channel, cfg1.source.pair_fidelity)
        assert rate(cfg2, agg) == pytest.approx(
            rate(cfg1, agg) * cfg1.node.detection_efficiency, rel=1e-15
        )

    def test_direct_transmission_frozen(self, baseline):
        cfg = dataclasses.replace(
            baseline.repeater_config(),
            geometry=dataclasses.replace(baseline.geometry, link_length_m=2.0e6),
        )
        agg = converged_aggregates(cfg.geometry, cfg.channel, cfg.source.pair_fidelity)
        assert rate_direct(cfg, agg) == pytest.approx(2351.4584212640534, rel=1e-8)


class TestFidelityRecursion:
    def test_depth_zero_is_elementary_link(self, baseline, baseline_agg):
        cfg = dataclasses.replace(baseline.repeater_config(), n_levels=0)
        levels = final_fidelity(cfg, baseline_agg)
        assert len(levels) == 1
        expected = (4.0 * baseline_agg.f_pair_avg * cfg.node.caps_fidelity - 1.0) / 3.0
        assert levels[0] == pytest.approx(expected, rel=1e-15)

    def test_each_level_decreases_fidelity(self, baseline_cfg, baseline_agg):
        levels = final_fidelity(baseline_cfg, baseline_agg)
        assert len(levels) == baseline_cfg.n_levels + 1
        assert all(b < a for a, b in zip(levels, levels[1:]))

    def test_recursion_matches_hand_rolled_step(self, baseline_cfg, baseline_agg):
        cfg = baseline_cfg
        levels = final_fidelity(cfg, baseline_agg)
        t0 = elementary_time(cfg, baseline_agg)
        gamma_s = cfg.node.spin_decoherence_rate_hz
        gate = cfg.node.rydberg_gate_fidelity * cfg.node.readout_fidelity**2
        f = levels[0]
        for k in range(1, cfg.n_levels + 1):
            t_k = 0.5 * 1.5 ** (k - 1) * t0
            f = gate * (0.25 + (f - 0.25) * math.exp(-gamma_s * t_k)) * f
            assert levels[k] == pytest.approx(f, rel=1e-14)

    def test_waiting_time_halves_t0_at_level_one(self):
        assert waiting_time(1, 0.5) == 0.25
        assert waiting_time(3, 1.0) == pytest.approx(0.5 * 2.25, rel=1e-15)
        with pytest.raises(ValueError):
            waiting_time(0, 1.0)


class TestEvaluate:
    @pytest.mark.parametrize("key", sorted(FROZEN_RUNS))
    def test_frozen_pipeline_outputs(self, key, baseline):
        h, l_total, n, det = key
        pairs, f_final, t0 = FROZEN_RUNS[key]
        template = baseline.repeater_config()
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
        assert result.pairs_per_flyby == result.rate_hz * baseline_agg.flyby_duration_s
        assert result.fidelity_final == result.fidelity_per_level[-1]
        assert len(result.waiting_time_per_level) == baseline_cfg.n_levels
        assert result.waiting_time_per_level[0] == 0.5 * result.elementary_time_s

    def test_detector_exponent_validation(self, baseline_cfg):
        with pytest.raises(ValueError):
            dataclasses.replace(baseline_cfg, detector_exponent=3)
        with pytest.raises(ValueError):
            dataclasses.replace(baseline_cfg, n_levels=-1)
        with pytest.raises(ValueError):
            dataclasses.replace(baseline_cfg, gate_efficiency=0.0)

    def test_links_and_distance_properties(self, baseline_cfg):
        assert baseline_cfg.n_links == 2**baseline_cfg.n_levels
        assert baseline_cfg.total_distance_m == (
            baseline_cfg.n_links * baseline_cfg.geometry.link_length_m
        )


class TestDistanceSweep:
    def test_rows_follow_visibility(self, baseline_cfg):
        points = distance_sweep(baseline_cfg, [1.0e7, 2.0e7, 8.0e7])
        assert [p.visible for p in points] == [True, True, False]
        assert [p.status for p in points] == ["ok", "ok", "no_visibility"]
        assert points[2].aggregates is None
        assert points[0].result is not None
        assert points[2].result is None
        assert points[1].link_length_m == pytest.approx(5.0e6)

    def test_sweep_matches_single_evaluation(self, baseline, baseline_cfg):
        (point,) = distance_sweep(baseline_cfg, [1.0e7])
        single = evaluate(config_for(baseline.repeater_config(), 1.0e7, 2))
        assert point.result.pairs_per_flyby == pytest.approx(
            single.pairs_per_flyby, rel=1e-12
        )

    def test_zero_transmission_is_a_visible_status(self, baseline_cfg):
        channel = dataclasses.replace(baseline_cfg.channel, receiver_radius_m=1e-300)
        cfg = dataclasses.replace(baseline_cfg, channel=channel)
        (point,) = distance_sweep(cfg, [1.0e7])
        assert (point.status, point.visible) == ("zero_transmission", True)
        assert point.aggregates is None and point.result is None

    def test_zero_herald_rate_keeps_aggregates(self, baseline_cfg):
        node = dataclasses.replace(baseline_cfg.node, caps_success_probability=0.0)
        cfg = dataclasses.replace(baseline_cfg, node=node)
        (point,) = distance_sweep(cfg, [1.0e7])
        assert point.status == "zero_herald_rate"
        assert point.aggregates is not None and point.result is None

    def test_direct_depth_stops_at_aggregates(self, baseline_cfg):
        # Depth 0 needs no memory herald: no chain is evaluated, even where
        # the chain's herald rate is zero.
        node = dataclasses.replace(baseline_cfg.node, caps_success_probability=0.0)
        cfg = dataclasses.replace(baseline_cfg, node=node)
        (point,) = distance_sweep(cfg, [2.0e6], levels=[0])
        assert point.status == "ok"
        assert point.aggregates is not None and point.result is None

    def test_cache_is_shared_across_node_parameters(self, baseline_cfg):
        cache = {}
        first = distance_sweep(baseline_cfg, [1.0e7, 8.0e7], cache, levels=[2, 3])
        assert [(p.n_levels, p.l_total_m) for p in first] == [
            (2, 1.0e7), (2, 8.0e7), (3, 1.0e7), (3, 8.0e7),
        ]
        assert len(cache) == 2  # failures are not cached
        node = dataclasses.replace(baseline_cfg.node, caps_fidelity=0.95)
        second = distance_sweep(
            dataclasses.replace(baseline_cfg, node=node), [1.0e7], cache
        )
        assert second[0].aggregates is first[0].aggregates
        assert second[0].result.fidelity_final < first[0].result.fidelity_final

    def test_sweep_rejects_nonpositive_distance(self, baseline_cfg):
        with pytest.raises(ValueError):
            distance_sweep(baseline_cfg, [1.0e7, 0.0])
