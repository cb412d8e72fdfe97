import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from satrep.flyby import build_profile
from satrep.mc_oracle import (
    _BLOCK_TRIALS,
    ChainEstimates,
    McConfig,
    McEstimate,
    McTolerances,
    _block_rng,
    _event_times,
    _merge_tree,
    _time_resolved_trial,
    compare_report,
    simulate_chain,
    simulate_link,
)
from satrep.node import werner_fidelity_decay
from satrep.repeater import evaluate_with_aggregates, herald_probability, swap_probability


@pytest.fixture(scope="module")
def analytic(baseline_cfg, baseline_agg):
    return evaluate_with_aggregates(baseline_cfg, baseline_agg)


def reference_merge_tree(times, f0, gate_factor, gamma_s):
    """Reference one-trial merge tree: argmin picks the earlier child, index 0
    on a tie."""
    t = times
    f = np.full(times.shape, f0)
    gaps = []
    while t.size > 1:
        t = t.reshape(-1, 2)
        f = f.reshape(-1, 2)
        rows = np.arange(t.shape[0])
        early = t.argmin(axis=1)
        late = 1 - early
        gap = t[rows, late] - t[rows, early]
        decayed = 0.25 + (f[rows, early] - 0.25) * np.exp(-gamma_s * gap)
        f = gate_factor * decayed * f[rows, late]
        t = t[rows, late]
        gaps.append(gap)
    return float(f[0]), gaps


def hazard_grid(profile, slot_s, p_scale):
    """Cumulative herald hazard on the profile grid, as simulate_chain builds it."""
    q = np.clip(p_scale * profile.eta2_tr, 0.0, 1.0 - 1e-15)
    rate = -np.log1p(-q) / slot_s
    return np.concatenate(
        ([0.0], np.cumsum(np.diff(profile.times_s) * (rate[1:] + rate[:-1]) / 2.0))
    )


def reference_time_resolved_trial(rng, profile, rep_cfg, p_swap, slot_s, p_scale):
    """Reference time-resolved flyby: per cascade, one searchsorted per leaf
    and one scalar uniform."""
    hazard = hazard_grid(profile, slot_s, p_scale)
    t_fb = profile.flyby_duration_s
    n_leaves = rep_cfg.n_links
    events = [
        _event_times(rng, profile.times_s, hazard, slot_s, t_fb)
        for _ in range(n_leaves)
    ]
    pairs = 0.0
    first_cycle = None
    now = 0.0
    while True:
        leaf_times = np.empty(n_leaves)
        truncated = False
        for i, ev in enumerate(events):
            idx = int(np.searchsorted(ev, now, side="right"))
            if idx >= ev.size:
                truncated = True
                break
            leaf_times[i] = ev[idx]
        if truncated:
            break
        if first_cycle is None:
            first_cycle = leaf_times.copy()
        if rng.random() < p_swap:
            pairs += 1.0
        now = float(leaf_times.max())
    return pairs, first_cycle


def unit_gate_chain(baseline_cfg):
    """Baseline chain with perfect gates and no memory decay: the Monte Carlo
    fidelity then reproduces the analytic recursion bit for bit."""
    node = dataclasses.replace(
        baseline_cfg.node,
        rydberg_gate_fidelity=1.0,
        readout_fidelity=1.0,
        spin_decoherence_rate_hz=0.0,
    )
    return dataclasses.replace(baseline_cfg, node=node)


class TestMcEstimate:
    def test_empty_sample(self):
        est = McEstimate.from_samples(np.array([]))
        assert math.isnan(est.mean) and math.isnan(est.std_err) and est.n == 0

    def test_single_sample_has_no_error_bar(self):
        est = McEstimate.from_samples(np.array([0.7]))
        assert est.mean == 0.7 and math.isnan(est.std_err) and est.n == 1

    def test_point_mass_sample_is_exact(self):
        value = 0.9780332307422507
        est = McEstimate.from_samples(np.full(1000, value))
        assert est.mean == value  # bitwise, not approx
        assert est.std_err == 0.0

    def test_general_sample_matches_textbook_formula(self):
        est = McEstimate.from_samples(np.array([1.0, 2.0, 3.0]))
        assert est.mean == 2.0
        assert est.std_err == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)


class TestSimulateLink:
    def test_certain_success_takes_one_slot(self):
        rng = _block_rng(0, 0)
        times = simulate_link(1.0, 1e-9, rng, size=1000)
        assert np.all(times == 1e-9)

    def test_mean_matches_geometric_expectation(self):
        rng = _block_rng(0, 42)
        p, slot = 3e-4, 2e-9
        times = simulate_link(p, slot, rng, size=1_000_000)
        expected = slot / p
        stderr = times.std(ddof=1) / math.sqrt(times.size)
        assert abs(times.mean() - expected) < 3.0 * stderr

    def test_streams_differ_across_trial_indices(self):
        a = simulate_link(1e-3, 1.0, _block_rng(0, 9), size=100)
        b = simulate_link(1e-3, 1.0, _block_rng(1, 9), size=100)
        assert not np.array_equal(a, b)

    def test_rejections(self):
        rng = _block_rng(0, 0)
        with pytest.raises(ValueError):
            simulate_link(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            simulate_link(1.5, 1.0, rng)
        with pytest.raises(ValueError):
            simulate_link(0.5, 0.0, rng)


class TestMergeTree:
    def test_two_leaves_match_scalar_decay_law(self):
        f0, gamma_s, gate = 0.97, 0.05, 0.99
        for times in ([1.0, 4.0], [4.0, 1.0]):
            final, gaps = _merge_tree(np.array(times), f0, gate, gamma_s)
            decayed = werner_fidelity_decay(f0, gamma_s, 3.0)
            assert final == pytest.approx(gate * decayed * f0, rel=1e-15)
            assert len(gaps) == 1
            assert gaps[0][0] == pytest.approx(3.0, rel=1e-15)

    def test_four_leaves_gap_bookkeeping(self):
        times = np.array([1.0, 2.0, 7.0, 3.0])
        _, gaps = _merge_tree(times, 0.9, 1.0, 0.0)
        assert [g.tolist() for g in gaps] == [[1.0, 4.0], [5.0]]

    def test_no_decay_collapses_to_pure_powers(self):
        final, _ = _merge_tree(np.array([1.0, 5.0, 2.0, 8.0]), 0.9, 1.0, 0.0)
        assert final == pytest.approx(0.9**4, rel=1e-14)

    @pytest.mark.parametrize("n_leaves", [2, 4, 8])
    def test_batched_rows_equal_one_row_calls(self, n_leaves):
        # Few distinct small times, so many pairs tie at every level.
        times = _block_rng(0, 21).integers(1, 4, size=(200, n_leaves)).astype(float)
        assert np.any(times[:, 0::2] == times[:, 1::2])
        final, gaps = _merge_tree(times, 0.97, 0.99, 0.05)
        assert final.shape == (200,)
        for row in range(times.shape[0]):
            one, one_gaps = _merge_tree(times[row], 0.97, 0.99, 0.05)
            ref, ref_gaps = reference_merge_tree(times[row], 0.97, 0.99, 0.05)
            assert final[row].tobytes() == one.tobytes() == np.float64(ref).tobytes()
            assert len(gaps) == len(one_gaps) == len(ref_gaps)
            for g, g_one, g_ref in zip(gaps, one_gaps, ref_gaps):
                assert g[row].tobytes() == g_one.tobytes() == g_ref.tobytes()


class TestConstantP:
    def test_report_is_deterministic_and_seed_sensitive(self, baseline_cfg, baseline_agg, analytic):
        cfg = McConfig(trials=500, seed=11)
        first = compare_report(analytic, simulate_chain(cfg, baseline_cfg, baseline_agg))
        second = compare_report(analytic, simulate_chain(cfg, baseline_cfg, baseline_agg))
        assert first.to_json() == second.to_json()
        other = simulate_chain(McConfig(trials=500, seed=12), baseline_cfg, baseline_agg)
        assert other.pairs.mean != first.entries[0].mc_mean

    def test_pairs_and_link_time_within_z_band(self, baseline_cfg, baseline_agg, analytic):
        mc = simulate_chain(McConfig(trials=5000, seed=1), baseline_cfg, baseline_agg)
        report = compare_report(analytic, mc)
        by_name = {e.quantity: e for e in report.entries}
        assert abs(by_name["pairs_per_flyby"].z) <= 3.0
        assert by_name["pairs_per_flyby"].passed
        assert abs(by_name["elementary_time_s"].z) <= 3.0
        assert by_name["elementary_time_s"].passed
        # finite decay rate: fidelity graded by relative error, not z
        assert by_name["fidelity_final"].passed

    def test_unit_gate_fidelity_is_bitwise_deterministic(self, baseline_cfg, baseline_agg):
        chain = unit_gate_chain(baseline_cfg)
        an = evaluate_with_aggregates(chain, baseline_agg)
        mc = simulate_chain(McConfig(trials=1000, seed=3), chain, baseline_agg)
        assert mc.fidelity.mean == an.fidelity_final
        assert mc.fidelity.std_err == 0.0
        entry = {e.quantity: e for e in compare_report(an, mc).entries}["fidelity_final"]
        assert entry.z == 0.0 and entry.passed

    def test_level_one_gap_matches_exponential_difference(self, baseline_cfg, baseline_agg, analytic):
        # mean |A - B| of two iid (near-)exponential heralding times is T0
        mc = simulate_chain(McConfig(trials=2000, seed=5), baseline_cfg, baseline_agg)
        gap = mc.gap_by_level[0]
        assert abs(gap.mean - analytic.elementary_time_s) <= 4.0 * gap.std_err

    def test_gap_sample_counts_follow_tree_shape(self, baseline_cfg, baseline_agg):
        mc = simulate_chain(McConfig(trials=150, seed=4), baseline_cfg, baseline_agg)
        assert mc.gap_by_level[0].n == 300
        assert mc.gap_by_level[1].n == 150

    def test_stderr_shrinks_like_root_n(self, baseline_cfg, baseline_agg):
        small = simulate_chain(McConfig(trials=1000, seed=7), baseline_cfg, baseline_agg)
        big = simulate_chain(McConfig(trials=4000, seed=7), baseline_cfg, baseline_agg)
        ratio = small.pairs.std_err / big.pairs.std_err
        assert 1.6 < ratio < 2.4

    def test_keep_samples_are_trial_aligned(self, baseline_cfg, baseline_agg):
        mc = simulate_chain(
            McConfig(trials=64, seed=6), baseline_cfg, baseline_agg, keep_samples=True
        )
        assert mc.pairs_samples.shape == (64,)
        assert np.all(np.isfinite(mc.pairs_samples))
        assert mc.fidelity_samples.shape == (64,)

    def test_runs_are_prefixes_of_longer_runs(self, baseline_cfg, baseline_agg):
        sizes = (_BLOCK_TRIALS - 1, _BLOCK_TRIALS, _BLOCK_TRIALS + 1, 2 * _BLOCK_TRIALS + 3)
        runs = [
            simulate_chain(
                McConfig(trials=n, seed=9), baseline_cfg, baseline_agg, keep_samples=True
            )
            for n in sizes
        ]
        longest = runs[-1]
        for run in runs[:-1]:
            n = run.trials
            assert run.pairs_samples.tobytes() == longest.pairs_samples[:n].tobytes()
            assert run.fidelity_samples.tobytes() == longest.fidelity_samples[:n].tobytes()

    def test_requires_at_least_one_level(self, baseline_cfg, baseline_agg):
        flat = dataclasses.replace(baseline_cfg, n_levels=0)
        with pytest.raises(ValueError):
            simulate_chain(McConfig(trials=10, seed=0), flat, baseline_agg)


class TestTimeResolved:
    def test_sits_below_constant_p_but_completes(self, baseline_cfg, baseline_agg, analytic):
        mc = simulate_chain(
            McConfig(trials=50, seed=2, time_model="time-resolved"),
            baseline_cfg,
            baseline_agg,
        )
        assert mc.completed_fraction == 1.0
        assert 0.0 < mc.pairs.mean < analytic.pairs_per_flyby

    def test_deterministic_under_fixed_seed(self, baseline_cfg, baseline_agg):
        cfg = McConfig(trials=10, seed=2, time_model="time-resolved")
        a = simulate_chain(cfg, baseline_cfg, baseline_agg)
        b = simulate_chain(cfg, baseline_cfg, baseline_agg)
        assert a.pairs.mean == b.pairs.mean
        assert a.fidelity.mean == b.fidelity.mean

    def test_truncated_trials_leave_nan_fidelity(self, baseline_cfg, baseline_agg):
        node = dataclasses.replace(baseline_cfg.node, detection_efficiency=1e-3)
        slow = dataclasses.replace(baseline_cfg, node=node)
        mc = simulate_chain(
            McConfig(trials=40, seed=2, time_model="time-resolved"),
            slow,
            baseline_agg,
            keep_samples=True,
        )
        n_nan = int(np.isnan(mc.fidelity_samples).sum())
        assert 0 < mc.completed_fraction < 1.0
        assert mc.completed_fraction == (40 - n_nan) / 40
        assert np.all(np.isfinite(mc.pairs_samples))

    def test_fully_truncated_run_reports_null_fidelity(self, baseline_cfg, baseline_agg):
        node = dataclasses.replace(baseline_cfg.node, detection_efficiency=1e-5)
        dead = dataclasses.replace(baseline_cfg, node=node)
        an = evaluate_with_aggregates(dead, baseline_agg)
        mc = simulate_chain(
            McConfig(trials=30, seed=2, time_model="time-resolved"), dead, baseline_agg
        )
        assert mc.completed_fraction == 0.0
        assert math.isnan(mc.fidelity.mean)
        payload = json.loads(compare_report(an, mc).to_json())
        entry = {e["quantity"]: e for e in payload["entries"]}["fidelity_final"]
        assert entry["mc_mean"] is None
        assert entry["pass"] is False
        assert payload["all_pass"] is False

    def test_event_times_snap_to_slots(self):
        rng = _block_rng(0, 99)
        t_grid = np.linspace(0.0, 10.0, 101)
        hazard = 5.0 * t_grid
        slot = 0.25
        events = _event_times(rng, t_grid, hazard, slot, 10.0)
        assert events.size > 0
        misalign = np.abs(events / slot - np.round(events / slot))
        assert misalign.max() < 1e-9
        assert np.all(np.diff(events) > 0)
        assert events.max() <= 10.0

    @pytest.mark.parametrize(
        ("per_leaf", "n_leaves"), [(1e12, 2), (math.inf, 2), (math.nan, 2), (1.3e7, 8)]
    )
    def test_trial_refuses_oversized_draws(self, per_leaf, n_leaves):
        # Each case fails the guard before any draw; 1e12 heralds would ask
        # for terabytes, which an unguarded call could not even allocate.
        # 8 leaves of 1.3e7 pass any per-leaf cap but not the trial's.
        t_grid = np.array([0.0, 10.0])
        hazard = np.array([0.0, per_leaf])
        profile = SimpleNamespace(times_s=t_grid, flyby_duration_s=10.0)
        with pytest.raises(ValueError, match="heralds over its"):
            _time_resolved_trial(_block_rng(0, 99), profile, hazard, n_leaves, 1e-9, 1.0)

    def test_mismatched_profile_is_rejected(self, baseline, baseline_cfg, baseline_agg):
        from satrep.flyby import build_profile

        other_geom = dataclasses.replace(baseline.geometry, link_length_m=2.0e6)
        wrong = build_profile(other_geom, baseline.channel, 0.998, n_samples=201)
        with pytest.raises(ValueError, match="different passes"):
            simulate_chain(
                McConfig(trials=5, seed=0, time_model="time-resolved"),
                baseline_cfg,
                baseline_agg,
                profile=wrong,
            )


class TestNextCascadeWalk:
    """The next-cascade table walk against the per-cascade reference, bit for
    bit, including how many uniforms each trial consumes."""

    @staticmethod
    def assert_walks_agree(rep_cfg, agg, seed, trials):
        profile = build_profile(
            rep_cfg.geometry, rep_cfg.channel, rep_cfg.source.pair_fidelity
        )
        slot_s = rep_cfg.slot_s
        p_scale = herald_probability(rep_cfg, agg.p0) / agg.p0
        p_swap = swap_probability(rep_cfg.n_levels, rep_cfg.gate_efficiency)
        hazard = hazard_grid(profile, slot_s, p_scale)
        completed = 0
        for trial in range(trials):
            rng = _block_rng(trial, seed)
            pairs, first = _time_resolved_trial(
                rng, profile, hazard, rep_cfg.n_links, slot_s, p_swap
            )
            ref_rng = _block_rng(trial, seed)
            ref_pairs, ref_first = reference_time_resolved_trial(
                ref_rng, profile, rep_cfg, p_swap, slot_s, p_scale
            )
            assert pairs == ref_pairs
            if ref_first is None:
                assert np.all(np.isnan(first))
            else:
                assert first.tobytes() == ref_first.tobytes()
                completed += 1
            assert rng.random() == ref_rng.random()
        return completed

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_per_cascade_loop(self, baseline_cfg, baseline_agg, depth, seed):
        chain = dataclasses.replace(baseline_cfg, n_levels=depth)
        assert self.assert_walks_agree(chain, baseline_agg, seed, trials=2) == 2

    def test_matches_with_some_trials_truncated(self, baseline_cfg, baseline_agg):
        node = dataclasses.replace(baseline_cfg.node, detection_efficiency=1e-3)
        slow = dataclasses.replace(baseline_cfg, node=node)
        completed = self.assert_walks_agree(slow, baseline_agg, seed=2, trials=40)
        assert 0 < completed < 40

    def test_matches_with_every_trial_truncated(self, baseline_cfg, baseline_agg):
        node = dataclasses.replace(baseline_cfg.node, detection_efficiency=1e-5)
        dead = dataclasses.replace(baseline_cfg, node=node)
        assert self.assert_walks_agree(dead, baseline_agg, seed=2, trials=10) == 0


class TestCompareReport:
    def test_depth_mismatch_rejected(self, baseline_cfg, baseline_agg, analytic):
        shallow = dataclasses.replace(baseline_cfg, n_levels=1)
        mc = simulate_chain(McConfig(trials=20, seed=0), shallow, baseline_agg)
        with pytest.raises(ValueError, match="different depths"):
            compare_report(analytic, mc)

    def test_pass_duration_mismatch_rejected(self, baseline_cfg, baseline_agg, analytic):
        mc = simulate_chain(McConfig(trials=20, seed=0), baseline_cfg, baseline_agg)
        tampered = dataclasses.replace(mc, t_fb_s=mc.t_fb_s * 1.5)
        with pytest.raises(ValueError, match="different passes"):
            compare_report(analytic, tampered)

    def test_zero_tolerances_fail_stochastic_rows(self, baseline_cfg, baseline_agg, analytic):
        mc = simulate_chain(McConfig(trials=200, seed=8), baseline_cfg, baseline_agg)
        strict = McTolerances(z_max=0.0, fidelity_rtol=0.0, gap_rtol=0.0)
        report = compare_report(analytic, mc, tolerances=strict)
        assert not report.all_pass
        by_name = {e.quantity: e for e in report.entries}
        assert not by_name["pairs_per_flyby"].passed

    def test_json_shape(self, baseline_cfg, baseline_agg, analytic):
        mc = simulate_chain(McConfig(trials=50, seed=8), baseline_cfg, baseline_agg)
        payload = json.loads(compare_report(analytic, mc).to_json())
        assert set(payload) == {
            "n_levels", "trials", "seed", "time_model", "completed_fraction",
            "tolerances", "entries", "all_pass",
        }
        names = [e["quantity"] for e in payload["entries"]]
        assert names == [
            "pairs_per_flyby", "fidelity_final", "elementary_time_s",
            "waiting_gap_level_1", "waiting_gap_level_2",
        ]
        for entry in payload["entries"]:
            assert set(entry) == {"quantity", "analytic", "mc_mean", "mc_stderr", "z", "pass"}

    def test_mc_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0, seed=1)
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=-1)
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=2**64)
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=1, time_model="adaptive")


def test_chain_estimates_echo_config(baseline_cfg, baseline_agg):
    mc = simulate_chain(McConfig(trials=25, seed=13), baseline_cfg, baseline_agg)
    assert isinstance(mc, ChainEstimates)
    assert mc.n_levels == baseline_cfg.n_levels
    assert mc.trials == 25
    assert mc.seed == 13
    assert mc.time_model == "constant-p"
    assert mc.t_fb_s == baseline_agg.flyby_duration_s
    assert mc.gamma_s_hz == baseline_cfg.node.spin_decoherence_rate_hz
    assert mc.pairs_samples is None
