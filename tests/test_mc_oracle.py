import dataclasses
import itertools
import math
import os
import select
import signal
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import satrep.mc_oracle as mc_oracle
from satrep.flyby import build_profile, pass_aggregates
from satrep.mc_oracle import (
    _BLOCK_TRIALS,
    ChainEstimates,
    McConfig,
    McEstimate,
    _block_rng,
    _merge_tree,
    _time_resolved_trial,
    _walk_cascades,
    compare_report,
    simulate_chain,
    simulate_link,
)
from satrep.node import werner_fidelity_decay
from satrep.repeater import Chain, evaluate_with_aggregates


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


def chain_hazard(rep_cfg, agg):
    """The chain's pass profile and herald hazard, as simulate_chain builds them."""
    profile = build_profile(rep_cfg.geometry, rep_cfg.channel, rep_cfg.source.pair_fidelity)
    p_scale = Chain(rep_cfg).herald_probability(agg.p0) / agg.p0
    return profile, hazard_grid(profile, rep_cfg.slot_s, p_scale)


def reference_event_times(rng, t_grid, hazard, slot_s, t_fb):
    """One leaf's heralds over the whole pass, as the per-leaf sampler drew
    them: unit-rate exponential increments in hazard, mapped to time and
    snapped up to slot boundaries."""
    total = hazard[-1]
    expected = int(total) + 1
    cum = np.cumsum(rng.exponential(size=max(64, int(1.2 * expected) + 32)))
    while cum[-1] < total:
        more = rng.exponential(size=max(64, expected // 4 + 16))
        cum = np.concatenate([cum, cum[-1] + np.cumsum(more)])
    raw = np.interp(cum[cum <= total], hazard, t_grid)
    snapped = np.unique(np.ceil(raw / slot_s - 1e-12) * slot_s)
    return snapped[snapped <= t_fb]


def reference_time_resolved_trial(rng, profile, hazard, n_leaves, slot_s, p_swap):
    """The per-leaf sampler the hazard-space walk replaced: every herald of
    every leaf, and a table over their union that maps each cascade start to
    the latest of the leaves' next heralds.  Returns the pair count and the
    first cascade's leaf times, as _time_resolved_trial does."""
    t_fb = profile.flyby_duration_s
    events = [
        reference_event_times(rng, profile.times_s, hazard, slot_s, t_fb)
        for _ in range(n_leaves)
    ]
    starts = np.unique(np.concatenate([[0.0], *events]))
    end = starts.size
    cascade_end = np.zeros(end, dtype=np.intp)
    for ev in events:
        heralds = np.searchsorted(starts, ev)
        np.maximum.at(cascade_end, np.append(0, heralds), np.append(heralds, end))
    np.maximum.accumulate(cascade_end, out=cascade_end)
    cascades = 0
    k = cascade_end[0]
    while k < end:
        cascades += 1
        k = cascade_end[k]
    if cascades == 0:
        return 0.0, np.full(n_leaves, math.nan)
    first = [ev[np.searchsorted(ev, 0.0, side="right")] for ev in events]
    return float(np.count_nonzero(rng.random(cascades) < p_swap)), np.array(first)


def half_completing_chain(rep_cfg, agg):
    """``rep_cfg`` with the detection efficiency at which about half the
    trials complete their first cascade.

    A leaf heralds inside the pass with probability 1 - exp(-H), H its
    hazard over the pass, so the first cascade completes with probability
    (1 - exp(-H))^(2^n); H is proportional to eta_d^e while the per-slot
    probability is small.
    """
    hazard = chain_hazard(rep_cfg, agg)[1][-1]
    target = -math.log(1.0 - 0.5 ** (1.0 / rep_cfg.n_links))
    scale = (target / hazard) ** (1.0 / rep_cfg.detector_exponent)
    eta_d = rep_cfg.node.detection_efficiency * scale
    node = dataclasses.replace(rep_cfg.node, detection_efficiency=eta_d)
    return dataclasses.replace(rep_cfg, node=node)


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
        assert first.to_dict() == second.to_dict()
        other = simulate_chain(McConfig(trials=500, seed=12), baseline_cfg, baseline_agg)
        assert other.pairs.mean != first.entries[0].mc_mean

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seeds", [(2**63, 2**63 + 1), (2**64 - 1, 0)])
    def test_seeds_past_int64_keep_their_own_streams(self, baseline_cfg, baseline_agg, seeds):
        # A Philox key given as a list holding an int >= 2^63 becomes float64.
        a, b = (
            simulate_chain(McConfig(trials=50, seed=seed), baseline_cfg, baseline_agg)
            for seed in seeds
        )
        assert a.pairs.mean != b.pairs.mean and a.link_time.mean != b.link_time.mean

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
        mc = simulate_chain(McConfig(trials=64, seed=6), baseline_cfg, baseline_agg)
        assert mc.pairs_samples.shape == (64,)
        assert np.all(np.isfinite(mc.pairs_samples))
        assert mc.fidelity_samples.shape == (64,)

    def test_runs_are_prefixes_of_longer_runs(self, baseline_cfg, baseline_agg):
        sizes = (_BLOCK_TRIALS - 1, _BLOCK_TRIALS, _BLOCK_TRIALS + 1, 2 * _BLOCK_TRIALS + 3)
        runs = [
            simulate_chain(McConfig(trials=n, seed=9), baseline_cfg, baseline_agg)
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

    @pytest.mark.parametrize(
        "time_model, block", [("constant-p", _BLOCK_TRIALS), ("time-resolved", 0)]
    )
    def test_refuses_more_leaf_times_than_the_cap(
        self, baseline_cfg, baseline_agg, time_model, block
    ):
        # One trial past the cap, counting the constant-p block; refused
        # before anything is allocated or drawn.
        trials = int(mc_oracle._MAX_LEAF_TIMES) // baseline_cfg.n_links - block + 1
        with pytest.raises(ValueError, match="leaf times"):
            simulate_chain(McConfig(trials, 0, time_model), baseline_cfg, baseline_agg)


def use_cpus(monkeypatch, count):
    """Make simulate_chain see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def run_bytes(mc):
    """Every sample and estimate of a run, as bytes and exact reprs."""
    return mc.pairs_samples.tobytes(), mc.fidelity_samples.tobytes(), repr(mc)


class TestBlocksOnThreads:
    @pytest.mark.parametrize("trials", [1, _BLOCK_TRIALS, _BLOCK_TRIALS + 1, 3000])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_worker_count_leaves_every_byte(
        self, monkeypatch, baseline_cfg, baseline_agg, depth, trials
    ):
        # Four workers on any machine, switching threads every microsecond.
        chain = dataclasses.replace(baseline_cfg, n_levels=depth)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 4):
                use_cpus(monkeypatch, cpus)
                runs.append(run_bytes(simulate_chain(McConfig(trials, 21), chain, baseline_agg)))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1]

    def test_first_error_is_raised_after_every_block_ends(
        self, monkeypatch, baseline_cfg, baseline_agg
    ):
        # Blocks 1 and 2 run on pool threads and both raise; block 2 raises
        # late, so the error of the first share comes only once every
        # thread has ended.
        use_cpus(monkeypatch, 4)
        ended = []

        def failing_rng(block, seed):
            if block == 2:
                time.sleep(0.2)
                ended.append(block)
            if block:
                raise RuntimeError(f"block {block}")
            return _block_rng(block, seed)

        monkeypatch.setattr(mc_oracle, "_block_rng", failing_rng)
        with pytest.raises(RuntimeError, match="block 1"):
            simulate_chain(McConfig(3000, 1), baseline_cfg, baseline_agg)
        assert ended == [2]

    def test_every_block_keeps_the_callers_error_state(
        self, monkeypatch, baseline_cfg, baseline_agg
    ):
        use_cpus(monkeypatch, 4)
        states = []

        def merge(times, *args):
            states.append(np.geterr()["over"])
            return _merge_tree(times, *args)

        monkeypatch.setattr(mc_oracle, "_merge_tree", merge)
        with np.errstate(over="raise"):
            simulate_chain(McConfig(3000, 1), baseline_cfg, baseline_agg)
        assert states == ["raise"] * 3

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs os.fork")
    def test_forked_child_builds_its_own_pool(self, monkeypatch, baseline_cfg, baseline_agg):
        use_cpus(monkeypatch, 3)
        cfg = McConfig(3000, 5)
        expected = run_bytes(simulate_chain(cfg, baseline_cfg, baseline_agg))
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: never returns to pytest
            status = 1
            try:
                os.close(read_fd)
                got = run_bytes(simulate_chain(cfg, baseline_cfg, baseline_agg))
                os.write(write_fd, b"same" if got == expected else b"differ")
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        answer = b"timed out"
        try:
            if select.select([read_fd], [], [], 60.0)[0]:
                answer = os.read(read_fd, 16)
        finally:
            os.close(read_fd)
            if answer == b"timed out":
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        assert answer == b"same"
        assert os.waitstatus_to_exitcode(status) == 0


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

    def test_runs_are_prefixes_of_longer_runs(self, baseline_cfg, baseline_agg):
        short, longer = (
            simulate_chain(
                McConfig(trials=n, seed=9, time_model="time-resolved"),
                baseline_cfg,
                baseline_agg,
            )
            for n in (5, 8)
        )
        assert short.pairs_samples.tobytes() == longer.pairs_samples[:5].tobytes()
        assert short.fidelity_samples.tobytes() == longer.fidelity_samples[:5].tobytes()

    def test_truncated_trials_leave_nan_fidelity(self, baseline_cfg, baseline_agg):
        slow = half_completing_chain(baseline_cfg, baseline_agg)
        mc = simulate_chain(
            McConfig(trials=40, seed=2, time_model="time-resolved"),
            slow,
            baseline_agg,
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
        payload = compare_report(an, mc).to_dict()
        entry = {e["quantity"]: e for e in payload["entries"]}["fidelity_final"]
        assert entry["mc_mean"] is None
        assert entry["pass"] is False
        assert payload["all_pass"] is False

    def test_event_times_snap_to_slots(self):
        # The first cascade's leaf times, at hazard 5 t: the first herald at
        # wait E lies at E / 5, held from the end of its slot.
        t_grid = np.linspace(0.0, 10.0, 101)
        profile = SimpleNamespace(times_s=t_grid, flyby_duration_s=10.0)
        slot = 0.25
        for trial, n_leaves in itertools.product(range(20), (2, 8)):
            pairs, first = _time_resolved_trial(
                _block_rng(trial, 99), profile, 5.0 * t_grid, n_leaves, slot, 1.0
            )
            waits = _block_rng(trial, 99).standard_exponential(n_leaves)
            assert np.array_equal(first, np.ceil(waits / 5.0 / slot - 1e-12) * slot)
            misalign = np.abs(first / slot - np.round(first / slot))
            assert misalign.max() < 1e-9
            assert 0.0 < first.min() and first.max() <= 10.0
            assert pairs >= 1.0

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

    def test_mismatched_profile_is_rejected(self, baseline_cfg):
        # The aggregates of a 2,000 km link against the profile the baseline
        # config builds for its 2,500 km link.
        other_geom = dataclasses.replace(baseline_cfg.geometry, link_length_m=2.0e6)
        wrong = pass_aggregates(
            other_geom, baseline_cfg.channel, baseline_cfg.source.pair_fidelity
        )
        with pytest.raises(ValueError, match="different passes"):
            simulate_chain(
                McConfig(trials=5, seed=0, time_model="time-resolved"),
                baseline_cfg,
                wrong,
            )


class CascadeSpy:
    """Records the cascade maxima a trial draws and how often it falls back
    on the sequential walk."""

    def __init__(self, monkeypatch):
        self.maxima = []
        self.walks = 0
        draw, walk = mc_oracle._cascade_maxima, mc_oracle._walk_cascades

        def spy_draw(*args):
            self.maxima.append(draw(*args))
            return self.maxima[-1]

        def spy_walk(*args):
            self.walks += 1
            return walk(*args)

        monkeypatch.setattr(mc_oracle, "_cascade_maxima", spy_draw)
        monkeypatch.setattr(mc_oracle, "_walk_cascades", spy_walk)


class TestNextCascadeWalk:
    """The vectorised cascade count against the sequential per-cascade
    lattice walk, trial by trial, over the same draws."""

    @staticmethod
    def count_both(monkeypatch, profile, hazard, n_leaves, slot_s, trials, seed):
        """Per trial, the cascades the trial counted (its pairs at P_swap = 1)
        and the walk's count over the same draws; plus the fallback count."""
        spy = CascadeSpy(monkeypatch)
        counted, walked = [], []
        for trial in range(trials):
            spy.maxima.clear()
            pairs, first = _time_resolved_trial(
                _block_rng(trial, seed), profile, hazard, n_leaves, slot_s, 1.0
            )
            counted.append(pairs)
            if np.isnan(first[0]):
                walked.append(0.0)
                continue
            end = float(first.max())
            h = float(np.interp(end, profile.times_s, hazard))
            later = _walk_cascades(
                profile.times_s, hazard, slot_s, profile.flyby_duration_s, end, h,
                np.concatenate(spy.maxima),
            )
            walked.append(1.0 + later)
        return counted, walked, spy.walks

    @classmethod
    def count_chain(cls, monkeypatch, rep_cfg, agg, trials, seed):
        profile, hazard = chain_hazard(rep_cfg, agg)
        return cls.count_both(
            monkeypatch, profile, hazard, rep_cfg.n_links, rep_cfg.slot_s, trials, seed
        )

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_per_cascade_loop(self, monkeypatch, baseline_cfg, baseline_agg, depth, seed):
        # At the baseline the bounds decide every count without the walk.
        chain = dataclasses.replace(baseline_cfg, n_levels=depth)
        counted, walked, walks = self.count_chain(
            monkeypatch, chain, baseline_agg, trials=5, seed=seed
        )
        assert counted == walked
        assert min(counted) > 1000
        assert walks == 0

    def test_matches_with_some_trials_truncated(self, monkeypatch, baseline_cfg, baseline_agg):
        slow = half_completing_chain(baseline_cfg, baseline_agg)
        counted, walked, _ = self.count_chain(monkeypatch, slow, baseline_agg, trials=40, seed=2)
        assert counted == walked
        assert 0 < np.count_nonzero(counted) < 40

    def test_matches_with_every_trial_truncated(self, monkeypatch, baseline_cfg, baseline_agg):
        node = dataclasses.replace(baseline_cfg.node, detection_efficiency=1e-5)
        dead = dataclasses.replace(baseline_cfg, node=node)
        counted, walked, walks = self.count_chain(
            monkeypatch, dead, baseline_agg, trials=10, seed=2
        )
        assert counted == walked == [0.0] * 10
        assert walks == 0

    @pytest.mark.parametrize("n_leaves", [2, 4, 8])
    def test_coarse_slots_need_walk(self, monkeypatch, n_leaves):
        # Hazard 5 t over 10 s in slots of 0.25 s: snapping adds up to 1.25
        # per cascade, as much as the mean maximum wait, so the bounds
        # cannot agree and every count comes from the walk.
        t_grid = np.linspace(0.0, 10.0, 101)
        profile = SimpleNamespace(times_s=t_grid, flyby_duration_s=10.0)
        counted, walked, walks = self.count_both(
            monkeypatch, profile, 5.0 * t_grid, n_leaves, 0.25, trials=50, seed=32
        )
        assert counted == walked
        assert walks > 40

    def test_fine_slots_mix_both_paths(self, monkeypatch):
        # A convex hazard t^2 / 2 in slots of 1 ms: some counts are decided
        # by the bounds, the rest by the walk, and all agree.
        t_grid = np.linspace(0.0, 10.0, 101)
        profile = SimpleNamespace(times_s=t_grid, flyby_duration_s=10.0)
        counted, walked, walks = self.count_both(
            monkeypatch, profile, 0.5 * t_grid**2, 4, 1e-3, trials=200, seed=33
        )
        assert counted == walked
        assert 0 < walks < 200


def two_sample_z(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return (a.mean() - b.mean()) / se


class TestAgainstPerLeafSampler:
    """The hazard-space walk draws from the same distribution as the per-leaf
    sampler it replaced (seeds fixed before the first run)."""

    @staticmethod
    def run_both(rep_cfg, agg, trials):
        profile, hazard = chain_hazard(rep_cfg, agg)
        p_swap = Chain(rep_cfg).swap
        args = (profile, hazard, rep_cfg.n_links, rep_cfg.slot_s, p_swap)
        new = [_time_resolved_trial(_block_rng(i, 701), *args) for i in range(trials)]
        old = [reference_time_resolved_trial(_block_rng(i, 702), *args) for i in range(trials)]
        return new, old

    def test_baseline_pairs_and_leaf_times(self, baseline_cfg, baseline_agg):
        chain = dataclasses.replace(baseline_cfg, n_levels=1)
        new, old = self.run_both(chain, baseline_agg, trials=300)
        assert abs(two_sample_z([p for p, _ in new], [p for p, _ in old])) <= 4.0
        assert abs(two_sample_z([t[0] for _, t in new], [t[0] for _, t in old])) <= 4.0

    def test_half_completing_pairs_and_completed_fraction(self, baseline_cfg, baseline_agg):
        slow = half_completing_chain(baseline_cfg, baseline_agg)
        new, old = self.run_both(slow, baseline_agg, trials=400)
        assert abs(two_sample_z([p for p, _ in new], [p for p, _ in old])) <= 4.0
        done_new = [not np.isnan(t[0]) for _, t in new]
        done_old = [not np.isnan(t[0]) for _, t in old]
        assert 0.3 < np.mean(done_new) < 0.7
        assert abs(two_sample_z(done_new, done_old)) <= 4.0


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

    def test_zero_tolerances_fail_stochastic_rows(
        self, baseline_cfg, baseline_agg, analytic, monkeypatch
    ):
        for band in ("Z_MAX", "FIDELITY_RTOL", "GAP_RTOL"):
            monkeypatch.setattr(mc_oracle, band, 0.0)
        mc = simulate_chain(McConfig(trials=200, seed=8), baseline_cfg, baseline_agg)
        report = compare_report(analytic, mc)
        assert not report.all_pass
        assert report.to_dict()["tolerances"] == {
            "z_max": 0.0, "fidelity_rtol": 0.0, "gap_rtol": 0.0
        }
        by_name = {e.quantity: e for e in report.entries}
        assert not by_name["pairs_per_flyby"].passed

    def test_json_shape(self, baseline_cfg, baseline_agg, analytic):
        mc = simulate_chain(McConfig(trials=50, seed=8), baseline_cfg, baseline_agg)
        payload = compare_report(analytic, mc).to_dict()
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
    assert mc.pairs_samples.shape == mc.fidelity_samples.shape == (25,)
    assert McEstimate.from_samples(mc.pairs_samples) == mc.pairs
