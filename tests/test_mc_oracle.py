import dataclasses
import itertools
import math
import warnings
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
    _split_maxima,
    _streams,
    _time_resolved_pass,
    _walk_cascades,
    compare_report,
    simulate_chain,
    simulate_link,
)
from satrep.node import elementary_link_fidelity, werner_fidelity_decay
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


def bits(x):
    return np.float64(x).tobytes()


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
    first cascade's leaf times, as a _time_resolved_pass trial does."""
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


def linear_pass(slot_s):
    """A 10 s pass at herald hazard 200 t per leaf, 2,000 over the pass, in
    slots of ``slot_s``: the profile and hazard a trial takes."""
    t_grid = np.linspace(0.0, 10.0, 101)
    return SimpleNamespace(times_s=t_grid, flyby_duration_s=10.0), 200.0 * t_grid


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

    def test_equal_ends_with_another_middle_take_the_general_path(self):
        # The point-mass test looks at the first and last samples first; a
        # sample whose ends agree is not a point mass for that alone.
        samples = np.array([0.1, 0.1, 0.7, 0.1, 0.1])
        est = McEstimate.from_samples(samples)
        assert bits(est.mean) == bits(samples.mean())
        assert est.std_err > 0.0
        assert bits(est.std_err) == bits(samples.std(ddof=1) / math.sqrt(samples.size))

    def test_general_sample_matches_textbook_formula(self):
        est = McEstimate.from_samples(np.array([1.0, 2.0, 3.0]))
        assert est.mean == 2.0
        assert est.std_err == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)

    # 2-9, and both sides of numpy's pairwise-sum block edges at 128 and 4096.
    @pytest.mark.parametrize("n", [*range(2, 10), 127, 128, 129, 4095, 4096, 4097])
    def test_matches_numpy_mean_and_std_bit_for_bit(self, n):
        samples = _block_rng(n, 3).normal(5.0, 2.0, size=n)
        est = McEstimate.from_samples(samples)
        assert bits(est.mean) == bits(samples.mean())
        assert bits(est.std_err) == bits(samples.std(ddof=1) / math.sqrt(n))

    def test_point_mass_and_nan_match_numpy_bit_for_bit(self):
        point = np.full(1000, 0.75)  # sums exactly, so numpy's mean is exact too
        with_nan = np.array([1.0, math.nan, 2.0])
        for samples in (point, with_nan):
            est = McEstimate.from_samples(samples)
            assert bits(est.mean) == bits(samples.mean())
            assert bits(est.std_err) == bits(samples.std(ddof=1) / math.sqrt(samples.size))

    # Samples whose sum, or whose squared deviations, overflow: both are
    # taken on the samples scaled below 1 by a power of two, and scaled back.
    @pytest.mark.parametrize("samples", [[1.7e308, 1.6e308, 1.75e308], [1e200, -1e200, 3e200]])
    def test_overflowing_samples_take_the_rescaled_path(self, samples):
        samples = np.array(samples)
        exp = math.frexp(np.abs(samples).max())[1]
        scaled = np.ldexp(samples, -exp)
        est = McEstimate.from_samples(samples)
        assert math.isfinite(est.mean) and math.isfinite(est.std_err)
        assert bits(est.mean) == bits(math.ldexp(scaled.mean(), exp))
        std = math.ldexp(scaled.std(ddof=1), exp)
        assert bits(est.std_err) == bits(std / math.sqrt(samples.size))


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_rekeyed_stream_draws_as_a_fresh_one(self, monkeypatch, seed):
        # Each key draws 7 words of 64 bits, the last 2 as 3 uint32: that
        # leaves a buffered half word and 3 of a counter block's 4 words
        # used, and the next key's draws show that re-keying clears both.
        made = []

        def block_rng(block, seed):
            made.append(block)
            return _block_rng(block, seed)

        monkeypatch.setattr(mc_oracle, "_block_rng", block_rng)
        generators = set()
        for key, rng in zip(range(6), mc_oracle._streams(seed)):
            fresh = _block_rng(key, seed)
            for draw in (
                lambda g: g.random(5),
                lambda g: g.integers(2**32, size=3, dtype=np.uint32),
            ):
                assert draw(rng).tobytes() == draw(fresh).tobytes()
            state = rng.bit_generator.state
            assert state["has_uint32"] == 1 and state["buffer_pos"] == 3
            generators.add(id(rng))
        assert made == [0] and len(generators) == 1


class TestSimulateLink:
    def test_certain_success_takes_one_slot(self):
        rng = _block_rng(0, 0)
        times = simulate_link(1.0, 1e-9, rng, size=1000)
        assert np.all(times == 1e-9)

    # Below 1/3 the slots come from one exponential fill, as numpy's own
    # geometric does there; at 1/3 and 1 they come from rng.geometric.  At
    # 1e-17 the counts lie between 2^53 and 2^63, where ceil hides no
    # rounding of the quotient, and at 1e-31 they are clamped.
    @pytest.mark.parametrize(
        "p", [1e-31, 1e-17, 1e-12, 5.89e-9, 1e-3, 0.2, np.nextafter(1 / 3, 0), 1 / 3, 1.0]
    )
    @pytest.mark.parametrize("shape", [(7,), (3, 5), (1024, 4)])
    def test_matches_numpy_geometric_bit_for_bit(self, p, shape):
        ours, numpys = _block_rng(1, 2**63 + 5), _block_rng(1, 2**63 + 5)
        times = simulate_link(p, 2.5e-9, ours, size=shape)
        expected = numpys.geometric(p, size=shape) * 2.5e-9
        assert times.shape == shape and times.tobytes() == expected.tobytes()
        assert repr(ours.bit_generator.state) == repr(numpys.bit_generator.state)
        assert ours.random() == numpys.random()

    def test_overflowing_slot_count_is_clamped_as_numpy_does(self):
        # E / -log1p(-p) overflows for a subnormal p; numpy's geometric
        # returns INT64_MAX, 2^63 as a double, and nothing warns.
        p = 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times = simulate_link(p, 1.0, _block_rng(0, 3), size=64)
        assert np.all(times == 2.0**63)
        expected = _block_rng(0, 3).geometric(p, size=64) * 1.0
        assert times.tobytes() == expected.tobytes()

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

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_pairs_variance_is_the_binomial_one(self, baseline_cfg, baseline_agg, depth):
        # A trial's pairs are Binomial(2^n S, p P_swap) / 2^n, so their
        # variance is S q (1 - q) / 2^n with q = p P_swap.  The sample
        # variance is z-scored with its standard error
        # sigma^2 sqrt(2 / (N - 1) + kappa / N), kappa the binomial's excess
        # kurtosis (1 - 6 q (1 - q)) / (2^n S q (1 - q)).
        chain_cfg = dataclasses.replace(baseline_cfg, n_levels=depth)
        trials, leaves = 20_000, chain_cfg.n_links
        mc = simulate_chain(McConfig(trials, 17), chain_cfg, baseline_agg)
        chain = Chain(chain_cfg)
        q = chain.herald_probability(baseline_agg.p0) * chain.swap
        slots = round(baseline_agg.flyby_duration_s / chain_cfg.slot_s)
        var = slots * q * (1.0 - q) / leaves
        kappa = (1.0 - 6.0 * q * (1.0 - q)) / (leaves * slots * q * (1.0 - q))
        std_err = var * math.sqrt(2.0 / (trials - 1) + kappa / trials)
        assert abs(mc.pairs_samples.var(ddof=1) - var) <= 4.0 * std_err

    @pytest.mark.parametrize("depth", [1, 3])
    def test_leaf_slots_are_each_blocks_first_draw(self, baseline_cfg, baseline_agg, depth):
        # Fidelity comes from the merge tree over each block's first draw,
        # the geometric leaf slots, bit for bit.
        chain_cfg = dataclasses.replace(baseline_cfg, n_levels=depth)
        trials, seed = 2 * _BLOCK_TRIALS + 5, 8
        mc = simulate_chain(McConfig(trials, seed), chain_cfg, baseline_agg)
        chain, node = Chain(chain_cfg), chain_cfg.node
        p = chain.herald_probability(baseline_agg.p0)
        f0 = elementary_link_fidelity(baseline_agg.f_pair_avg, node.caps_fidelity)
        shape = (_BLOCK_TRIALS, chain_cfg.n_links)
        expected = np.concatenate([
            _merge_tree(
                _block_rng(b, seed).geometric(p, size=shape) * chain_cfg.slot_s,
                f0, chain.gate, node.spin_decoherence_rate_hz,
            )[0]
            for b in range(3)
        ])[:trials]
        assert mc.fidelity_samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("depth", [1, 2])
    def test_refuses_int64_slots_over_the_leaves(
        self, monkeypatch, baseline_cfg, baseline_agg, depth
    ):
        # The pair count is one draw over 2^n S slots, so 2^n S must stay
        # below 2^63: a pass of 0.75 x 2^63 / 2^(depth - 1) slots is refused
        # before any stream is made, one of half as many slots runs.
        def chain_with_slots(slots):
            n_mux = baseline_cfg.source.multiplexing_channels
            rate = slots / (baseline_agg.flyby_duration_s * n_mux)
            source = dataclasses.replace(baseline_cfg.source, repetition_rate_hz=rate)
            return dataclasses.replace(baseline_cfg, source=source, n_levels=depth)

        made = []

        def block_rng(block, seed):
            made.append(block)
            return _block_rng(block, seed)

        monkeypatch.setattr(mc_oracle, "_block_rng", block_rng)
        over = chain_with_slots(0.75 * 2.0**63 / 2 ** (depth - 1))
        assert over.n_links * (baseline_agg.flyby_duration_s / over.slot_s) >= 2.0**63
        with pytest.raises(ValueError, match="beyond int64"):
            simulate_chain(McConfig(1, 0), over, baseline_agg)
        assert made == []
        under = chain_with_slots(0.375 * 2.0**63 / 2 ** (depth - 1))
        mc = simulate_chain(McConfig(1, 0), under, baseline_agg)
        assert made == [0] and math.isfinite(mc.pairs_samples[0])


class TestCallerErrorState:
    def test_every_block_keeps_the_callers_error_state(
        self, monkeypatch, baseline_cfg, baseline_agg
    ):
        states = []

        def merge(times, *args):
            states.append(np.geterr()["over"])
            return _merge_tree(times, *args)

        monkeypatch.setattr(mc_oracle, "_merge_tree", merge)
        with np.errstate(over="raise"):
            simulate_chain(McConfig(3000, 1), baseline_cfg, baseline_agg)
        assert states == ["raise"] * 3


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
            pairs, first = _time_resolved_pass(profile, 5.0 * t_grid, n_leaves, slot, 1.0)(
                _block_rng(trial, 99)
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
            _time_resolved_pass(profile, hazard, n_leaves, 1e-9, 1.0)(_block_rng(0, 99))

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
    """Records the cascade maxima a trial draws, the leaf-rank gamma sums of
    its jump and the maxima it splits them into, and how often it falls back
    on the sequential walk.  ``rng(block, seed)`` wraps the generator a trial gets,
    so that its ``standard_gamma`` draws are recorded."""

    def __init__(self, monkeypatch):
        self.maxima = []
        self.gammas = self.split = None
        self.walks = 0
        draw, split, walk = (
            mc_oracle._cascade_maxima, mc_oracle._split_maxima, mc_oracle._walk_cascades
        )

        def spy_draw(*args):
            self.maxima.append(draw(*args))
            return self.maxima[-1]

        def spy_split(*args):
            self.split = split(*args)
            return self.split

        def spy_walk(*args):
            self.walks += 1
            return walk(*args)

        monkeypatch.setattr(mc_oracle, "_cascade_maxima", spy_draw)
        monkeypatch.setattr(mc_oracle, "_split_maxima", spy_split)
        monkeypatch.setattr(mc_oracle, "_walk_cascades", spy_walk)

    def rng(self, block, seed):
        self.maxima.clear()
        self.gammas = self.split = None
        rng = _block_rng(block, seed)
        spy = self

        class Recording:
            def __getattr__(self, name):
                return getattr(rng, name)

            def standard_gamma(self, shape, size):
                spy.gammas = (shape, rng.standard_gamma(shape, size))
                return spy.gammas[1]

        return Recording()


class TestNextCascadeWalk:
    """The vectorised cascade count against the sequential per-cascade
    lattice walk, trial by trial, over the same draws: a trial's jump split
    into its cascade maxima (the split the trial drew if it fell back, a
    fresh one if not), then the maxima it drew after the jump."""

    @staticmethod
    def count_both(monkeypatch, profile, hazard, n_leaves, slot_s, trials, seed):
        """Per trial, the cascades the trial counted (its pairs at P_swap = 1)
        and the walk's count over the same draws; plus the fallback count and
        the count of trials that jumped."""
        spy = CascadeSpy(monkeypatch)
        trial_of = _time_resolved_pass(profile, hazard, n_leaves, slot_s, 1.0)
        counted, walked, jumps = [], [], 0
        for trial in range(trials):
            pairs, first = trial_of(spy.rng(trial, seed))
            counted.append(pairs)
            if np.isnan(first[0]):
                walked.append(0.0)
                continue
            maxima = list(spy.maxima)
            if spy.gammas is not None:
                jumps += 1
                size, gammas = spy.gammas
                split = spy.split
                if split is None:
                    split = _split_maxima(_block_rng(trial, seed + 1), gammas, size)
                maxima.insert(0, split)
            end = float(first.max())
            h = float(np.interp(end, profile.times_s, hazard))
            later = _walk_cascades(
                profile.times_s, hazard, slot_s, profile.flyby_duration_s, end, h,
                np.concatenate(maxima),
            )
            walked.append(1.0 + later)
        return counted, walked, spy.walks, jumps

    @classmethod
    def count_chain(cls, monkeypatch, rep_cfg, agg, trials, seed):
        profile, hazard = chain_hazard(rep_cfg, agg)
        return cls.count_both(
            monkeypatch, profile, hazard, rep_cfg.n_links, rep_cfg.slot_s, trials, seed
        )

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_per_cascade_loop(self, monkeypatch, baseline_cfg, baseline_agg, depth, seed):
        # At the baseline every trial jumps and the bounds decide every
        # count without the walk.
        chain = dataclasses.replace(baseline_cfg, n_levels=depth)
        counted, walked, walks, jumps = self.count_chain(
            monkeypatch, chain, baseline_agg, trials=5, seed=seed
        )
        assert counted == walked
        assert min(counted) > 1000
        assert walks == 0
        assert jumps == 5

    def test_matches_with_some_trials_truncated(self, monkeypatch, baseline_cfg, baseline_agg):
        slow = half_completing_chain(baseline_cfg, baseline_agg)
        counted, walked, _, _ = self.count_chain(
            monkeypatch, slow, baseline_agg, trials=40, seed=2
        )
        assert counted == walked
        assert 0 < np.count_nonzero(counted) < 40

    def test_matches_with_every_trial_truncated(self, monkeypatch, baseline_cfg, baseline_agg):
        node = dataclasses.replace(baseline_cfg.node, detection_efficiency=1e-5)
        dead = dataclasses.replace(baseline_cfg, node=node)
        counted, walked, walks, jumps = self.count_chain(
            monkeypatch, dead, baseline_agg, trials=10, seed=2
        )
        assert counted == walked == [0.0] * 10
        assert walks == jumps == 0

    @pytest.mark.parametrize("n_leaves", [2, 4, 8])
    def test_coarse_slots_need_walk(self, monkeypatch, n_leaves):
        # Hazard 5 t over 10 s in slots of 0.25 s: snapping adds up to 1.25
        # per cascade, as much as the mean maximum wait, so the bounds
        # cannot agree and every count comes from the walk.  The pass is
        # too short to jump.
        t_grid = np.linspace(0.0, 10.0, 101)
        profile = SimpleNamespace(times_s=t_grid, flyby_duration_s=10.0)
        counted, walked, walks, jumps = self.count_both(
            monkeypatch, profile, 5.0 * t_grid, n_leaves, 0.25, trials=50, seed=32
        )
        assert counted == walked
        assert walks > 40
        assert jumps == 0

    def test_fine_slots_mix_both_paths(self, monkeypatch):
        # A convex hazard t^2 / 2 in slots of 1 ms: some counts are decided
        # by the bounds, the rest by the walk, and all agree.
        t_grid = np.linspace(0.0, 10.0, 101)
        profile = SimpleNamespace(times_s=t_grid, flyby_duration_s=10.0)
        counted, walked, walks, _ = self.count_both(
            monkeypatch, profile, 0.5 * t_grid**2, 4, 1e-3, trials=200, seed=33
        )
        assert counted == walked
        assert 0 < walks < 200

    @pytest.mark.parametrize("n_leaves", [2, 8])
    def test_jump_past_the_pass_end_is_split_and_walked(self, monkeypatch, n_leaves):
        # A negative margin jumps about 8 standard deviations of the count
        # past the pass end, so every trial splits its jump and walks.
        monkeypatch.setattr(mc_oracle, "_JUMP_Z", -8.0)
        counted, walked, walks, jumps = self.count_both(
            monkeypatch, *linear_pass(1e-5), n_leaves, 1e-5, trials=20, seed=34
        )
        assert counted == walked
        assert walks == jumps == 20

    @pytest.mark.parametrize("n_leaves", [2, 8])
    def test_coarse_slots_walk_after_the_jump(self, monkeypatch, n_leaves):
        # Hazard 200 t in slots of 0.01 s: the pass holds over a thousand
        # mean maxima, so every trial jumps, and snapping adds up to 2 per
        # cascade, so the bounds cannot agree.
        counted, walked, walks, jumps = self.count_both(
            monkeypatch, *linear_pass(0.01), n_leaves, 0.01, trials=20, seed=35
        )
        assert counted == walked
        assert walks == jumps == 20


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
        trial = _time_resolved_pass(*args)
        new = [trial(_block_rng(i, 701)) for i in range(trials)]
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


class TestJumpFallbacksAgainstPerLeafSampler:
    """A trial that splits its jump and walks draws from the per-leaf
    sampler's distribution too: after a jump past the pass end, and after a
    jump the slot band cannot decide (seeds fixed before the first run)."""

    @staticmethod
    def pairs_z(profile, hazard, slot_s, trials):
        args = (profile, hazard, 2, slot_s, 1.0)
        trial = _time_resolved_pass(*args)
        new = [trial(_block_rng(i, 703))[0] for i in range(trials)]
        old = [reference_time_resolved_trial(_block_rng(i, 704), *args)[0] for i in range(trials)]
        return two_sample_z(new, old)

    def test_jump_past_the_pass_end(self, monkeypatch):
        monkeypatch.setattr(mc_oracle, "_JUMP_Z", -8.0)
        assert abs(self.pairs_z(*linear_pass(1e-5), 1e-5, trials=300)) <= 4.0

    def test_walk_after_the_jump(self):
        assert abs(self.pairs_z(*linear_pass(0.01), 0.01, trials=300)) <= 4.0


class TestRenewalCount:
    """At P_swap = 1 a trial's pairs count its cascades: a renewal count over
    the pass hazard Lambda of one leaf, in steps of the largest of 2^n Exp(1)
    waits, with mean mu = H_2^n and variance sigma^2 = sum_k<=2^n 1/k^2.  Its
    mean is Lambda/mu + sigma^2/(2 mu^2) - 1/2 up to an exponentially small
    remainder, and its variance sigma^2 Lambda/mu^3 up to a constant below
    0.1 here (Cox, Renewal Theory, 1962).  Slot snapping moves the count by
    less than 1e-4 at the baseline."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_count_mean_and_variance(self, baseline_cfg, baseline_agg, depth):
        chain = dataclasses.replace(baseline_cfg, n_levels=depth)
        profile, hazard = chain_hazard(chain, baseline_agg)
        trial = _time_resolved_pass(profile, hazard, chain.n_links, chain.slot_s, 1.0)
        counts = np.array([trial(rng)[0] for _, rng in zip(range(20_000), _streams(31))])
        inv = 1.0 / np.arange(1, chain.n_links + 1)
        mu, var, lam = inv.sum(), (inv**2).sum(), hazard[-1]
        mean, variance = lam / mu + var / (2 * mu**2) - 0.5, var * lam / mu**3
        n = counts.size
        assert abs(counts.mean() - mean) / math.sqrt(counts.var(ddof=1) / n) <= 3.0
        assert abs(counts.var(ddof=1) / variance - 1.0) / math.sqrt(2 / (n - 1)) <= 3.0


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
