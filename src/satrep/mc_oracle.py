"""Monte Carlo cross-check of the analytic repeater recursions.

Simulates heralded elementary-link generation and the pairwise swap cascade at
the event level, then compares distributional estimates against the closed-form
rate and fidelity recursions.  Two time models:

``constant-p``
    Every attempt slot succeeds with the flyby-averaged herald probability
    :meth:`~satrep.repeater.Chain.herald_probability`, the same product the
    analytic T0 divides the slot duration by.  This is the model the
    equivalence tests use: estimator means are designed to coincide with the
    analytic values exactly, so z-scores are meaningful.

``time-resolved``
    Attempt success is the herald probability at the instantaneous two-photon
    transmission sampled from a :class:`~satrep.flyby.FlybyProfile`, links
    restart after every swap cascade, and chains that fail to complete before
    the pass ends are truncated.  The analytic model has none of these
    effects, so this mode is expected to sit below it; the comparison report
    surfaces the difference rather than hiding it.

Reproducibility: block b of trials draws from the counter-based stream
``Philox(key=[b, seed])``.  A run makes one bit generator and, before each
block, re-keys it to [b, seed] with its counter and buffer reset
(:func:`_streams`).  A constant-p block always draws all its 1024 trials, so
trial i depends only on (i, seed) and a run is a prefix of any longer run; a
time-resolved block is one trial.  The in-block draw order is fixed and
documented in :func:`simulate_chain`; blocks run one after another on the
calling thread.  Older streams thinned per-leaf herald counts, where a
constant-p trial draws its pair count once, and drew each cascade a
time-resolved trial jumps over; for a given seed only pairs samples differ.

Comparison: :func:`compare_report` scores each quantity in one row of one
table, against the fixed bands :data:`Z_MAX`, :data:`FIDELITY_RTOL` and
:data:`GAP_RTOL`, and keeps the :class:`ChainEstimates` it scored, whose
per-trial samples every run returns.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .flyby import FlybyAggregates, build_profile
from .node import elementary_link_fidelity
from .repeater import Chain, RepeaterConfig, RepeaterResult

__all__ = [
    "ChainEstimates",
    "McConfig",
    "McEstimate",
    "McReport",
    "compare_report",
    "simulate_chain",
    "simulate_link",
]

# Pass/fail bands of compare_report: |z| for quantities whose estimator mean
# equals the analytic value by construction, relative error for quantities
# where the analytic formula is itself an approximation.  GAP_RTOL bands the
# waiting gaps against the (3/2)^(k-1)/2 * T0 rule, whose real deviation from
# the exact mean gap 2 (H_2^k - H_2^(k-1)) T0, relative to the rule, is 100%,
# 56% and 13% at levels 1-3 and 21%, 46% and 64% at levels 4-6; a 15% band
# therefore fails levels 1 and 2.
Z_MAX = 3.0
FIDELITY_RTOL = 0.01
GAP_RTOL = 0.15

_TIME_MODELS = ("constant-p", "time-resolved")
_BLOCK_TRIALS = 1024  # constant-p trials per random stream
# Expected heralds per trial, summed over its leaves, above which the
# time-resolved model refuses to draw.  A trial that walks holds two entries
# per swap cascade, about 1/(2^n H_2^n) of its heralds (H_m the m-th harmonic
# number): 5.4 bytes per expected herald at 2 leaves and 0.74 at 8
# (tracemalloc, channel.beam_waist_m=0.1, where every trial walks: 2.8e6 and
# 1.1e7 heralds), so the cap keeps a trial under about 0.55 GB.  Other trials
# hold the cascades after the jump: 12 kB at the baseline, which expects 2 x 5.7k.
_MAX_HERALDS_PER_TRIAL = 1e8
_JUMP_Z = 8.0  # standard deviations a jump stays below the pass end: odds 1e-15 past it
# Leaf times one simulate_chain run may draw: trials x 2^n, plus a block of
# _BLOCK_TRIALS x 2^n in constant-p, which keeps of them only each trial's
# gaps and first link time.  A run peaks at up to 34 bytes per leaf time in
# time-resolved (33.3, 32.8, 30.7 and 28.4 at 2, 4, 8 and 256 to 8,192
# leaves) and 20 in constant-p (20.0, 16.0, 14.0 and 11.3 at 2, 4, 8 and
# 8,192; tracemalloc over runs of 4e5 to 1e7 leaf times), so the cap keeps
# a run under about 0.68 GB; the baseline draws 1e5 x 4.
_MAX_LEAF_TIMES = 2e7


@dataclass(frozen=True)
class McConfig:
    """Trial count, seed, and time model for one Monte Carlo run."""

    trials: int
    seed: int
    time_model: str = "constant-p"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.time_model not in _TIME_MODELS:
            raise ValueError(f"time model must be one of {_TIME_MODELS}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error.

    ``std_err`` is sample_std / sqrt(n) with the n-1 denominator; it is NaN for
    n < 2, and both fields are NaN when no samples were collected (possible in
    time-resolved mode when every trial is truncated).  A sample whose values
    are all identical is a point mass: its mean is that value bit for bit and
    its standard error is exactly 0.  (Summing n identical doubles through the
    general path would smear the mean by a few ulp and leave a ~1e-17 standard
    error, turning an exact agreement into a huge z-score.)  Where the
    squares of samples near the largest double overflow (elementary times
    at a repetition rate of 1e-300 Hz), both are taken again on the samples
    scaled by a power of two to below 1 in magnitude, which is exact.
    """

    mean: float
    std_err: float
    n: int

    @staticmethod
    def from_samples(samples: np.ndarray) -> "McEstimate":
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        if n == 0:
            return McEstimate(mean=math.nan, std_err=math.nan, n=0)
        if n == 1:
            return McEstimate(mean=float(samples[0]), std_err=math.nan, n=1)
        if samples[0] == samples[-1] and samples.min() == samples.max():
            return McEstimate(mean=float(samples[0]), std_err=0.0, n=n)
        with np.errstate(over="ignore"):  # mean() and std(ddof=1) in numpy's order
            mean = np.add.reduce(samples, axis=None) / n
            dev = samples - mean
            np.multiply(dev, dev, out=dev)
            std = math.sqrt(np.add.reduce(dev, axis=None) / (n - 1))
        if not (math.isfinite(mean) and math.isfinite(std)):
            exp = math.frexp(np.abs(samples).max())[1]
            scaled = np.ldexp(samples, -exp)
            mean = math.ldexp(scaled.mean(), exp)
            std = math.ldexp(scaled.std(ddof=1), exp)
        return McEstimate(mean=float(mean), std_err=float(std / math.sqrt(n)), n=n)


@dataclass(frozen=True, eq=False)
class ChainEstimates:
    """Distributional estimates from one simulate_chain run, plus enough
    config echo to check comparisons against the matching analytic result.
    ``pairs_samples`` and ``fidelity_samples`` hold one entry per trial, in
    trial order; a trial whose first cascade never completed has a NaN
    fidelity.  Equality is identity, since arrays do not compare to a bool."""

    n_levels: int
    trials: int
    seed: int
    time_model: str
    t_fb_s: float
    gamma_s_hz: float
    pairs: McEstimate
    fidelity: McEstimate
    link_time: McEstimate
    gap_by_level: tuple[McEstimate, ...]
    completed_fraction: float
    pairs_samples: np.ndarray = field(repr=False)
    fidelity_samples: np.ndarray = field(repr=False)


def _block_rng(block: int, seed: int) -> np.random.Generator:
    # As a list, a seed of 2^63 or more would become a float64 and collide.
    key = np.array([block, seed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _streams(seed: int) -> Iterator[np.random.Generator]:
    """The generators of blocks 0, 1, 2, ... in turn, each drawing what
    ``_block_rng(block, seed)`` would: one Philox per run, whose key is set to
    [block, seed] and counter and buffer reset through numpy's documented
    ``Philox.state`` layout, in place of a new Philox and Generator per block."""
    rng = _block_rng(0, seed)
    state = rng.bit_generator.state  # counter 0, buffer empty; read once
    for block in itertools.count():
        state["state"]["key"][0] = block
        rng.bit_generator.state = state
        yield rng


def simulate_link(p_success, slot_s: float, rng: np.random.Generator, size=None):
    """Heralding time of one multiplexed elementary link: a geometric number
    of attempt slots (success probability ``p_success`` per slot) times the
    slot duration 1/(N_mux * R_s).  Mean is slot/p, the analytic T0.

    Below p = 1/3 the count is ceil(E / -log1p(-p)) of one Exp(1) fill E,
    clamped at 2^63, with the C library's log1p: numpy's own ``geometric``
    there, bit for bit and stream for stream.  At or above 1/3 numpy
    searches instead, and ``rng.geometric`` draws.
    """
    if not 0.0 < p_success <= 1.0:
        raise ValueError("per-attempt success probability must lie in (0, 1]")
    if slot_s <= 0:
        raise ValueError("slot duration must be positive")
    if p_success >= 1 / 3:
        return rng.geometric(p_success, size=size) * slot_s
    slots = np.asarray(rng.standard_exponential(size))
    with np.errstate(over="ignore"):  # a subnormal p overflows to the clamp
        np.divide(slots, -math.log1p(-p_success), out=slots)
    np.minimum(np.ceil(slots, out=slots), 2.0**63, out=slots)  # INT64_MAX as a double
    return np.multiply(slots, slot_s, out=slots)[()]


def _merge_tree(
    times: np.ndarray, f0: float, gate_factor: float, gamma_s: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Fold 2^n leaf completion times (last axis, one trial per row) pairwise
    up the swap tree.

    A parent completes when the later child does (on a tie, the first child is
    the earlier); the earlier child's Werner parameter decays over the actual
    gap (1/4 + (F - 1/4) e^{-gamma_s gap}, the werner_fidelity_decay law
    applied elementwise) before the swap multiplies the two parameters and the
    gate/readout factor.  Returns the final Werner parameters and the
    per-level arrays of gaps.
    """
    t = np.asarray(times, dtype=float)
    early = late = f0  # every leaf holds f0, so the first level selects nothing
    gaps: list[np.ndarray] = []
    with np.errstate(over="ignore"):  # gamma_s * gap = inf decays fully
        while t.shape[-1] > 1:
            a, b = t[..., 0::2], t[..., 1::2]
            if gaps:
                first = a <= b
                early = np.where(first, f[..., 0::2], f[..., 1::2])
                late = np.where(first, f[..., 1::2], f[..., 0::2])
            gap = np.subtract(a, b)
            np.abs(gap, out=gap)  # IEEE subtraction is antisymmetric: b - a where a <= b
            # f = gate_factor * (0.25 + (early - 0.25) * exp(-gamma_s * gap)) * late
            f = np.multiply(gap, -gamma_s)
            np.exp(f, out=f)
            f *= early - 0.25
            f += 0.25
            f *= gate_factor
            f *= late
            t = np.maximum(a, b)
            gaps.append(gap)
    return f[..., 0], gaps


def simulate_chain(
    cfg: McConfig,
    rep_cfg: RepeaterConfig,
    agg: FlybyAggregates,
) -> ChainEstimates:
    """Simulate ``cfg.trials`` independent flybys of a 2^n-link chain.

    Per-block draw order (fixed; changing it changes byte-level outputs):

    constant-p, ``_BLOCK_TRIALS`` trials per block:
      1. geometric heralding slot counts, shape (trials, 2^n), filled row by
         row, so row i holds trial i's leaves: below p = 1/3, ceil(E /
         -log1p(-p)) of one ``standard_exponential`` fill, clamped at 2^63;
         at or above it, numpy's ``geometric`` (:func:`simulate_link`);
      2. one binomial per trial: the leaf heralds over the whole pass that
         the swap cascade keeps, Binomial(2^n S, p P_swap) for S slots per
         pass, p per slot and swap-cascade probability P_swap.

    The pairs estimator credits each kept leaf herald with 1/2^n of a chain
    completion.  Thinning a binomial by P_swap gives a binomial, so step 2 has
    the distribution of 2^n herald counts Binomial(S, p) each thinned by
    P_swap and summed; its expectation equals the analytic rate * T_FB up to
    the rounding of the pass to whole slots (relative error below 1e-12 for
    Table-scale parameters).  A pass of 2^63 or more slots over its leaves
    raises ValueError before anything is drawn.  Fidelity and waiting gaps
    come from the merge tree over the leaf times of step 1.

    time-resolved, one trial per block:
      1. 2^n standard exponential waits, one per leaf in order: each leaf's
         first herald in hazard space (the cumulative herald hazard of one
         leaf, in which heralds form a unit-rate Poisson process), mapped to
         time and snapped up to its slot boundary;
      2. if the pass holds a jump of K >= 64 cascades, 2^n Gamma(K) draws;
      3. standard exponentials E, one per cascade after the jump, each mapped
         to the largest of 2^n waits by -log(1 - exp(-E / 2^n)), drawn in
         chunks (1.2 x the hazard left after the jump over the mean maximum,
         plus 32; then a quarter of that, plus 32, at a time) until their sum
         passes the hazard left in the pass;
      4. only if the count needs them, K exponentials per leaf rank in turn;
      5. one binomial draw: the successful swap cascades among those held
         inside the pass, each succeeding with the swap-cascade probability.
    A trial whose first cascade does not finish inside the pass stops after
    step 1.  The pass profile is built from ``rep_cfg``; aggregates of a
    pass of another duration raise ValueError.

    Each cascade consumes all 2^n held links and every leaf restarts; because
    slot attempts are independent, the next cascade ends where the hazard
    has grown by the largest of 2^n fresh waits, snapped up to a slot
    boundary (:func:`_time_resolved_pass`).  Fidelity and gaps are scored on
    the first completed cascade of each trial; trials whose first cascade
    does not finish before the pass ends contribute no fidelity sample, and
    ``completed_fraction`` records the fraction that did.  More than
    :data:`_MAX_LEAF_TIMES` leaf times, a slot duration of 0 or inf, in
    constant-p a slot so long that 2^63 slots overflow, or a mean link time
    slot / p past the double range raise ValueError before any allocation.
    """
    if rep_cfg.n_levels < 1:
        raise ValueError("chain simulation requires at least one swap level")
    n_leaves = rep_cfg.n_links
    block = _BLOCK_TRIALS if cfg.time_model == "constant-p" else 0
    if not (cfg.trials + block) * n_leaves <= _MAX_LEAF_TIMES:
        raise ValueError(
            f"{cfg.trials} trials of 2^{rep_cfg.n_levels} leaves exceed the Monte Carlo's "
            f"{_MAX_LEAF_TIMES:.0e} leaf times"
        )
    slot_s = rep_cfg.slot_s
    if not 0.0 < slot_s < math.inf:
        raise ValueError(
            f"the attempt slot duration 1/(N_mux R_s) leaves double precision: {slot_s} s"
        )
    if cfg.time_model == "constant-p" and not math.isfinite(2.0**63 * slot_s):
        # A leaf time is at most 2^63 slots (simulate_link's clamp).
        raise ValueError(
            f"constant-p leaf times of up to 2^63 slots of {slot_s} s leave double precision"
        )
    t_fb = agg.flyby_duration_s
    chain = Chain(rep_cfg)
    p_attempt, p_swap = chain.herald_probability(agg.p0), chain.swap
    if not 0.0 < p_attempt <= 1.0:
        raise ValueError(f"per-attempt probability {p_attempt} outside (0, 1]")
    if not math.isfinite(slot_s / p_attempt):  # the analytic T0 of both models
        raise ValueError(f"the mean link time {slot_s} s / {p_attempt} leaves double precision")
    f0 = elementary_link_fidelity(agg.f_pair_avg, rep_cfg.node.caps_fidelity)
    gamma_s = rep_cfg.node.spin_decoherence_rate_hz

    pairs_samples = np.empty(cfg.trials)
    if cfg.time_model == "constant-p":
        slots = t_fb / slot_s
        if not slots < 2.0**63 or n_leaves * round(slots) >= 2**63:
            raise ValueError(
                f"the pass holds {n_leaves * slots:.3g} attempt slots over its "
                f"{n_leaves} leaves, beyond int64"
            )
        leaf_slots = n_leaves * round(slots)
        shape = (_BLOCK_TRIALS, n_leaves)
        link_time, completed = np.empty(cfg.trials), np.empty(cfg.trials)
        gaps = [np.empty((cfg.trials, n_leaves >> k)) for k in range(1, rep_cfg.n_levels + 1)]
        for start, rng in zip(range(0, cfg.trials, _BLOCK_TRIALS), _streams(cfg.seed)):
            stop = min(start + _BLOCK_TRIALS, cfg.trials)
            leaf = simulate_link(p_attempt, slot_s, rng, size=shape)[: stop - start]
            successes = rng.binomial(leaf_slots, p_attempt * p_swap, size=_BLOCK_TRIALS)
            link_time[start:stop] = leaf[:, 0]
            pairs_samples[start:stop] = successes[: stop - start] / n_leaves
            f, block_gaps = _merge_tree(leaf, f0, chain.gate, gamma_s)
            for out, rows in zip([completed, *gaps], [f, *block_gaps]):
                out[start:stop] = rows
        fidelity_samples = completed
    else:
        profile = build_profile(
            rep_cfg.geometry, rep_cfg.channel, rep_cfg.source.pair_fidelity
        )
        if not math.isclose(profile.flyby_duration_s, t_fb, rel_tol=1e-9):
            raise ValueError("profile and aggregates describe different passes")
        hazard = _herald_hazard(profile, p_attempt / agg.p0, slot_s)
        trial = _time_resolved_pass(profile, hazard, n_leaves, slot_s, p_swap)
        leaf_times = np.full((cfg.trials, n_leaves), math.nan)
        for i, rng in zip(range(cfg.trials), _streams(cfg.seed)):
            pairs_samples[i], leaf_times[i] = trial(rng)
        done = ~np.isnan(leaf_times[:, 0])
        link_time = leaf_times[done, 0]
        if link_time.size < cfg.trials:  # copy only to drop truncated trials
            leaf_times = leaf_times[done]
        completed, gaps = _merge_tree(leaf_times, f0, chain.gate, gamma_s)
        fidelity_samples = np.full(cfg.trials, math.nan)
        fidelity_samples[done] = completed
    return ChainEstimates(
        n_levels=rep_cfg.n_levels,
        trials=cfg.trials,
        seed=cfg.seed,
        time_model=cfg.time_model,
        t_fb_s=t_fb,
        gamma_s_hz=gamma_s,
        pairs=McEstimate.from_samples(pairs_samples),
        fidelity=McEstimate.from_samples(completed),
        link_time=McEstimate.from_samples(link_time),
        gap_by_level=tuple(McEstimate.from_samples(g.ravel()) for g in gaps),
        completed_fraction=completed.size / cfg.trials,
        pairs_samples=pairs_samples,
        fidelity_samples=fidelity_samples,
    )


def _herald_hazard(profile, scale: float, slot_s: float) -> np.ndarray:
    """One leaf's cumulative herald hazard H(t) on the profile's grid, the trapezoid
    integral of -log1p(-q) / slot_s for q = scale * eta_tr^2(t) clipped below 1."""
    q = np.clip(scale * profile.eta2_tr, 0.0, 1.0 - 1e-15)
    rate = -np.log1p(-q) / slot_s
    hazard = np.cumsum(np.diff(profile.times_s) * (rate[1:] + rate[:-1]) / 2.0)
    return np.concatenate(([0.0], hazard))


def _time_resolved_pass(profile, hazard, n_leaves, slot_s, p_swap):
    """``trial(rng)``, one flyby in time-resolved mode: the pair count and the
    leaf completion times of the first cascade (NaN if it never completed).
    The herald cap is checked and the values of the pass computed once.

    The walk runs in hazard space, Lambda = H(t), where each leaf's heralds
    form a unit-rate Poisson process; a herald at hazard Lambda is held from
    the end of the slot that contains H^-1(Lambda),
    ceil(H^-1(Lambda) / slot_s - 1e-12) * slot_s, and a herald past the pass
    end is lost.  The first cascade ends at the latest of the leaves'
    first heralds, at their own Exp(1) waits.  Slots are independent, so a
    cascade that restarts every leaf at slot boundary s ends at the first
    boundary at or after H^-1(H(s) + M), with M the largest of 2^n fresh
    Exp(1) waits, sum_j E_j / j over leaf ranks j = 1..2^n (Renyi).  So the
    hazard of K cascades is one jump, sum_j G_j / j with G_j ~ Gamma(K), for
    the largest K >= 64 with K mu + Z sigma sqrt(K) at most the hazard left
    (mu, sigma^2 the mean and variance of M, Z = :data:`_JUMP_Z`); each
    cascade after it draws its own M.

    Snapping to a slot end adds at most g = max(dH/dt) * slot_s of hazard
    per cascade, so the target H(s) + M of the k-th cascade after the first
    lies in [A_k, A_k + (k - 1) g], with A_k = H(s_1) + M_1 + ... + M_k.  A
    target at most H(t_FB - slot_s) is held inside the pass, one above
    H(t_FB) is not.  When both ends of the band, widened by the rounding of
    k steps, give the same count, that count is exact.  Otherwise, a jump
    past the pass end included, each G_j is split into K waits by a flat
    Dirichlet (:func:`_split_maxima`), their exact law given G_j, and
    :func:`_walk_cascades` walks the cascades one at a time.

    More than :data:`_MAX_HERALDS_PER_TRIAL` expected heralds over the
    leaves, or a count that is not finite, raises :class:`ValueError` before
    anything is drawn.
    """
    expected = n_leaves * hazard[-1]
    if not expected <= _MAX_HERALDS_PER_TRIAL:
        raise ValueError(
            f"a trial expects {expected:.3g} heralds over its {n_leaves} leaves, "
            f"beyond the time-resolved model's {_MAX_HERALDS_PER_TRIAL:.0e}"
        )
    t_grid = profile.times_s
    t_fb = profile.flyby_duration_s
    total = float(hazard[-1])
    slope_max = float(np.max(np.diff(hazard) / np.diff(t_grid)))
    g = slope_max * slot_s
    # Rounding one cascade step can move its hazard by this much.
    step_err = 8.0 * np.finfo(float).eps * (total + slope_max * t_fb) + 1e-12 * g
    rank = np.arange(1.0, n_leaves + 1)
    mean_max = float(np.sum(1.0 / rank))
    margin = _JUMP_Z * math.sqrt(float(np.sum(1.0 / rank**2)))
    held = float(np.interp(t_fb - slot_s, t_grid, hazard))

    def trial(rng: np.random.Generator) -> tuple[float, np.ndarray]:
        waits = rng.standard_exponential(n_leaves)
        if max(waits.tolist()) > total:
            return 0.0, np.full(n_leaves, math.nan)
        first = np.ceil(np.interp(waits, hazard, t_grid) / slot_s - 1e-12) * slot_s
        end = max(first.tolist())
        if end > t_fb:
            return 0.0, np.full(n_leaves, math.nan)
        h = float(np.interp(end, t_grid, hazard))
        # sqrt(K) solves mean_max K + margin sqrt(K) = total - h.
        root = (math.sqrt(margin**2 + 4.0 * mean_max * (total - h)) - margin) / mean_max / 2.0
        jumped = int(root * root) if root >= 8.0 else 0
        gammas = rng.standard_gamma(jumped, n_leaves) if jumped else np.zeros(n_leaves)
        base = h + float((gammas / rank).sum())
        chunk = max(int(1.2 * (total - base) / mean_max), 0) + 32
        maxima = _cascade_maxima(rng, n_leaves, chunk)
        targets = base + np.cumsum(maxima)
        while targets[-1] <= total + (jumped + targets.size) * step_err:
            more = _cascade_maxima(rng, n_leaves, chunk // 4 + 32)
            maxima = np.concatenate([maxima, more])
            targets = np.concatenate([targets, targets[-1] + np.cumsum(more)])
        slack = (jumped + targets.size) * step_err
        tail = int(np.searchsorted(targets, total + slack, side="right"))
        later = jumped + tail
        if later and (targets[tail - 1] if tail else base) + (later - 1) * g + slack > held:
            if jumped:
                maxima = np.concatenate([_split_maxima(rng, gammas, jumped), maxima])
            later = _walk_cascades(t_grid, hazard, slot_s, t_fb, end, h, maxima)
        return float(rng.binomial(1 + later, p_swap)), first

    return trial


def _cascade_maxima(rng: np.random.Generator, n_leaves: int, size: int) -> np.ndarray:
    """``size`` draws of the largest of ``n_leaves`` iid Exp(1) waits, each by
    inversion of one Exp(1) draw E: -log(1 - exp(-E / n_leaves))."""
    with np.errstate(divide="ignore"):  # E = 0 maps to an endless wait
        return -np.log(-np.expm1(-rng.standard_exponential(size) / n_leaves))


def _split_maxima(rng: np.random.Generator, gammas: np.ndarray, size: int) -> np.ndarray:
    """The maxima sum_j E_ij / j of ``size`` cascades whose rank-j terms sum to
    ``gammas[j - 1]``, split rank by rank by ``size`` Exp(1) draws over their sum."""
    maxima, split = np.zeros(size), np.empty(size)
    for j, total in enumerate(gammas.tolist(), start=1):
        rng.standard_exponential(out=split)
        split *= total / (j * split.sum())
        maxima += split
    return maxima


def _walk_cascades(
    t_grid: np.ndarray,
    hazard: np.ndarray,
    slot_s: float,
    t_fb: float,
    end: float,
    h: float,
    maxima: np.ndarray,
) -> int:
    """Cascades held inside the pass after the one ending at slot boundary
    ``end`` (hazard ``h``), the k-th ending at the slot boundary at or after
    H^-1(H(s) + maxima[k]), s the previous end.

    The exact lattice walk, one cascade per step in Python floats with the
    current interval of the piecewise-linear H cached, for the passes where
    the bounds of :func:`_time_resolved_pass` disagree.
    """
    times = t_grid.tolist()
    haz = hazard.tolist()
    dt = np.diff(t_grid)
    rise = np.diff(hazard)
    slopes = (rise / dt).tolist()
    inverse = np.divide(dt, rise, out=np.zeros_like(dt), where=rise > 0).tolist()
    # Grid interval i as (t_i, H_i, t_i+1, H_i+1, dH/dt, dt/dH).
    cells = list(zip(times, haz, times[1:], haz[1:], slopes, inverse))
    top = haz[-1]
    ceil = math.ceil
    i = min(bisect.bisect_right(times, end) - 1, len(cells) - 1)
    t0, h0, t1, h1, slope, inv = cells[i]
    done = 0
    for start in range(0, maxima.size, 65536):  # bounds the list of floats
        for m in maxima[start : start + 65536].tolist():
            target = h + m
            if target > h1:
                if target > top:
                    return done
                while haz[i + 1] < target:
                    i += 1
                t0, h0, t1, h1, slope, inv = cells[i]
            end = ceil((t0 + (target - h0) * inv) / slot_s - 1e-12) * slot_s
            if end > t1:
                if end > t_fb:
                    return done
                while times[i + 1] < end:
                    i += 1
                t0, h0, t1, h1, slope, inv = cells[i]
            h = h0 + (end - t0) * slope
            done += 1
    return done


@dataclass(frozen=True)
class McEntry:
    quantity: str
    analytic: float
    mc_mean: float
    mc_stderr: float
    z: float
    passed: bool


@dataclass(frozen=True)
class McReport:
    """Machine-readable comparison between analytic and Monte Carlo results:
    one row per quantity, and the Monte Carlo run the rows score."""

    entries: tuple[McEntry, ...]
    estimates: ChainEstimates

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        """JSON-ready mapping, NaN/inf mapped to None (JSON has no
        representation for them; the pass flags already encode the
        verdict)."""
        mc = self.estimates
        entries = []
        for e in self.entries:
            row = {"quantity": e.quantity, "pass": e.passed}
            for key in ("analytic", "mc_mean", "mc_stderr", "z"):
                value = getattr(e, key)
                row[key] = value if math.isfinite(value) else None
            entries.append(row)
        return {
            "n_levels": mc.n_levels,
            "trials": mc.trials,
            "seed": mc.seed,
            "time_model": mc.time_model,
            "completed_fraction": mc.completed_fraction,
            "tolerances": {
                "z_max": Z_MAX, "fidelity_rtol": FIDELITY_RTOL, "gap_rtol": GAP_RTOL
            },
            "entries": entries,
            "all_pass": self.all_pass,
        }


def _entry(name: str, analytic: float, mc: McEstimate, rtol: float | None) -> McEntry:
    """One report row.  It passes when |z| <= :data:`Z_MAX`, or, given a
    relative band ``rtol``, when the Monte Carlo mean lies within ``rtol``
    of a nonzero analytic value; the z-score is reported either way."""
    diff = mc.mean - analytic
    if math.isnan(diff) or math.isnan(mc.std_err):
        z = math.nan
    elif mc.std_err == 0.0:
        z = 0.0 if diff == 0.0 else math.inf
    else:
        z = diff / mc.std_err
    if rtol is None:
        passed = abs(z) <= Z_MAX
    else:
        passed = analytic != 0.0 and abs(diff) <= rtol * abs(analytic)
    return McEntry(name, analytic, mc.mean, mc.std_err, z, passed)


def compare_report(analytic: RepeaterResult, mc: ChainEstimates) -> McReport:
    """Line up Monte Carlo estimates against the analytic recursion.

    Bands: pairs-per-flyby and elementary link time are compared by z-score
    (their estimators were built so the means coincide); final fidelity by
    z-score when gamma_s = 0 (the sample is then deterministic) and by
    relative error :data:`FIDELITY_RTOL` otherwise; waiting gaps by relative
    error :data:`GAP_RTOL` against the (3/2)^(k-1)/2 rule, which fails
    levels 1 and 2, so ``satrep mc`` exits 3 at the baseline.  The report
    states the verdict, it does not fudge it.

    Raises ValueError when the analytic result and the MC run describe
    different chains (depth or pass duration mismatch).
    """
    waits = analytic.waiting_time_per_level
    if len(waits) != mc.n_levels:
        raise ValueError("analytic result and MC run have different depths")
    if not math.isclose(
        analytic.aggregates.flyby_duration_s, mc.t_fb_s, rel_tol=1e-9
    ):
        raise ValueError("analytic result and MC run describe different passes")
    rows = [
        ("pairs_per_flyby", analytic.pairs_per_flyby, mc.pairs, None),
        (
            "fidelity_final",
            analytic.fidelity_final,
            mc.fidelity,
            None if mc.gamma_s_hz == 0.0 else FIDELITY_RTOL,
        ),
        ("elementary_time_s", analytic.elementary_time_s, mc.link_time, None),
    ]
    for level, (rule, gap) in enumerate(zip(waits, mc.gap_by_level), start=1):
        rows.append((f"waiting_gap_level_{level}", rule, gap, GAP_RTOL))
    return McReport(tuple(_entry(*row) for row in rows), mc)
