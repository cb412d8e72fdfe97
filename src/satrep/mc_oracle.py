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

Reproducibility: block b of trials draws from its own counter-based stream
``Philox(key=[b, seed])``.  A constant-p block always draws all its 1024 trials,
so trial i depends only on (i, seed) and a run is a prefix of any longer run;
a time-resolved block is one trial, which draws one wait per leaf for its
first swap cascade and then one maximum of 2^n waits per later cascade.  The
in-block draw order is fixed and documented in :func:`simulate_chain`.
Constant-p blocks run concurrently on the CPUs this process may use; each
fills and merges only its own trials' rows, so no byte depends on the CPU
count.  Time-resolved trials (and sweeps) stay on one thread: their many
small numpy calls hold the GIL, and two threads made them 1.3-2.1x slower.

Comparison: :func:`compare_report` scores each quantity in one row of one
table, against the fixed bands :data:`Z_MAX`, :data:`FIDELITY_RTOL` and
:data:`GAP_RTOL`, and keeps the :class:`ChainEstimates` it scored, whose
per-trial samples every run returns.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .flyby import FlybyAggregates, FlybyProfile, build_profile
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
# time-resolved model refuses to draw.  A trial's arrays hold one entry per
# swap cascade, about 1/(2^n H_2^n) of its heralds (H_m the m-th harmonic
# number); they peak at 7.3 bytes per expected herald at 2 leaves and 1.1 at
# 8 (tracemalloc, channel.beam_waist_m=0.1: 2.8e6 and 1.1e7 heralds), so the
# cap keeps a trial under about 0.75 GB.  The baseline expects 2 x 5.7k.
_MAX_HERALDS_PER_TRIAL = 1e8
# Leaf times one simulate_chain run may draw: trials x 2^n, plus a block of
# _BLOCK_TRIALS x 2^n in constant-p, which keeps of them only each trial's
# gaps and first link time.  At most about 34 bytes each in runs above
# 50 MB (tracemalloc, 4 to 4096 leaves, every block of a run in flight at
# once), the cap keeps a run under about 0.7 GB; the baseline draws 1e5 x 4.
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
        if np.all(samples == samples[0]):
            return McEstimate(mean=float(samples[0]), std_err=0.0, n=n)
        with np.errstate(over="ignore"):
            mean, std = samples.mean(), samples.std(ddof=1)
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


def simulate_link(p_success, slot_s: float, rng: np.random.Generator, size=None):
    """Heralding time of one multiplexed elementary link: a geometric number
    of attempt slots (success probability ``p_success`` per slot) times the
    slot duration 1/(N_mux * R_s).  Mean is slot/p, the analytic T0.
    """
    if not 0.0 < p_success <= 1.0:
        raise ValueError("per-attempt success probability must lie in (0, 1]")
    if slot_s <= 0:
        raise ValueError("slot duration must be positive")
    return rng.geometric(p_success, size=size) * slot_s


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
    f = np.full(t.shape, f0)
    gaps: list[np.ndarray] = []
    while t.shape[-1] > 1:
        a, b = t[..., 0::2], t[..., 1::2]
        first = a <= b
        gap = np.where(first, b - a, a - b)
        early = np.where(first, f[..., 0::2], f[..., 1::2])
        late = np.where(first, f[..., 1::2], f[..., 0::2])
        with np.errstate(over="ignore"):  # gamma_s * gap = inf decays fully
            decayed = 0.25 + (early - 0.25) * np.exp(-gamma_s * gap)
        f = gate_factor * decayed * late
        t = np.maximum(a, b)
        gaps.append(gap)
    return f[..., 0], gaps


@functools.cache
def _thread_pool(pid: int, threads: int):
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads)


def _each_block(work, blocks: int) -> None:
    """Call ``work(b)`` for b in range(blocks), dealt over as many threads as
    there are blocks and CPUs this process may use: the calling thread and a
    pool each process makes on first use, each thread in a copy of the
    caller's context (numpy's error state).  Waits for every thread, then
    re-raises the first error."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(blocks, cpus)

    def run(first: int) -> None:
        for b in range(first, blocks, workers):
            work(b)

    pool = _thread_pool(os.getpid(), cpus - 1) if workers > 1 else None
    futures = [pool.submit(contextvars.copy_context().run, run, w) for w in range(1, workers)]
    try:
        run(0)
    finally:
        for future in futures:
            future.exception()  # waits without raising
    for future in futures:
        future.result()


def simulate_chain(
    cfg: McConfig,
    rep_cfg: RepeaterConfig,
    agg: FlybyAggregates,
) -> ChainEstimates:
    """Simulate ``cfg.trials`` independent flybys of a 2^n-link chain.

    Per-block draw order (fixed; changing it changes byte-level outputs):

    constant-p, ``_BLOCK_TRIALS`` trials per block, blocks run concurrently,
    each draw of shape (trials, 2^n) filled row by row, so row i holds trial
    i's leaves:
      1. geometric heralding slot counts,
      2. binomial herald counts over the whole pass,
      3. binomial thinning of the heralds by the swap-cascade probability.

    The pairs estimator credits each leaf herald with 1/2^n of a chain
    completion and thins by P_swap, so its expectation equals the analytic
    rate * T_FB up to the rounding of the pass to whole slots (relative error
    below 1e-12 for Table-scale parameters).  Fidelity and waiting gaps come
    from the merge tree over the leaf times of step 1.

    time-resolved, one trial per block:
      1. 2^n standard exponential waits, one per leaf in order: each leaf's
         first herald in hazard space (the cumulative herald hazard of one
         leaf, in which heralds form a unit-rate Poisson process), mapped to
         time and snapped up to its slot boundary;
      2. standard exponentials E, one per later cascade, each mapped to the
         largest of 2^n waits by -log(1 - exp(-E / 2^n)), drawn in chunks
         (1.2 x the hazard left after the first cascade over the mean
         maximum, plus 32; then a quarter of that, plus 32, at a time) until
         their sum passes the hazard left in the pass;
      3. one binomial draw: the successful swap cascades among those held
         inside the pass, each succeeding with the swap-cascade probability.
    A trial whose first cascade does not finish inside the pass stops after
    step 1.  The pass profile is built from ``rep_cfg``; aggregates of a
    pass of another duration raise ValueError.

    Each cascade consumes all 2^n held links and every leaf restarts; because
    slot attempts are independent, the next cascade ends where the hazard
    has grown by the largest of 2^n fresh waits, snapped up to a slot
    boundary (:func:`_time_resolved_trial`).  Fidelity and gaps are scored on
    the first completed cascade of each trial; trials whose first cascade
    does not finish before the pass ends contribute no fidelity sample, and
    ``completed_fraction`` records the fraction that did.  More than
    :data:`_MAX_LEAF_TIMES` leaf times, or an attempt slot duration of 0 or
    inf, raise ValueError before any allocation.
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
    t_fb = agg.flyby_duration_s
    chain = Chain(rep_cfg)
    p_attempt, p_swap = chain.herald_probability(agg.p0), chain.swap
    if not 0.0 < p_attempt <= 1.0:
        raise ValueError(f"per-attempt probability {p_attempt} outside (0, 1]")
    f0 = elementary_link_fidelity(agg.f_pair_avg, rep_cfg.node.caps_fidelity)
    gamma_s = rep_cfg.node.spin_decoherence_rate_hz

    pairs_samples = np.empty(cfg.trials)
    if cfg.time_model == "constant-p":
        slots_total = t_fb / slot_s
        if not slots_total < 2.0**63:
            raise ValueError(f"the pass holds {slots_total:.3g} attempt slots, beyond int64")
        slots_total = int(round(slots_total))
        shape = (_BLOCK_TRIALS, n_leaves)
        link_time, completed = np.empty(cfg.trials), np.empty(cfg.trials)
        gaps = [np.empty((cfg.trials, n_leaves >> k)) for k in range(1, rep_cfg.n_levels + 1)]

        def fill_block(b: int) -> None:
            rng, start = _block_rng(b, cfg.seed), b * _BLOCK_TRIALS
            stop = min(start + _BLOCK_TRIALS, cfg.trials)
            leaf = simulate_link(p_attempt, slot_s, rng, size=shape)[: stop - start]
            heralds = rng.binomial(slots_total, p_attempt, size=shape)
            successes = rng.binomial(heralds, p_swap)
            link_time[start:stop] = leaf[:, 0]
            pairs_samples[start:stop] = successes[: stop - start].sum(axis=1) / n_leaves
            f, block_gaps = _merge_tree(leaf, f0, chain.gate, gamma_s)
            for out, rows in zip([completed, *gaps], [f, *block_gaps]):
                out[start:stop] = rows

        _each_block(fill_block, -(-cfg.trials // _BLOCK_TRIALS))
        fidelity_samples = completed
    else:
        profile = build_profile(
            rep_cfg.geometry, rep_cfg.channel, rep_cfg.source.pair_fidelity
        )
        if not math.isclose(profile.flyby_duration_s, t_fb, rel_tol=1e-9):
            raise ValueError("profile and aggregates describe different passes")
        q = np.clip(p_attempt / agg.p0 * profile.eta2_tr, 0.0, 1.0 - 1e-15)
        rate = -np.log1p(-q) / slot_s
        hazard = np.cumsum(np.diff(profile.times_s) * (rate[1:] + rate[:-1]) / 2.0)
        hazard = np.concatenate(([0.0], hazard))
        leaf_times = np.full((cfg.trials, n_leaves), math.nan)
        for trial in range(cfg.trials):
            pairs_samples[trial], leaf_times[trial] = _time_resolved_trial(
                _block_rng(trial, cfg.seed), profile, hazard, n_leaves, slot_s, p_swap
            )
        done = ~np.isnan(leaf_times[:, 0])
        link_time = leaf_times[done, 0]
        completed, gaps = _merge_tree(leaf_times[done], f0, chain.gate, gamma_s)
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


def _time_resolved_trial(
    rng: np.random.Generator,
    profile: FlybyProfile,
    hazard: np.ndarray,
    n_leaves: int,
    slot_s: float,
    p_swap: float,
) -> tuple[float, np.ndarray]:
    """One flyby in time-resolved mode.  Returns the pair count and the leaf
    completion times of the first cascade (NaN if it never completed).

    The walk runs in hazard space, Lambda = H(t), where each leaf's heralds
    form a unit-rate Poisson process; a herald at hazard Lambda is held from
    the end of the slot that contains H^-1(Lambda),
    ceil(H^-1(Lambda) / slot_s - 1e-12) * slot_s, and a herald past the pass
    end is lost.  The first cascade ends at the latest of the leaves'
    first heralds, at their own Exp(1) waits.  Slots are independent, so a
    cascade that restarts every leaf at slot boundary s ends at the first
    boundary at or after H^-1(H(s) + M), with M the largest of 2^n fresh
    Exp(1) waits: one draw per cascade.

    Snapping to a slot end adds at most g = max(dH/dt) * slot_s of hazard
    per cascade, so the target H(s) + M of the k-th cascade after the first
    lies in [A_k, A_k + (k - 1) g], with A_k = H(s_1) + M_1 + ... + M_k.  A
    target at most H(t_FB - slot_s) is held inside the pass, one above
    H(t_FB) is not.  When both ends of the band, widened by the rounding of
    k steps, give the same count, that count is exact; otherwise
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
    never = (0.0, np.full(n_leaves, math.nan))
    waits = rng.standard_exponential(n_leaves)
    if waits.max() > total:
        return never
    first = np.ceil(np.interp(waits, hazard, t_grid) / slot_s - 1e-12) * slot_s
    end = float(first.max())
    if end > t_fb:
        return never

    slope_max = float(np.max(np.diff(hazard) / np.diff(t_grid)))
    g = slope_max * slot_s
    # Rounding one cascade step can move its hazard by this much.
    step_err = 8.0 * np.finfo(float).eps * (total + slope_max * t_fb) + 1e-12 * g
    h = float(np.interp(end, t_grid, hazard))
    mean_max = float(np.sum(1.0 / np.arange(1, n_leaves + 1)))
    chunk = int(1.2 * (total - h) / mean_max) + 32
    maxima = _cascade_maxima(rng, n_leaves, chunk)
    targets = h + np.cumsum(maxima)
    while targets[-1] <= total + targets.size * step_err:
        more = _cascade_maxima(rng, n_leaves, chunk // 4 + 32)
        maxima = np.concatenate([maxima, more])
        targets = np.concatenate([targets, targets[-1] + np.cumsum(more)])
    slack = targets.size * step_err
    later = int(np.searchsorted(targets, total + slack, side="right"))
    held = float(np.interp(t_fb - slot_s, t_grid, hazard))
    if later and targets[later - 1] + (later - 1) * g + slack > held:
        later = _walk_cascades(t_grid, hazard, slot_s, t_fb, end, h, maxima)
    return float(rng.binomial(1 + later, p_swap)), first


def _cascade_maxima(rng: np.random.Generator, n_leaves: int, size: int) -> np.ndarray:
    """``size`` draws of the largest of ``n_leaves`` iid Exp(1) waits, each by
    inversion of one Exp(1) draw E: -log(1 - exp(-E / n_leaves))."""
    with np.errstate(divide="ignore"):  # E = 0 maps to an endless wait
        return -np.log(-np.expm1(-rng.standard_exponential(size) / n_leaves))


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
    the bounds of :func:`_time_resolved_trial` disagree.
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
    if len(analytic.waiting_time_per_level) != mc.n_levels:
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
    for level, (rule, gap) in enumerate(
        zip(analytic.waiting_time_per_level, mc.gap_by_level), start=1
    ):
        rows.append((f"waiting_gap_level_{level}", rule, gap, GAP_RTOL))
    return McReport(tuple(_entry(*row) for row in rows), mc)
