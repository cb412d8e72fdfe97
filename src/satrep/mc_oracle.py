"""Monte Carlo cross-check of the analytic repeater recursions.

Simulates heralded elementary-link generation and the pairwise swap cascade at
the event level, then compares distributional estimates against the closed-form
rate and fidelity recursions.  Two time models:

``constant-p``
    Every attempt slot succeeds with the flyby-averaged herald probability
    :func:`~satrep.repeater.herald_probability`, the same product the
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

Reproducibility: every trial draws from its own counter-based stream,
``Philox(key=[trial_index, seed])``, so serial and parallel execution (and any
trial-order shuffle) produce bit-identical results.  The in-trial draw order is
fixed and documented in :func:`simulate_chain`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .flyby import FlybyAggregates, FlybyProfile, build_profile
from .node import elementary_link_fidelity
from .repeater import RepeaterConfig, RepeaterResult, herald_probability, swap_probability

__all__ = [
    "ChainEstimates",
    "McConfig",
    "McEstimate",
    "McReport",
    "McTolerances",
    "compare_report",
    "simulate_chain",
    "simulate_link",
]

_TIME_MODELS = ("constant-p", "time-resolved")


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
    error, turning an exact agreement into a huge z-score.)
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
        mean = float(samples.mean())
        std_err = float(samples.std(ddof=1) / math.sqrt(n))
        return McEstimate(mean=mean, std_err=std_err, n=n)


@dataclass(frozen=True)
class ChainEstimates:
    """Distributional estimates from one simulate_chain run, plus enough
    config echo to check comparisons against the matching analytic result."""

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
    pairs_samples: np.ndarray | None = field(default=None, repr=False)
    fidelity_samples: np.ndarray | None = field(default=None, repr=False)


def _trial_rng(trial_index: int, seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[trial_index, seed]))


def simulate_link(p_success, slot_s: float, rng: np.random.Generator, size=None):
    """Heralding time of one multiplexed elementary link: a geometric number
    of attempt slots (success probability ``p_success`` per slot) times the
    slot duration 1/(N_mux * R_s).  Mean is slot/p, the analytic T0.
    """
    if not 0.0 < p_success <= 1.0:
        raise ValueError("per-attempt success probability must lie in (0, 1]")
    if slot_s <= 0:
        raise ValueError("slot duration must be positive")
    draws = rng.geometric(p_success, size=size)
    return draws * slot_s


def _merge_tree(
    times: np.ndarray, f0: float, gate_factor: float, gamma_s: float
) -> tuple[float, list[np.ndarray]]:
    """Fold 2^n leaf completion times pairwise up the swap tree.

    A parent completes when the later child does; the earlier child's Werner
    parameter decays over the actual gap (1/4 + (F - 1/4) e^{-gamma_s gap},
    the werner_fidelity_decay law applied elementwise) before the swap
    multiplies the two parameters and the gate/readout factor.  Returns the
    final Werner parameter and the per-level arrays of gaps.
    """
    t = times
    f = np.full(times.shape, f0)
    gaps: list[np.ndarray] = []
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


def simulate_chain(
    cfg: McConfig,
    rep_cfg: RepeaterConfig,
    agg: FlybyAggregates,
    profile: FlybyProfile | None = None,
    keep_samples: bool = False,
) -> ChainEstimates:
    """Simulate ``cfg.trials`` independent flybys of a 2^n-link chain.

    Per-trial draw order (fixed; changing it changes byte-level outputs):

    constant-p:
      1. geometric heralding slot counts for the 2^n leaves,
      2. binomial herald count per leaf over the whole pass,
      3. binomial thinning of the heralds by the swap-cascade probability.

    The pairs estimator credits each leaf herald with 1/2^n of a chain
    completion and thins by P_swap, so its expectation equals the analytic
    rate * T_FB up to the rounding of the pass to whole slots (relative error
    below 1e-12 for Table-scale parameters).  Fidelity and waiting gaps come
    from the merge tree over the leaf times of step 1.

    time-resolved:
      1. per leaf (in order), exponential increments defining an inhomogeneous
         Poisson herald process with per-slot success q(t) proportional to the
         instantaneous two-photon transmission, snapped up to slot boundaries;
      2. one uniform per completed swap cascade (cascade success Bernoulli).

    Each cascade consumes all 2^n held links and every leaf restarts; because
    slot attempts are independent, restarting equals continuing the realized
    process past the restart time, which is how the walk is implemented.
    Fidelity and gaps are scored on the first completed cascade of each trial;
    trials whose first cascade does not finish before the pass ends contribute
    no fidelity sample, and ``completed_fraction`` records the fraction that
    did.
    """
    if rep_cfg.n_levels < 1:
        raise ValueError("chain simulation requires at least one swap level")
    n_leaves = rep_cfg.n_links
    slot_s = rep_cfg.slot_s
    t_fb = agg.flyby_duration_s
    p_attempt = herald_probability(rep_cfg, agg.p0)
    if not 0.0 < p_attempt <= 1.0:
        raise ValueError(f"per-attempt probability {p_attempt} outside (0, 1]")
    p_swap = swap_probability(rep_cfg.n_levels, rep_cfg.gate_efficiency)
    f0 = elementary_link_fidelity(agg.f_pair_avg, rep_cfg.node.caps_fidelity)
    gate_factor = (
        rep_cfg.node.rydberg_gate_fidelity * rep_cfg.node.readout_fidelity**2
    )
    gamma_s = rep_cfg.node.spin_decoherence_rate_hz

    if cfg.time_model == "time-resolved":
        if profile is None:
            profile = build_profile(
                rep_cfg.geometry, rep_cfg.channel, rep_cfg.source.pair_fidelity
            )
        if not math.isclose(profile.flyby_duration_s, t_fb, rel_tol=1e-9):
            raise ValueError("profile and aggregates describe different passes")

    pairs_samples = np.empty(cfg.trials)
    link_samples = np.full(cfg.trials, math.nan)
    fidelity_samples = np.full(cfg.trials, math.nan)
    gap_samples: list[list[float]] = [[] for _ in range(rep_cfg.n_levels)]

    for trial in range(cfg.trials):
        rng = _trial_rng(trial, cfg.seed)
        if cfg.time_model == "constant-p":
            leaf_times = simulate_link(p_attempt, slot_s, rng, size=n_leaves)
            slots_total = int(round(t_fb / slot_s))
            heralds = rng.binomial(slots_total, p_attempt, size=n_leaves)
            successes = rng.binomial(heralds, p_swap)
            pairs_samples[trial] = successes.sum() / n_leaves
            first_cycle = leaf_times
        else:
            pairs, first_cycle = _time_resolved_trial(
                rng, profile, rep_cfg, p_swap, slot_s, p_attempt / agg.p0
            )
            pairs_samples[trial] = pairs
        if first_cycle is not None:
            link_samples[trial] = first_cycle[0]
            final_f, gaps = _merge_tree(first_cycle, f0, gate_factor, gamma_s)
            fidelity_samples[trial] = final_f
            for level, g in enumerate(gaps):
                gap_samples[level].extend(g.tolist())

    completed = fidelity_samples[~np.isnan(fidelity_samples)]
    estimates = ChainEstimates(
        n_levels=rep_cfg.n_levels,
        trials=cfg.trials,
        seed=cfg.seed,
        time_model=cfg.time_model,
        t_fb_s=t_fb,
        gamma_s_hz=gamma_s,
        pairs=McEstimate.from_samples(pairs_samples),
        fidelity=McEstimate.from_samples(completed),
        link_time=McEstimate.from_samples(link_samples[~np.isnan(link_samples)]),
        gap_by_level=tuple(
            McEstimate.from_samples(np.array(g)) for g in gap_samples
        ),
        completed_fraction=completed.size / cfg.trials,
        pairs_samples=pairs_samples if keep_samples else None,
        fidelity_samples=fidelity_samples if keep_samples else None,
    )
    return estimates


def _event_times(
    rng: np.random.Generator,
    t_grid: np.ndarray,
    hazard_grid: np.ndarray,
    slot_s: float,
    t_fb: float,
) -> np.ndarray:
    """Realize one leaf's herald process over the whole pass.

    Success times of independent per-slot Bernoulli attempts with slowly
    varying probability are generated as an inhomogeneous Poisson process with
    per-slot rate -log(1 - q)/slot (exact per-slot survival), then snapped up
    to the owning slot boundary and deduplicated.
    """
    total = hazard_grid[-1]
    expected = int(total) + 1
    increments = rng.exponential(size=max(64, int(1.2 * expected) + 32))
    cum = np.cumsum(increments)
    while cum[-1] < total:
        more = rng.exponential(size=max(64, expected // 4 + 16))
        cum = np.concatenate([cum, cum[-1] + np.cumsum(more)])
    cum = cum[cum <= total]
    raw = np.interp(cum, hazard_grid, t_grid)
    snapped = np.ceil(raw / slot_s - 1e-12) * slot_s
    snapped = np.unique(snapped)
    return snapped[snapped <= t_fb]


def _time_resolved_trial(
    rng: np.random.Generator,
    profile: FlybyProfile,
    rep_cfg: RepeaterConfig,
    p_swap: float,
    slot_s: float,
    p_scale: float,
) -> tuple[float, np.ndarray | None]:
    """One flyby in time-resolved mode.  Returns the pair count and the leaf
    completion times of the first cascade (None if it never completed)."""
    q = np.clip(p_scale * profile.eta2_tr, 0.0, 1.0 - 1e-15)
    rate = -np.log1p(-q) / slot_s
    hazard = np.concatenate(
        ([0.0], np.cumsum(np.diff(profile.times_s) * (rate[1:] + rate[:-1]) / 2.0))
    )
    t_fb = profile.flyby_duration_s
    n_leaves = rep_cfg.n_links
    events = [
        _event_times(rng, profile.times_s, hazard, slot_s, t_fb)
        for _ in range(n_leaves)
    ]
    pairs = 0.0
    first_cycle: np.ndarray | None = None
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


@dataclass(frozen=True)
class McTolerances:
    """Pass/fail bands for the comparison report: |z| for quantities whose
    estimator mean equals the analytic value by construction, relative error
    for quantities where the analytic formula is itself an approximation.

    ``gap_rtol`` bands the waiting gaps against the (3/2)^(k-1)/2 * T0 rule,
    whose real deviation from the exact mean gap 2 (H_2^k - H_2^(k-1)) T0,
    relative to the rule, is 100%, 56% and 13% at levels 1-3 and 21%, 46%
    and 64% at levels 4-6; the default 15% therefore fails levels 1 and 2.
    """

    z_max: float = 3.0
    fidelity_rtol: float = 0.01
    gap_rtol: float = 0.15

    def __post_init__(self) -> None:
        if self.z_max < 0 or self.fidelity_rtol < 0 or self.gap_rtol < 0:
            raise ValueError("tolerances must be >= 0")


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
    """Machine-readable comparison between analytic and Monte Carlo results."""

    n_levels: int
    trials: int
    seed: int
    time_model: str
    completed_fraction: float
    tolerances: McTolerances
    entries: tuple[McEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "n_levels": self.n_levels,
            "trials": self.trials,
            "seed": self.seed,
            "time_model": self.time_model,
            "completed_fraction": self.completed_fraction,
            "tolerances": {
                "z_max": self.tolerances.z_max,
                "fidelity_rtol": self.tolerances.fidelity_rtol,
                "gap_rtol": self.tolerances.gap_rtol,
            },
            "entries": [
                {
                    "quantity": e.quantity,
                    "analytic": _json_number(e.analytic),
                    "mc_mean": _json_number(e.mc_mean),
                    "mc_stderr": _json_number(e.mc_stderr),
                    "z": _json_number(e.z),
                    "pass": e.passed,
                }
                for e in self.entries
            ],
            "all_pass": self.all_pass,
        }

    def to_json(self) -> str:
        """Deterministic serialization: sorted keys, NaN/inf mapped to null
        (JSON has no representation for them; the pass flags already encode
        the verdict)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _json_number(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _z_score(analytic: float, mc: McEstimate) -> float:
    diff = mc.mean - analytic
    if math.isnan(diff) or math.isnan(mc.std_err):
        return math.nan
    if mc.std_err == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / mc.std_err


def _z_entry(name: str, analytic: float, mc: McEstimate, z_max: float) -> McEntry:
    z = _z_score(analytic, mc)
    return McEntry(
        quantity=name,
        analytic=analytic,
        mc_mean=mc.mean,
        mc_stderr=mc.std_err,
        z=z,
        passed=(not math.isnan(z)) and abs(z) <= z_max,
    )


def _relative_entry(name: str, analytic: float, mc: McEstimate, rtol: float) -> McEntry:
    z = _z_score(analytic, mc)
    ok = (
        not math.isnan(mc.mean)
        and analytic != 0.0
        and abs(mc.mean - analytic) <= rtol * abs(analytic)
    )
    return McEntry(
        quantity=name,
        analytic=analytic,
        mc_mean=mc.mean,
        mc_stderr=mc.std_err,
        z=z,
        passed=ok,
    )


def compare_report(
    analytic: RepeaterResult,
    mc: ChainEstimates,
    tolerances: McTolerances | None = None,
) -> McReport:
    """Line up Monte Carlo estimates against the analytic recursion.

    Bands: pairs-per-flyby and elementary link time are compared by z-score
    (their estimators were built so the means coincide); final fidelity by
    z-score when gamma_s = 0 (the sample is then deterministic) and by
    relative error otherwise; waiting gaps by relative error against the
    (3/2)^(k-1)/2 rule, which is a literature heuristic rather than the exact
    expected order-statistic gap 2 (H_2^k - H_2^(k-1)) T0.  Relative to the
    rule, the exact gap is 100%, 56% and 13% higher at levels 1-3, so at the
    default 15% band the level-1 and level-2 rows fail and ``satrep mc``
    exits 3 at the baseline.  With zero tolerances every stochastic quantity
    fails; the report states the verdict, it does not fudge it.

    Raises ValueError when the analytic result and the MC run describe
    different chains (depth or pass duration mismatch).
    """
    if tolerances is None:
        tolerances = McTolerances()
    if len(analytic.waiting_time_per_level) != mc.n_levels:
        raise ValueError("analytic result and MC run have different depths")
    if not math.isclose(
        analytic.aggregates.flyby_duration_s, mc.t_fb_s, rel_tol=1e-9
    ):
        raise ValueError("analytic result and MC run describe different passes")
    entries = [
        _z_entry("pairs_per_flyby", analytic.pairs_per_flyby, mc.pairs, tolerances.z_max)
    ]
    if mc.gamma_s_hz == 0.0:
        entries.append(
            _z_entry(
                "fidelity_final", analytic.fidelity_final, mc.fidelity, tolerances.z_max
            )
        )
    else:
        entries.append(
            _relative_entry(
                "fidelity_final",
                analytic.fidelity_final,
                mc.fidelity,
                tolerances.fidelity_rtol,
            )
        )
    entries.append(
        _z_entry(
            "elementary_time_s", analytic.elementary_time_s, mc.link_time, tolerances.z_max
        )
    )
    for level, gap in enumerate(mc.gap_by_level, start=1):
        entries.append(
            _relative_entry(
                f"waiting_gap_level_{level}",
                analytic.waiting_time_per_level[level - 1],
                gap,
                tolerances.gap_rtol,
            )
        )
    return McReport(
        n_levels=mc.n_levels,
        trials=mc.trials,
        seed=mc.seed,
        time_model=mc.time_model,
        completed_fraction=mc.completed_fraction,
        tolerances=tolerances,
        entries=tuple(entries),
    )
