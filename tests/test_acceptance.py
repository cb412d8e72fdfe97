"""End-to-end acceptance checks.

Each test evaluates one documented claim about the assembled pipeline and
prints a single ``criterion NN: PASS/FAIL`` line before asserting, so a full
run reads as a checklist.  The criteria are asserted as stated, at their
stated tolerances — a criterion the model genuinely does not meet stays red
rather than being loosened to pass.
"""

import dataclasses
import math

import numpy as np
from scipy.optimize import bisect, brentq

from satrep.config import load_scenario
from satrep.flyby import (
    CONVERGENCE_RTOL,
    GAUSS_NODES,
    FlybyProfile,
    _gauss_legendre,
    build_profile,
    pass_aggregates,
)
from satrep.mc_oracle import McConfig, compare_report, simulate_chain
from satrep.node import (
    CavityParams,
    caps_success,
    decohere_matrix,
    optimal_external_coupling,
    reflectivities,
    source_state,
    werner_fidelity_decay,
    werner_matrix,
)
from satrep.orbit import (
    OrbitGeometry,
    angular_speed,
    pass_timing,
    slant_distance,
    zenith_angle,
)
from satrep.repeater import distance_sweep, evaluate, evaluate_with_aggregates
from simpson_reference import average_pair_fidelity, average_two_photon

DISTANCE_GRID_M = [1.0e7, 1.25e7, 1.5e7, 1.75e7, 2.0e7]


def _report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d}: {verdict} — {detail}"
    print(line)
    assert ok, line


def chain(l_total_m, n_levels, altitude_m=1.5e6, detector_exponent=1, overrides=()):
    scenario = load_scenario(None, tuple(overrides))
    base = scenario.repeater
    geom = dataclasses.replace(
        base.geometry, altitude_m=altitude_m, link_length_m=l_total_m / 2**n_levels
    )
    return dataclasses.replace(
        base, geometry=geom, n_levels=n_levels, detector_exponent=detector_exponent
    )


def _bell(werner_p: float) -> float:
    """Bell-state fidelity (1 + 3p)/4 of a Werner state with parameter p."""
    return (1.0 + 3.0 * werner_p) / 4.0


# Criteria 01 and 02 are red, and their bands stay as stated until the paper's
# full text (parameter table and the figures the bands were read from) is in
# the repository.  ``fidelity_final`` is a Werner parameter p, while the bands
# read like Bell-state fidelities, so the detail lines print (1+3p)/4 beside
# it; on that scale criterion 01's fidelities and criterion 02's 4-link value
# would pass, but its 8-link value would still sit above 0.83.  The pairs
# shortfall of criterion 01 is structural: bands 01 and 04 together need
# pairs(10000 km)/pairs(20000 km) >= 16.7 and the model gives about 13.8, so no
# uniform rescaling meets both.


def test_criterion_01():
    # 4 links over 10000 km at 1500 km altitude: > 10000 pairs per flyby at
    # final fidelity > 0.90, under either detector-exponent convention.
    r1 = evaluate(chain(1.0e7, 2, detector_exponent=1))
    r2 = evaluate(chain(1.0e7, 2, detector_exponent=2))
    ok = (
        r1.pairs_per_flyby > 10_000
        and r1.fidelity_final > 0.90
        and r2.pairs_per_flyby > 10_000
        and r2.fidelity_final > 0.90
    )
    _report(
        1,
        ok,
        f"4-link 10000 km: pairs {r1.pairs_per_flyby:.1f} (exp 2: "
        f"{r2.pairs_per_flyby:.1f}) vs > 10000; Werner p {r1.fidelity_final:.4f} "
        f"(exp 2: {r2.fidelity_final:.4f}) vs > 0.90 [(1+3p)/4: "
        f"{_bell(r1.fidelity_final):.4f}, exp 2: {_bell(r2.fidelity_final):.4f}]",
    )


def test_criterion_02():
    # 20000 km end to end at 1500 km altitude: fidelity anchors for the 4- and
    # 8-link chains, each read off with +/-0.02 leeway.
    f4 = evaluate(chain(2.0e7, 2)).fidelity_final
    f8 = evaluate(chain(2.0e7, 3)).fidelity_final
    ok = 0.82 <= f4 <= 0.86 and 0.79 <= f8 <= 0.83
    _report(
        2,
        ok,
        f"20000 km Werner p: 4-link {f4:.4f} vs [0.82, 0.86] [(1+3p)/4: "
        f"{_bell(f4):.4f}]; 8-link {f8:.4f} vs [0.79, 0.83] [(1+3p)/4: "
        f"{_bell(f8):.4f}]",
    )


def test_criterion_03():
    result = evaluate(chain(2.0e7, 3, altitude_m=1.0e6))
    ok = 1500 <= result.pairs_per_flyby <= 6000
    _report(
        3,
        ok,
        f"8-link 20000 km at 1000 km altitude: pairs {result.pairs_per_flyby:.1f} "
        f"vs [1500, 6000]",
    )


def test_criterion_04():
    result = evaluate(chain(2.0e7, 2))
    ok = 150 <= result.pairs_per_flyby <= 600
    _report(
        4,
        ok,
        f"4-link 20000 km at 1500 km altitude: pairs {result.pairs_per_flyby:.1f} "
        f"vs [150, 600]",
    )


def test_criterion_05():
    root = bisect(lambda c: caps_success(c) - 0.75, 1.0, 300.0, xtol=1e-10)
    root_ok = abs(root - 96.49) <= 0.05

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        probe = CavityParams(
            g=rng.uniform(1e5, 1e8),
            kappa_in=rng.uniform(1e4, 1e7),
            kappa_ex=1.0,
            gamma=rng.uniform(1e3, 1e6),
        )
        cavity = dataclasses.replace(probe, kappa_ex=optimal_external_coupling(probe))
        r0, r1 = reflectivities(cavity)
        worst = max(worst, abs(r0 + r1))
    balance_ok = worst < 1e-12

    ok = root_ok and balance_ok
    _report(
        5,
        ok,
        f"success-probability root at cooperativity {root:.4f} vs 96.49 +/- 0.05; "
        f"max |r0 + r1| over 1000 optimal cavities {worst:.2e} vs < 1e-12",
    )


def _invert_pass_start(geom: OrbitGeometry) -> float:
    """Independent t0: invert zenith(d) = theta_max over the orbital phase.

    The slant distance at phase angle phi from closest approach is
    d(phi)^2 = R_E^2 + r_o^2 - 2 R_E r_o cos(L0 / 2 R_E) cos(phi); the
    satellite crosses the joint horizon at cos(phi_h) = R_E / (r_o cos_half),
    so the mask crossing is bracketed by [0, phi_h) and found by root search.
    Returns 0 when there is no joint-visibility window.
    """
    r_e = geom.earth_radius_m
    r_o = geom.orbit_radius_m
    cos_half = math.cos(geom.link_length_m / (2.0 * r_e))
    if r_o * cos_half <= r_e:
        return 0.0  # even the joint horizon is never crossed

    def d_of(phi: float) -> float:
        return math.sqrt(
            r_e**2 + r_o**2 - 2.0 * r_e * r_o * cos_half * math.cos(phi)
        )

    if zenith_angle(geom, d_of(0.0)) >= geom.max_zenith_rad:
        return 0.0  # mask is tighter than the closest approach
    phi_h = math.acos(r_e / (r_o * cos_half))
    phi_star = brentq(
        lambda phi: zenith_angle(geom, d_of(phi)) - geom.max_zenith_rad,
        0.0,
        phi_h * (1.0 - 1e-12),
        xtol=1e-14,
        rtol=1e-14,
    )
    return phi_star / angular_speed(geom)


def test_criterion_06():
    altitudes = [5.0e5, 8.0e5, 1.0e6, 1.5e6, 2.0e6]
    links = [5.0e5, 1.25e6, 2.5e6, 4.0e6, 6.0e6]
    masks_deg = [60.0, 70.0, 80.0, 85.0]
    checked = skipped = 0
    worst = 0.0
    for h in altitudes:
        for l0 in links:
            for mask in masks_deg:
                geom = OrbitGeometry(
                    altitude_m=h,
                    link_length_m=l0,
                    max_zenith_rad=math.radians(mask),
                )
                t0_closed = pass_timing(geom).t0_s
                t0_oracle = _invert_pass_start(geom)
                if t0_oracle == 0.0:
                    assert t0_closed == 0.0
                    skipped += 1
                    continue
                checked += 1
                worst = max(worst, abs(t0_closed - t0_oracle) / t0_oracle)
    assert checked + skipped == 100
    assert checked >= 50  # the grid must actually exercise the formula

    sym_worst = 0.0
    for h, l0 in [(1.5e6, 2.5e6), (1.0e6, 1.25e6), (2.0e6, 5.0e6)]:
        geom = OrbitGeometry(altitude_m=h, link_length_m=l0)
        timing = pass_timing(geom)
        delta = np.linspace(0.0, timing.t0_s, 101)
        before = slant_distance(geom, timing, timing.t0_s - delta)
        after = slant_distance(geom, timing, timing.t0_s + delta)
        sym_worst = max(sym_worst, float(np.max(np.abs(before - after) / before)))

    ok = worst < 1e-6 and sym_worst < 1e-9
    _report(
        6,
        ok,
        f"closed-form pass start vs numerical inversion: worst relative "
        f"difference {worst:.2e} over {checked} visible geometries vs < 1e-6; "
        f"slant-distance symmetry about closest approach {sym_worst:.2e} vs < 1e-9",
    )


def test_criterion_07():
    scenario = load_scenario(None)
    geom, channel = scenario.repeater.geometry, scenario.repeater.channel
    coarse = build_profile(geom, channel, 0.998, n_samples=2001)
    fine = build_profile(geom, channel, 0.998, n_samples=4001)
    p0_c, fbar_c = average_two_photon(coarse), average_pair_fidelity(coarse)
    p0_f, fbar_f = average_two_photon(fine), average_pair_fidelity(fine)
    p0_rel = abs(p0_f - p0_c) / p0_f
    fbar_rel = abs(fbar_f - fbar_c) / fbar_f

    t = np.linspace(0.0, 10.0, 2001)
    ones = np.ones_like(t)
    sine = np.sin(math.pi * t / 10.0)
    synthetic = FlybyProfile(
        times_s=t,
        slant_m=ones,
        zenith_rad=ones,
        eta_tr=np.sqrt(sine),
        eta2_tr=sine,
        f_pair=ones,
        flyby_duration_s=10.0,
    )
    sine_avg = average_two_photon(synthetic)
    sine_rel = abs(sine_avg - 2.0 / math.pi) / (2.0 / math.pi)

    ok = p0_rel < 1e-6 and fbar_rel < 1e-6 and sine_rel < 1e-6
    _report(
        7,
        ok,
        f"grid doubling: transmission average moved {p0_rel:.2e}, fidelity "
        f"average {fbar_rel:.2e} (both vs < 1e-6); half-sine average vs 2/pi "
        f"off by {sine_rel:.2e}",
    )


def test_gauss_ladder_refinement():
    # Criterion 07's refinement check on the rule the outputs use: the
    # baseline's converged aggregates against the finest Gauss-Legendre rule
    # of the ladder, and a half-sine mean under the 64-node rule.
    cfg = load_scenario(None).repeater
    geom, channel, fidelity = cfg.geometry, cfg.channel, cfg.source.pair_fidelity
    agg = pass_aggregates(geom, channel, fidelity)
    fractions, weights = _gauss_legendre(GAUSS_NODES[-1])
    finest = build_profile(geom, channel, fidelity, fractions=fractions)
    p0 = weights @ finest.eta2_tr
    fbar = weights @ (finest.f_pair * finest.eta2_tr) / p0
    assert abs(agg.p0 - p0) / p0 < CONVERGENCE_RTOL
    assert abs(agg.f_pair_avg - fbar) / fbar < CONVERGENCE_RTOL

    fractions, weights = _gauss_legendre(64)
    sine_mean = weights @ np.sin(math.pi * fractions)
    assert abs(sine_mean - 2.0 / math.pi) < 1e-12


def test_criterion_08():
    base = load_scenario(None).repeater
    agg = pass_aggregates(base.geometry, base.channel, base.source.pair_fidelity)
    details = []
    ok = True

    # (a) exactly solvable corner: no decay, perfect gates, depths 1 and 2
    ideal_node = dataclasses.replace(
        base.node,
        rydberg_gate_fidelity=1.0,
        readout_fidelity=1.0,
        spin_decoherence_rate_hz=0.0,
    )
    for n in (1, 2):
        cfg = dataclasses.replace(base, node=ideal_node, n_levels=n)
        analytic = evaluate_with_aggregates(cfg, agg)
        mc = simulate_chain(McConfig(trials=100_000, seed=1), cfg, agg)
        entries = {e.quantity: e for e in compare_report(analytic, mc).entries}
        z_pairs = entries["pairs_per_flyby"].z
        z_fid = entries["fidelity_final"].z
        part = abs(z_pairs) <= 3.0 and abs(z_fid) <= 3.0
        ok = ok and part
        details.append(f"depth {n} z(pairs)={z_pairs:+.2f} z(fid)={z_fid:+.2f}")

    # (b) physical decay rate: fidelity within 1% relative
    analytic = evaluate_with_aggregates(base, agg)
    mc = simulate_chain(McConfig(trials=100_000, seed=1), base, agg)
    fid = {e.quantity: e for e in compare_report(analytic, mc).entries}[
        "fidelity_final"
    ]
    rel = abs(fid.mc_mean - fid.analytic) / abs(fid.analytic)
    part = rel <= 0.01
    ok = ok and part
    details.append(f"decayed fidelity rel dev {rel:.3%} vs <= 1%")

    # (c) waiting gaps at the first three levels against their exact mean.
    # The leaves are iid geometric with p ~ 6e-9 per slot, i.e. exponential
    # with mean T0 to within O(p).  A level-k sub-chain completes at the
    # latest of its 2^(k-1) leaves, so the gap between two sibling sub-chains
    # is |X - Y| for iid maxima of m = 2^(k-1) exponentials, and
    # E|X - Y| = 2 E[max of 2m] - 2 E[max of m] = 2 (H_2m - H_m) T0.
    # The (3/2)^(k-1)/2 rule the recursion uses is reported, not asserted.
    cfg3 = dataclasses.replace(base, n_levels=3)
    analytic3 = evaluate_with_aggregates(cfg3, agg)
    mc3 = simulate_chain(McConfig(trials=20_000, seed=1), cfg3, agg)
    t0 = analytic3.elementary_time_s
    gap_zs = []
    rule_devs = []
    for level, (gap, t_rule) in enumerate(
        zip(mc3.gap_by_level, analytic3.waiting_time_per_level), start=1
    ):
        m = 2 ** (level - 1)
        exact = 2.0 * sum(1.0 / j for j in range(m + 1, 2 * m + 1)) * t0
        z = (gap.mean - exact) / gap.std_err
        gap_zs.append(f"level {level}: {z:+.2f}")
        rule_devs.append(f"{abs(gap.mean - t_rule) / t_rule:.1%}")
        ok = ok and abs(z) <= 3.0
    details.append(
        "z(gap) vs exact 2(H_2^k - H_2^(k-1))*T0: "
        + ", ".join(gap_zs)
        + " vs |z| <= 3 (the (3/2)^(k-1)/2 rule is off by "
        + "/".join(rule_devs)
        + ")"
    )

    _report(8, ok, "; ".join(details))


def test_criterion_09():
    rng = np.random.default_rng(77)

    comp_ok = True
    comp_worst = 0.0
    for _ in range(1000):
        f = rng.uniform(-1.0 / 3.0, 1.0)
        gamma_s = rng.uniform(0.0, 5.0)
        t1, t2 = rng.uniform(0.0, 50.0, size=2)
        stepped = werner_fidelity_decay(
            werner_fidelity_decay(f, gamma_s, t1), gamma_s, t2
        )
        direct = werner_fidelity_decay(f, gamma_s, t1 + t2)
        comp_ok = comp_ok and math.isclose(
            stepped, direct, rel_tol=1e-12, abs_tol=1e-12
        )
        comp_worst = max(comp_worst, abs(stepped - direct))

    state_ok = True
    for _ in range(1000):
        state = source_state(rng.uniform(0.25, 1.0))
        rho = state.rho
        state_ok = state_ok and np.array_equal(rho, rho.conj().T)
        state_ok = state_ok and abs(state.trace - 1.0) < 1e-14
        state_ok = state_ok and np.linalg.eigvalsh(rho).min() >= -1e-12

    trace_ok = True
    for _ in range(1000):
        f = rng.uniform(-1.0 / 3.0, 1.0)
        out = decohere_matrix(
            werner_matrix(f), 0.0, rng.uniform(0.0, 2.0), rng.uniform(0.0, 100.0)
        )
        trace_ok = trace_ok and out.trace == 1.0  # exactly, per the claim

    ok = comp_ok and state_ok and trace_ok
    _report(
        9,
        ok,
        f"decay composition worst gap {comp_worst:.2e} vs isclose 1e-12; "
        f"1000 source states Hermitian/unit-trace/PSD: {state_ok}; "
        f"1000 zero-decay maps preserve trace exactly: {trace_ok}",
    )


def test_criterion_10():
    pairs = [
        ("node.spin_decoherence_rate_hz", "0.05", "1.0"),
        ("source.pair_fidelity", "0.998", "0.99"),
    ]
    ok = True
    details = []
    for key, good, bad in pairs:
        for n in (2, 3):
            sweeps = []
            for value in (good, bad):
                cfg = load_scenario(None, (f"{key}={value}",)).repeater
                cfg = dataclasses.replace(cfg, n_levels=n)
                sweeps.append(distance_sweep([cfg], DISTANCE_GRID_M)[0])
            (better,), (worse,) = sweeps
            pairs = zip(
                better.visible, worse.visible,
                better.fidelity_per_level, worse.fidelity_per_level,
            )
            for visible_b, visible_w, levels_b, levels_w in pairs:
                assert visible_b and visible_w
                dominated = levels_b[-1] > levels_w[-1]
                ok = ok and dominated
            details.append(f"{key} {good}>{bad} at 2^{n} links")
    _report(
        10,
        ok,
        "pointwise fidelity dominance over the distance grid: "
        + "; ".join(details),
    )
