import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satrep.config import load_scenario
from satrep.node import (
    CavityParams,
    NodeParams,
    SourceParams,
    TwoQubitState,
    caps_success,
    decohere_matrix,
    elementary_link_fidelity,
    optimal_external_coupling,
    reflectivities,
    singlet_fraction,
    source_state,
    werner_fidelity_decay,
    werner_matrix,
)

PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)

# Internal cooperativity at which the heralded-gate success hits 3/4 exactly:
# solving eta(c) = 3/4 gives c = 48 + 28 sqrt(3).
C_THREE_QUARTERS = 96.49742261192856


def cavity_with_cooperativity(c_in, kappa_in=1.0, gamma=1.0, kappa_ex=1.0):
    g = math.sqrt(2.0 * kappa_in * gamma * c_in)
    return CavityParams(g=g, kappa_in=kappa_in, kappa_ex=kappa_ex, gamma=gamma)


def node_params(**overrides):
    base = dict(
        caps_fidelity=0.99,
        rydberg_gate_fidelity=0.995,
        readout_fidelity=0.999,
        detection_efficiency=0.9,
        spin_decoherence_rate_hz=0.05,
        caps_success_probability=0.75,
    )
    base.update(overrides)
    return NodeParams(**base)


class TestCapsGate:
    def test_success_root_at_three_quarters(self):
        assert C_THREE_QUARTERS == pytest.approx(48.0 + 28.0 * math.sqrt(3.0), rel=1e-15)
        assert caps_success(C_THREE_QUARTERS) == pytest.approx(0.75, rel=1e-12)

    def test_success_limits_and_vectorization(self):
        assert caps_success(0.0) == 0.0
        grid = np.linspace(0.0, 500.0, 256)
        eta = caps_success(grid)
        assert isinstance(eta, np.ndarray)
        assert np.all(np.diff(eta) > 0)
        assert np.all(eta < 1.0)
        assert caps_success(1e12) == pytest.approx(1.0, abs=1e-5)

    def test_success_rejects_negative_cooperativity(self):
        with pytest.raises(ValueError):
            caps_success(-0.1)
        with pytest.raises(ValueError):
            caps_success(np.array([1.0, -1.0]))

    def test_optimal_coupling_frozen(self):
        cav = cavity_with_cooperativity(96.5)
        assert cav.internal_cooperativity == pytest.approx(96.5, rel=1e-12)
        # kappa_ex_opt / kappa_in = sqrt(1 + 2 * 96.5) = sqrt(194)
        assert optimal_external_coupling(cav) == pytest.approx(
            13.92838827718412, rel=1e-12
        )

    def test_reflectivities_balance_at_optimal_coupling(self):
        probe = cavity_with_cooperativity(96.5)
        opt = CavityParams(
            g=probe.g,
            kappa_in=probe.kappa_in,
            kappa_ex=optimal_external_coupling(probe),
            gamma=probe.gamma,
        )
        r0, r1 = reflectivities(opt)
        assert abs(r0 + r1) < 1e-12
        assert r0 * r0 == pytest.approx(caps_success(opt.internal_cooperativity), rel=1e-12)

    @given(
        g=st.floats(1e5, 1e8),
        kappa_in=st.floats(1e4, 1e7),
        gamma=st.floats(1e3, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_balance_property_over_cavity_draws(self, g, kappa_in, gamma):
        probe = CavityParams(g=g, kappa_in=kappa_in, kappa_ex=kappa_in, gamma=gamma)
        assume(probe.internal_cooperativity > 0.05)
        opt = CavityParams(
            g=g,
            kappa_in=kappa_in,
            kappa_ex=optimal_external_coupling(probe),
            gamma=gamma,
        )
        r0, r1 = reflectivities(opt)
        assert abs(r0 + r1) < 1e-12
        assert r0 * r0 == pytest.approx(
            caps_success(opt.internal_cooperativity), rel=1e-10, abs=1e-15
        )

    def test_cavity_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            CavityParams(g=0.0, kappa_in=1.0, kappa_ex=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            CavityParams(g=1.0, kappa_in=1.0, kappa_ex=-2.0, gamma=1.0)


class TestStates:
    def test_source_state_structure(self):
        state = source_state(0.9)
        rho = state.rho
        assert state.trace == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(rho, rho.conj().T)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        # weight f_s sits on |Psi+>, the remainder split across the other Bells
        assert float((PSI_PLUS @ rho @ PSI_PLUS).real) == pytest.approx(0.9, rel=1e-12)
        assert singlet_fraction(state) == pytest.approx((1.0 - 0.9) / 3.0, rel=1e-12)

    def test_source_state_rejects_out_of_range(self):
        for bad in (0.2, 1.01, -0.5):
            with pytest.raises(ValueError):
                source_state(bad)

    def test_werner_singlet_fraction(self):
        for f in (-1.0 / 3.0, 0.0, 0.5, 0.9, 1.0):
            assert singlet_fraction(werner_matrix(f)) == pytest.approx(
                (1.0 + 3.0 * f) / 4.0, rel=1e-12, abs=1e-15
            )

    def test_werner_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            werner_matrix(-0.34)
        with pytest.raises(ValueError):
            werner_matrix(1.0 + 1e-9)

    def test_state_validation_rejects_garbage(self):
        with pytest.raises(ValueError):
            TwoQubitState(rho=np.eye(3) / 3.0)
        herm_broken = np.eye(4, dtype=complex) / 4.0
        herm_broken[0, 1] = 0.1
        with pytest.raises(ValueError):
            TwoQubitState(rho=herm_broken)
        with pytest.raises(ValueError):
            TwoQubitState(rho=np.eye(4) / 2.0)  # trace 2
        negative = np.diag([0.5, 0.6, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            TwoQubitState(rho=negative)

    def test_elementary_link_fidelity_frozen(self):
        assert elementary_link_fidelity(0.98, 0.99) == pytest.approx(
            0.9602666666666666, rel=1e-15
        )
        assert elementary_link_fidelity(0.25, 1.0) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(ValueError):
            elementary_link_fidelity(1.2, 0.9)


class TestDecoherence:
    def test_fidelity_decay_frozen(self):
        assert werner_fidelity_decay(0.9, 0.05, 10.0) == pytest.approx(
            0.6442449288132117, rel=1e-15
        )
        assert werner_fidelity_decay(0.9, 0.0, 1e6) == 0.9
        assert werner_fidelity_decay(0.9, 1e3, 1e3) == pytest.approx(0.25, abs=1e-15)

    @given(
        f=st.floats(-1.0 / 3.0, 1.0),
        gamma_s=st.floats(0.0, 10.0),
        t1=st.floats(0.0, 100.0),
        t2=st.floats(0.0, 100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_decay_is_a_semigroup(self, f, gamma_s, t1, t2):
        stepped = werner_fidelity_decay(
            werner_fidelity_decay(f, gamma_s, t1), gamma_s, t2
        )
        direct = werner_fidelity_decay(f, gamma_s, t1 + t2)
        assert stepped == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @given(f=st.floats(-1.0 / 3.0, 1.0), t=st.floats(0.0, 1e4))
    @settings(max_examples=200, deadline=None)
    def test_matrix_map_preserves_trace_without_spin_decay(self, f, t):
        # With gamma = 0 the element map multiplies populations by exp(0) = 1
        # and adds 0; the trace survives bit for bit and stays exactly 1.
        state = werner_matrix(f)
        out = decohere_matrix(state, 0.0, 0.3, t)
        assert state.trace == 1.0
        assert out.trace == state.trace
        assert out.trace == 1.0

    def test_matrix_map_at_zero_time_is_identity(self):
        state = werner_matrix(0.9)
        out = decohere_matrix(state, 0.05, 0.02, 0.0)
        # not bitwise: the Werner parameter is re-extracted and re-expanded
        assert np.allclose(out.rho, state.rho, atol=1e-15, rtol=0.0)

    def test_matrix_map_leaks_trace_under_spin_decay(self):
        f, gamma, t = 0.9, 0.05, 12.0
        out = decohere_matrix(werner_matrix(f), gamma, 0.0, t)
        decay = math.exp(-gamma * t)
        expected = (
            (1.0 - f) / 4.0
            + (1.0 + f) / 4.0 * (1.0 + decay)
            + (1.0 - f) / 4.0 * math.exp(-2.0 * gamma * t)
        )
        assert out.trace < 1.0
        assert out.trace == pytest.approx(expected, rel=1e-14)

    def test_matrix_map_dephasing_hits_coherence_only(self):
        out = decohere_matrix(werner_matrix(0.8), 0.0, 0.1, 5.0)
        ref = werner_matrix(0.8).rho
        assert np.allclose(np.diag(out.rho), np.diag(ref), atol=1e-15)
        assert out.rho[1, 2].real == pytest.approx(-0.4 * math.exp(-1.0), rel=1e-13)

    def test_matrix_map_rejects_non_werner_input(self):
        # the source state has a +F_s/2 coherence where Werner form wants -F/2
        with pytest.raises(ValueError):
            decohere_matrix(source_state(0.9), 0.0, 0.0, 1.0)

    def test_matrix_map_rejects_bad_arguments(self):
        state = werner_matrix(0.5)
        with pytest.raises(ValueError):
            decohere_matrix(state, -0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            decohere_matrix(state, 0.0, 0.0, -1.0)


class TestParamValidation:
    # NodeParams takes the caps success probability as given; the scenario
    # loader resolves it from the two node keys, so the rule is checked there.
    def test_node_requires_some_gate_specification(self):
        fields = dataclasses.asdict(node_params())
        del fields["caps_success_probability"]
        with pytest.raises(TypeError, match="caps_success_probability"):
            NodeParams(**fields)
        # A scenario that sets neither key gets the baseline probability.
        assert load_scenario(None).repeater.node.caps_success_probability == 0.75

    def test_node_derives_success_from_cooperativity(self):
        s = load_scenario(None, (f"node.internal_cooperativity={C_THREE_QUARTERS!r}",))
        assert s.repeater.node.caps_success_probability == pytest.approx(0.75, rel=1e-12)

    def test_node_explicit_probability_wins_with_warning(self):
        with pytest.warns(UserWarning, match="overrides"):
            s = load_scenario(None, (
                "node.caps_success_probability=0.5",
                f"node.internal_cooperativity={C_THREE_QUARTERS!r}",
            ))
        assert s.repeater.node.caps_success_probability == 0.5

    def test_node_consistent_pair_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = load_scenario(None, (
                f"node.caps_success_probability={caps_success(200.0)!r}",
                "node.internal_cooperativity=200.0",
            ))
        assert s.flat_dict()["node.internal_cooperativity"] == 200.0
        assert s.repeater.node.caps_success_probability == caps_success(200.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("caps_fidelity", 1.2),
            ("rydberg_gate_fidelity", -0.1),
            ("detection_efficiency", 0.0),
            ("spin_decoherence_rate_hz", -1.0),
            ("caps_success_probability", 1.5),
        ],
    )
    def test_node_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError):
            node_params(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pair_fidelity", 0.2),
            ("repetition_rate_hz", 0.0),
            ("emission_efficiency", 1.5),
            ("multiplexing_channels", 0),
            ("demux_efficiency", 0.0),
        ],
    )
    def test_source_rejects_out_of_range(self, field, value):
        base = dict(
            pair_fidelity=0.998,
            repetition_rate_hz=1e7,
            emission_efficiency=0.9,
            multiplexing_channels=100,
            demux_efficiency=0.73,
            direct_repetition_rate_hz=1e9,
        )
        base[field] = value
        with pytest.raises(ValueError):
            SourceParams(**base)
