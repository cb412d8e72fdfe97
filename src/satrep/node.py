"""Ground-station device models.

Covers the entangled-photon source state, the cavity-assisted photon-scattering
(CAPS) gate that heralds a photon's polarization onto an atomic memory, the
Werner-state bookkeeping used by the swapping recursion, and two decoherence
models for a stored pair: a literal element-wise density-matrix map (spin decay
plus dephasing) and the phenomenological single-parameter fidelity decay the
rate analysis uses.  The two are intentionally kept side by side: they are not
equivalent (the matrix map is not trace-preserving under spin decay) and the
comparison is part of what this module exposes.

Basis convention throughout: horizontal -> |0>, vertical -> |1>, two-qubit basis
ordered {|00>, |01>, |10>, |11>}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CavityParams",
    "NodeParams",
    "SourceParams",
    "TwoQubitState",
    "caps_success",
    "decohere_matrix",
    "elementary_link_fidelity",
    "optimal_external_coupling",
    "reflectivities",
    "singlet_fraction",
    "source_state",
    "werner_fidelity_decay",
    "werner_matrix",
]

_HERMITIAN_TOL = 1e-12
_PSD_TOL = 1e-10

# Bell states in the {|00>, |01>, |10>, |11>} basis.
_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
_PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


@dataclass(frozen=True)
class SourceParams:
    """Photon-pair source and multiplexing figures."""

    pair_fidelity: float
    repetition_rate_hz: float
    emission_efficiency: float
    multiplexing_channels: int
    demux_efficiency: float
    direct_repetition_rate_hz: float

    def __post_init__(self) -> None:
        if not 0.25 <= self.pair_fidelity <= 1.0:
            raise ValueError("source pair fidelity must lie in [1/4, 1]")
        if self.repetition_rate_hz <= 0 or self.direct_repetition_rate_hz <= 0:
            raise ValueError("repetition rates must be positive")
        if not 0.0 < self.emission_efficiency <= 1.0:
            raise ValueError("emission efficiency must lie in (0, 1]")
        if self.multiplexing_channels < 1:
            raise ValueError("multiplexing channel count must be >= 1")
        if not math.isfinite(self.multiplexing_channels * self.repetition_rate_hz):
            raise ValueError("the attempt rate N_mux R_s overflows double precision")
        if not 0.0 < self.demux_efficiency <= 1.0:
            raise ValueError("demultiplexing efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class CavityParams:
    """Atom-cavity hardware rates (rad/s): coupling g, internal loss kappa_in,
    external coupling kappa_ex, atomic decay gamma."""

    g: float
    kappa_in: float
    kappa_ex: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("g", "kappa_in", "kappa_ex", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"cavity parameter {name} must be positive")

    @property
    def internal_cooperativity(self) -> float:
        return self.g**2 / (2.0 * self.kappa_in * self.gamma)


@dataclass(frozen=True)
class NodeParams:
    """Memory-node figures of merit.  ``caps_success_probability`` is the
    memory-loading success probability the chain uses; a scenario may give
    it through the cavity's internal cooperativity instead (see
    :mod:`satrep.config`)."""

    caps_fidelity: float
    rydberg_gate_fidelity: float
    readout_fidelity: float
    detection_efficiency: float
    spin_decoherence_rate_hz: float
    caps_success_probability: float

    def __post_init__(self) -> None:
        for name in ("caps_fidelity", "rydberg_gate_fidelity", "readout_fidelity"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.detection_efficiency <= 1.0:
            raise ValueError("detection efficiency must lie in (0, 1]")
        if self.spin_decoherence_rate_hz < 0:
            raise ValueError("spin decoherence rate must be >= 0")
        if not 0.0 <= self.caps_success_probability <= 1.0:
            raise ValueError("caps success probability must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A 4x4 density matrix, validated Hermitian and positive semidefinite.

    The trace is 1 for every state this module constructs directly; the literal
    decoherence map can only shrink it (it leaks population under spin decay),
    so subnormalized traces in (0, 1] are tolerated and preserved.
    """

    rho: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
        if not np.allclose(rho, rho.conj().T, atol=_HERMITIAN_TOL, rtol=0.0):
            raise ValueError("density matrix must be Hermitian")
        tr = float(np.trace(rho).real)
        if not 0.0 < tr <= 1.0 + _HERMITIAN_TOL:
            raise ValueError(f"trace must lie in (0, 1], got {tr}")
        if np.linalg.eigvalsh(rho).min() < -_PSD_TOL:
            raise ValueError("density matrix must be positive semidefinite")
        object.__setattr__(self, "rho", rho)

    @property
    def trace(self) -> float:
        return float(np.trace(self.rho).real)


def source_state(f_s: float) -> TwoQubitState:
    """Mixed Bell-diagonal state emitted by the pair source: weight ``f_s`` on
    |Psi+> and (1 - f_s)/3 on each of the other three Bell states.
    """
    if not 0.25 <= f_s <= 1.0:
        raise ValueError(f"source fidelity must lie in [1/4, 1], got {f_s}")
    rest = (1.0 - f_s) / 3.0
    rho = f_s * np.outer(_PSI_PLUS, _PSI_PLUS) + rest * (
        np.outer(_PHI_MINUS, _PHI_MINUS)
        + np.outer(_PHI_PLUS, _PHI_PLUS)
        + np.outer(_PSI_MINUS, _PSI_MINUS)
    )
    return TwoQubitState(rho=rho.astype(complex))


def optimal_external_coupling(cavity: CavityParams) -> float:
    """External coupling rate kappa_in * sqrt(1 + 2 C_in) that balances the
    empty-cavity and atom-coupled reflection amplitudes."""
    return cavity.kappa_in * math.sqrt(1.0 + 2.0 * cavity.internal_cooperativity)


def reflectivities(cavity: CavityParams) -> tuple[float, float]:
    """On-resonance reflection amplitudes (r0, r1) for the uncoupled and
    atom-coupled cavity:

    r0 = 1 - 2 kappa_ex / kappa,   r1 = 1 - 2 kappa_ex gamma / (g^2 + kappa gamma)

    with kappa = kappa_ex + kappa_in.  At the optimal external coupling
    r0 = -r1 exactly, which is what makes the heralded gate balanced.
    """
    kappa = cavity.kappa_ex + cavity.kappa_in
    r0 = 1.0 - 2.0 * cavity.kappa_ex / kappa
    r1 = 1.0 - 2.0 * cavity.kappa_ex * cavity.gamma / (
        cavity.g**2 + kappa * cavity.gamma
    )
    return r0, r1


def caps_success(c_in):
    """Success probability of the heralded memory-loading gate at the optimal
    external coupling, as a function of internal cooperativity:

    eta = 1 - 2 sqrt(1 + 2 c) / (1 + c + sqrt(1 + 2 c))  =  (r0_opt)^2
    """
    c = np.asarray(c_in, dtype=float)
    if np.any(c < 0):
        raise ValueError("internal cooperativity must be >= 0")
    # Past c = 1e300 eta is 1.0 in double precision; capping c there keeps
    # 1 + 2c from overflowing to inf, which would make eta NaN.
    s = np.sqrt(1.0 + 2.0 * np.minimum(c, 1e300))
    out = 1.0 - 2.0 * s / (1.0 + c + s)
    return float(out) if np.isscalar(c_in) else out


def elementary_link_fidelity(f_pair_avg: float, f_caps: float) -> float:
    """Werner parameter of a freshly established elementary link:
    (4 * F_pair_avg * F_caps - 1) / 3.  With both fidelities in [0, 1] the
    product is >= 0, so the result lies in [-1/3, 1], in floating point too.
    """
    if not 0.0 <= f_pair_avg <= 1.0 or not 0.0 <= f_caps <= 1.0:
        raise ValueError("fidelities must lie in [0, 1]")
    return (4.0 * f_pair_avg * f_caps - 1.0) / 3.0


def werner_matrix(f: float) -> TwoQubitState:
    """Werner state with parameter ``f``: diagonal
    ((1-F)/4, (1+F)/4, (1+F)/4, (1-F)/4) plus the -F/2 coherence between
    |01> and |10>.  f = 1 is the singlet, f = 0 the maximally mixed state.
    """
    if not -1.0 / 3.0 <= f <= 1.0:
        raise ValueError(f"Werner parameter must lie in [-1/3, 1], got {f}")
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = (1.0 - f) / 4.0
    rho[1, 1] = rho[2, 2] = (1.0 + f) / 4.0
    rho[1, 2] = rho[2, 1] = -f / 2.0
    return TwoQubitState(rho=rho)


def singlet_fraction(state: TwoQubitState) -> float:
    """Overlap of the state with the singlet |Psi->."""
    return float((_PSI_MINUS @ state.rho @ _PSI_MINUS).real)


def _werner_parameter(state: TwoQubitState) -> float:
    """Extract F from a Werner-form matrix, rejecting anything else."""
    rho = state.rho
    f = float(4.0 * rho[1, 1].real - 1.0)
    if not -1.0 / 3.0 - 1e-9 <= f <= 1.0 + 1e-9:
        raise ValueError("matrix is not in Werner form")
    expected = werner_matrix(float(np.clip(f, -1.0 / 3.0, 1.0))).rho
    if not np.allclose(rho, expected, atol=1e-10, rtol=0.0):
        raise ValueError("matrix is not in Werner form")
    return f


def decohere_matrix(
    state: TwoQubitState, gamma_hz: float, gamma_star_hz: float, t_s: float
) -> TwoQubitState:
    """Element-wise decoherence map for a stored Werner-form pair under spin
    decay ``gamma`` and spin dephasing ``gamma_star`` for a time ``t``:

        rho_00 -> (1-F)/4 + (1 - e^{-gamma t}) (1+F)/4
        rho_11, rho_22 -> e^{-gamma t} (1+F)/4
        rho_12, rho_21 -> -(F/2) e^{-gamma_s t}
        rho_33 -> (1-F)/4 * e^{-2 gamma t}

    with the combined coherence rate gamma_s = gamma + 2 gamma_star.  The map is
    applied literally; for gamma > 0 it does not preserve the trace (population
    leaving |11> is not fully reassigned), which is visible in the returned
    state's trace.  Inputs that are not Werner-form are rejected because the map
    is only defined element-wise on that form.
    """
    if t_s < 0:
        raise ValueError("time must be >= 0")
    if gamma_hz < 0 or gamma_star_hz < 0:
        raise ValueError("decay rates must be >= 0")
    f = _werner_parameter(state)
    gamma_s = gamma_hz + 2.0 * gamma_star_hz
    decay = math.exp(-gamma_hz * t_s)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = (1.0 - f) / 4.0 + (1.0 - decay) * (1.0 + f) / 4.0
    rho[1, 1] = rho[2, 2] = decay * (1.0 + f) / 4.0
    rho[1, 2] = rho[2, 1] = -(f / 2.0) * math.exp(-gamma_s * t_s)
    rho[3, 3] = (1.0 - f) / 4.0 * math.exp(-2.0 * gamma_hz * t_s)
    return TwoQubitState(rho=rho)


def werner_fidelity_decay(f: float, gamma_s_hz: float, t_s: float) -> float:
    """Phenomenological Werner-parameter decay in memory:
    F(t) = 1/4 + (F - 1/4) e^{-gamma_s t}.

    This is the one-parameter semigroup the swapping recursion uses for the
    waiting-time penalty: composing two decays equals one decay over the summed
    time, exactly.  Without decay (gamma_s = 0) the exponent is 0 even
    after an infinite time, where -0 * inf would be NaN.
    """
    if t_s < 0:
        raise ValueError("time must be >= 0")
    return 0.25 + (f - 0.25) * math.exp(-gamma_s_hz * t_s if gamma_s_hz else 0.0)
