"""Satellite-fed quantum repeater link budget and rate/fidelity model.

The pipeline, end to end: a satellite pass over two ground stations defines a
time-dependent slant range and zenith angle (:mod:`satrep.orbit`); the optical
downlink turns those into transmission and pair-fidelity curves
(:mod:`satrep.channel`), averaged over the pass by quadrature
(:mod:`satrep.flyby`); heralded memory loading and Werner-state bookkeeping
live in :mod:`satrep.node`; the nested swapping recursion produces rates,
pair counts, and final fidelities (:mod:`satrep.repeater`); a discrete-event
Monte Carlo cross-checks the recursion (:mod:`satrep.mc_oracle`); scenarios
are configured through INI files (:mod:`satrep.config`) and driven from the
command line (:mod:`satrep.cli`).
"""

from .channel import ChannelParams
from .config import Scenario, default_scenario, load_scenario
from .flyby import (
    FlybyAggregates, FlybyProfile, build_profile, converged_aggregates, pass_aggregates,
)
from .mc_oracle import McConfig, compare_report, simulate_chain
from .node import CavityParams, NodeParams, SourceParams, caps_success
from .orbit import OrbitGeometry, pass_timing
from .repeater import RepeaterConfig, RepeaterResult, distance_sweep, evaluate

__version__ = "0.1.0"

__all__ = [
    "CavityParams",
    "ChannelParams",
    "FlybyAggregates",
    "FlybyProfile",
    "McConfig",
    "NodeParams",
    "OrbitGeometry",
    "RepeaterConfig",
    "RepeaterResult",
    "Scenario",
    "SourceParams",
    "__version__",
    "build_profile",
    "caps_success",
    "compare_report",
    "converged_aggregates",
    "default_scenario",
    "distance_sweep",
    "evaluate",
    "load_scenario",
    "pass_aggregates",
    "pass_timing",
    "simulate_chain",
]
