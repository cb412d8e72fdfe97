import pytest

from satrep.config import default_scenario
from satrep.flyby import pass_aggregates


@pytest.fixture(scope="session")
def baseline():
    """The bundled baseline scenario (1500 km altitude, 2500 km links)."""
    return default_scenario()


@pytest.fixture(scope="session")
def baseline_cfg(baseline):
    return baseline.repeater


@pytest.fixture(scope="session")
def baseline_agg(baseline_cfg):
    """Converged pass averages for the baseline; shared because the quadrature
    is the slowest analytic step and every downstream module consumes it."""
    return pass_aggregates(
        baseline_cfg.geometry, baseline_cfg.channel, baseline_cfg.source.pair_fidelity
    )
