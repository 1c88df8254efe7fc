import pytest
from hypothesis import settings

from steertrace import (
    CaseParams,
    GatewayConfig,
    SurfaceConfig,
    case_a_trajectory,
    case_c_trajectory,
    run_simulation,
)

# Property tests draw the same bounded set of examples on every run and keep
# no example database, so the suite stays deterministic and quick.
settings.register_profile(
    "steertrace", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("steertrace")


@pytest.fixture(scope="session")
def default_surface():
    return SurfaceConfig()


@pytest.fixture(scope="session")
def default_gateway():
    return GatewayConfig()


@pytest.fixture(scope="session")
def case_a_trace(default_surface, default_gateway):
    """The canonical walk-by scenario: D=10 m, start 85 deg, 5 deg step."""
    return run_simulation(case_a_trajectory(), default_surface, default_gateway)


@pytest.fixture(scope="session")
def short_case_c_trace(default_surface, default_gateway):
    traj = case_c_trajectory(CaseParams(rng_seed=99), duration=10.0)
    return run_simulation(traj, default_surface, default_gateway)
