import pytest
from hypothesis import settings

from steertrace import (
    CaseParams,
    GatewayConfig,
    SurfaceConfig,
    TraceMeta,
    TrafficTrace,
    case_a_trajectory,
    case_c_trajectory,
    iter_events,
    summarize,
)
from steertrace.gateway import NORMAL_INCIDENCE

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
def case_a_meta(default_surface, default_gateway):
    """The canonical walk-by scenario: D=10 m, start 85 deg, 5 deg step."""
    return TraceMeta(default_surface, default_gateway, NORMAL_INCIDENCE, case_a_trajectory())


@pytest.fixture(scope="session")
def case_a_trace(case_a_meta):
    """Its events from ``iter_events``, every one held, for the tests that look at them."""
    return TrafficTrace(case_a_meta, tuple(iter_events(case_a_meta)))


@pytest.fixture(scope="session")
def case_a_summary(case_a_meta):
    """Its workload report and destination matrix, in the one pass that ``metrics`` makes."""
    return summarize(case_a_meta.surface, iter_events(case_a_meta))


@pytest.fixture(scope="session")
def short_case_c_trace(default_surface, default_gateway):
    traj = case_c_trajectory(CaseParams(rng_seed=99), duration=10.0)
    meta = TraceMeta(default_surface, default_gateway, NORMAL_INCIDENCE, traj)
    return TrafficTrace(meta, tuple(iter_events(meta)))
