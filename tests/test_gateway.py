import io
import math

import numpy as np
import pytest
from geometry_helpers import circular_delta_deg
from scalar_oracle import PairStream

from steertrace import (
    Angles,
    CaseParams,
    GatewayConfig,
    ReconfigEvent,
    SurfaceConfig,
    ValidationError,
    case_a_trajectory,
    case_b_trajectory,
    case_c_trajectory,
    run_simulation,
    state_matrix,
    write_trace,
)
from steertrace.gateway import detect_events, diff_states
from steertrace.geometry import angle_stream

INC = Angles(0.0, 0.0)


def ramp_stream(n=1000, theta_to=10.0):
    """theta climbing linearly over one second, phi fixed."""
    return PairStream((i / n, Angles(theta_to * i / n, 0.0)) for i in range(n + 1))


def test_constant_stream_yields_single_event():
    stream = PairStream((0.1 * i, Angles(12.0, 34.0)) for i in range(100))
    picked = detect_events(stream, 5.0)
    assert len(picked) == 1
    assert picked[0] == stream.exact(0)


def test_linear_ramp_crossings():
    picked = detect_events(ramp_stream(), 5.0)
    times = [t for t, _ in picked]
    assert len(times) == 3
    assert times[0] == 0.0
    assert times[1] == pytest.approx(0.5, abs=1e-3)
    assert times[2] == pytest.approx(1.0, abs=1e-3)


def test_multi_step_jump_advances_reference_in_whole_steps():
    stream = PairStream([
        (0.0, Angles(0.0, 0.0)),
        (1.0, Angles(23.0, 0.0)),  # one event; reference lands on 20
        (2.0, Angles(24.9, 0.0)),  # within 5 of the reference: quiet
        (3.0, Angles(25.0, 0.0)),  # crosses 25: fires
    ])
    picked = detect_events(stream, 5.0)
    assert [t for t, _ in picked] == [0.0, 1.0, 3.0]


def test_phi_distance_is_circular():
    stream = PairStream([
        (0.0, Angles(10.0, 358.0)),
        (1.0, Angles(10.0, 2.0)),  # 4 degrees across the wrap: quiet
        (2.0, Angles(10.0, 3.5)),  # 5.5 degrees: fires
    ])
    picked = detect_events(stream, 5.0)
    assert [t for t, _ in picked] == [0.0, 2.0]


def test_detect_events_validation():
    with pytest.raises(ValidationError):
        detect_events(PairStream([]), 5.0)
    with pytest.raises(ValidationError):
        detect_events(PairStream([(0.0, Angles(0, 0)), (0.0, Angles(1, 0))]), 5.0)
    with pytest.raises(ValidationError):
        detect_events(ramp_stream(), 0.0)


def case_a_crossing_count(params: CaseParams, step: float) -> int:
    """Geometric oracle: grid values of atan(x/D) reached during the walk."""
    x0 = params.standoff_distance * math.tan(math.radians(params.start_theta))
    duration = x0 / params.speed
    count = 0
    k = 1
    while params.start_theta - k * step >= 0.0:
        theta_k = params.start_theta - k * step
        t_k = (x0 - params.standoff_distance * math.tan(math.radians(theta_k))) / params.speed
        if t_k <= duration:
            count += 1
        k += 1
    return count


def test_case_a_default_event_count_and_grid(case_a_trace):
    params = case_a_trace.meta.trajectory.params
    expected = 1 + case_a_crossing_count(params, 5.0)
    assert len(case_a_trace.events) == expected == 18
    for k, ev in enumerate(case_a_trace.events):
        nominal = 85.0 - 5.0 * k
        assert abs(ev.reflected.theta - nominal) < 0.05, f"event {k} off the nominal grid"


def test_diff_identical_matrices_is_empty():
    m = np.arange(12).reshape(3, 4) % 3
    assert len(diff_states(m, m)) == 0


def test_diff_single_cell():
    old = np.zeros((10, 10), dtype=int)
    new = old.copy()
    new[7, 3] = 2
    updates = diff_states(old, new)
    assert len(updates) == 1
    assert tuple(updates[0]) == (3, 7, 2)


def test_diff_count_for_quarter_cycle_pattern():
    # the 0,0,1,1,2,2,3,3 row pattern leaves 14 of 50 columns at state zero
    cfg = SurfaceConfig()
    m30 = state_matrix(INC, Angles(30.0, 0.0), cfg)
    zero_cols = sum(1 for i in range(cfg.n_cols) if i % 8 in (0, 1))
    expected = (cfg.n_cols - zero_cols) * cfg.n_rows
    updates = diff_states(m30, np.zeros_like(m30))
    assert zero_cols == 14
    assert len(updates) == expected == 1800


def test_diff_ordering_is_row_major():
    old = np.zeros((5, 5), dtype=int)
    new = old.copy()
    for j, i in ((4, 0), (0, 3), (0, 1), (2, 2)):
        new[j, i] = 1
    keys = [(r, c) for c, r, s in diff_states(old, new).tolist()]
    assert keys == sorted(keys)


def test_diff_shape_mismatch():
    with pytest.raises(ValidationError):
        diff_states(np.zeros((2, 2)), np.zeros((3, 2)))


def test_stationary_target_single_empty_event():
    # angle stays a hair above zero: the ideal phases all quantize to state 0
    traj = case_c_trajectory(CaseParams(start_theta=1e-3), duration=1.0)
    trace = run_simulation(traj, SurfaceConfig(), GatewayConfig())
    assert len(trace.events) == 1
    assert len(trace.events[0].updates) == 0
    assert trace.total_packets == 0


def test_replay_reproduces_final_state_matrix(case_a_trace):
    surface = case_a_trace.meta.surface
    m = np.zeros((surface.n_rows, surface.n_cols), dtype=np.int64)
    for ev in case_a_trace.events:
        seen = set()
        for c, r, s in ev.updates.tolist():
            assert (c, r) not in seen, "duplicate cell within one event"
            seen.add((c, r))
            assert m[r, c] != s, "update must change the cell"
            m[r, c] = s
    final = state_matrix(case_a_trace.meta.incident, case_a_trace.events[-1].reflected, surface)
    assert np.array_equal(m, final)


def test_event_updates_are_read_only(case_a_trace):
    updates = case_a_trace.events[1].updates
    with pytest.raises(ValueError, match="read-only"):
        updates[0, 2] = 0


@pytest.mark.parametrize(
    "updates",
    [[[0.5, 0, 1]], [[1, 2]], [[1, 2, 3], [4, 5]], [[]], [[2**63, 0, 1]], np.zeros((2, 3)), "abc"],
)
def test_event_rejects_updates_that_are_not_integer_triples(updates):
    with pytest.raises(ValidationError, match="updates"):
        ReconfigEvent(0.0, INC, updates)


@pytest.mark.parametrize("key", ["t", "theta", "phi"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_event_rejects_a_non_finite_time_or_angle(key, bad):
    values = {"t": 1.0, "theta": 10.0, "phi": 20.0, key: bad}
    with pytest.raises(ValidationError) as err:
        ReconfigEvent(values["t"], Angles(values["theta"], values["phi"]), [])
    assert err.value.key == key


def test_event_sizes_match_independent_recomputation(case_a_trace):
    surface = case_a_trace.meta.surface
    previous = np.zeros((surface.n_rows, surface.n_cols), dtype=np.int64)
    for ev in case_a_trace.events:
        target = state_matrix(INC, ev.reflected, surface)
        assert len(ev.updates) == int(np.count_nonzero(previous != target))
        previous = target


def test_event_times_strictly_increasing(case_a_trace, short_case_c_trace):
    for trace in (case_a_trace, short_case_c_trace):
        times = [ev.t for ev in trace.events]
        assert all(b > a for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("make_traj", [case_a_trajectory, case_b_trajectory])
def test_event_spacing_at_least_step_minus_sampling_slack(make_traj):
    traj = make_traj()
    gw = GatewayConfig()
    stream = angle_stream(traj, gw.sample_dt)
    picked = detect_events(stream, gw.angular_step)
    samples = [Angles(th, ph) for th, ph in zip(stream.theta.tolist(), stream.phi.tolist())]
    by_time = {t: idx for idx, t in enumerate(stream.t.tolist())}
    for (t0, a0), (t1, a1) in zip(picked, picked[1:]):
        window = samples[by_time[t0] : by_time[t1] + 1]
        slack = max(
            max(abs(b.theta - a.theta), circular_delta_deg(b.phi, a.phi))
            for a, b in zip(window, window[1:])
        )
        moved = max(abs(a1.theta - a0.theta), circular_delta_deg(a1.phi, a0.phi))
        assert moved >= gw.angular_step - slack - 1e-9


def test_case_b_fires_on_both_angles():
    trace = run_simulation(case_b_trajectory(), SurfaceConfig(), GatewayConfig())
    thetas = [ev.reflected.theta for ev in trace.events]
    phis = [ev.reflected.phi for ev in trace.events]
    assert max(thetas) - min(thetas) > 30.0
    assert max(phis) - min(phis) > 30.0


def test_simulation_is_deterministic():
    traj = case_c_trajectory(CaseParams(rng_seed=11), duration=12.0)
    t1 = run_simulation(traj, SurfaceConfig(), GatewayConfig())
    t2 = run_simulation(traj, SurfaceConfig(), GatewayConfig())
    assert t1 == t2
    b1, b2 = io.BytesIO(), io.BytesIO()
    write_trace(t1, b1)
    write_trace(t2, b2)
    assert b1.getvalue() == b2.getvalue()
