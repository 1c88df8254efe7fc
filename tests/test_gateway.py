import io
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scalar_oracle
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
from steertrace import geometry
from steertrace.gateway import (
    ANGLE_EPS_DEG,
    TraceMeta,
    detect_events,
    diff_states,
    iter_events,
)
from steertrace.geometry import Case, Trajectory, angle_stream

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


@pytest.mark.parametrize("step", [5e-324, 1e-310])
def test_a_step_whose_count_passes_float_range_fires_at_every_sample(step):
    # a 0.1 s drift over such a step is a count past float range; below ANGLE_EPS_DEG a
    # step fires at every sample, as 1e-12 does on the scalar path
    trajectory = case_a_trajectory()
    picked = detect_events(angle_stream(trajectory, 0.1), step)
    scalar = scalar_oracle.angle_stream(trajectory, 0.1)
    assert picked == scalar_oracle.detect_events(scalar, 1e-12) == scalar


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


def test_a_compact_diff_allocates_its_rows_not_a_grid_mask():
    # one of the 1,000 columns of a compact 1000x1000 surface changes: 1,000 rows of 24
    # bytes, where a mask of the grid would take 1 MB
    old = np.zeros((1, 1000), np.int64)
    new = old.copy()
    new[0, 500] = 3
    tracemalloc.start()
    try:
        updates = diff_states(old, new, (1000, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert updates.tolist() == [[500, r, 3] for r in range(1000)]
    assert peak < 2 * updates.nbytes, peak


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


def test_an_event_keeps_its_rows_when_the_callers_array_is_written():
    rows = np.array([[1, 2, 1], [3, 4, 0]], np.int64)
    ev = ReconfigEvent(0.0, INC, rows)
    rows[0, 2] = 3
    assert ev.updates.tolist() == [[1, 2, 1], [3, 4, 0]]
    assert not ev.updates.flags.writeable


def test_an_event_takes_read_only_int64_rows_without_a_copy():
    rows = np.array([[1, 2, 1], [3, 4, 0]], np.int64)
    rows.flags.writeable = False
    assert ReconfigEvent(0.0, INC, rows).updates is rows
    # rows of another dtype are copied to int64
    assert ReconfigEvent(0.0, INC, rows.astype(np.int32)).updates.dtype == np.int64


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
    times, theta, phi = scalar_oracle.whole(stream)
    samples = [Angles(th, ph) for th, ph in zip(theta.tolist(), phi.tolist())]
    by_time = {t: idx for idx, t in enumerate(times.tolist())}
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


def leap_picks(duration, dt, step=5.0, **params):
    """Case C's stream and picks, checked against the scalar sampler and scan."""
    trajectory = Trajectory(Case.C, CaseParams(rng_seed=3, **params), duration)
    stream = angle_stream(trajectory, dt)
    scalar = scalar_oracle.angle_stream(trajectory, dt)
    scalar_oracle.check_runs(stream, scalar)
    picked = detect_events(stream, step)
    assert picked == scalar_oracle.detect_events(scalar, step)
    return stream, picked


@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize("m", [1, 2, 3, 1000])
@pytest.mark.parametrize("dt", [1e-3, 0.1, 0.3])
def test_leaps_on_and_one_ulp_off_the_sample_grid(dt, m, ulps):
    # a leap instant j * m * dt meets the sample grid, or misses it by an ulp either side
    interval = m * dt
    for _ in range(abs(ulps)):
        interval = math.nextafter(interval, math.copysign(math.inf, ulps))
    stream, _ = leap_picks(4.5 * interval, dt, leap_interval=interval)
    assert len(scalar_oracle.entries(stream)) in (4, 5)  # a run per leap that a sample reaches


@pytest.mark.parametrize("interval", [0.003, 0.005, 0.01 / 3])
def test_several_leaps_between_two_samples(interval):
    stream, _ = leap_picks(1.0, 0.01, leap_interval=interval)
    assert len(scalar_oracle.entries(stream)) == 101  # every sample heads a run


def test_sample_period_equal_to_the_duration():
    stream, _ = leap_picks(5.0, 5.0, leap_interval=2.0)
    assert scalar_oracle.whole(stream)[0].tolist() == [0.0, 5.0]


@pytest.mark.parametrize(
    "duration, interval, runs",
    [
        (1.05, 0.35, [0, 4, 7, 11, 12]),  # the endpoint, appended after 1.0, heads a run
        (0.3, 0.1, [0, 1, 2, 4]),  # the endpoint replaces 3 * 0.1 and misses its leap
        (0.3, 0.15, [0, 2, 3, 4]),  # the endpoint replaces 3 * 0.1 and heads a run
    ],
)
def test_the_endpoint_appended_or_replacing_the_last_grid_time(duration, interval, runs):
    stream, _ = leap_picks(duration, 0.1, leap_interval=interval)
    entries = scalar_oracle.entries(stream)
    assert [head for head, _, _ in entries] + [entries[-1][1]] == runs
    assert stream.exact(entries[-1][1] - 1, entries[-1][2])[0] == duration


@pytest.mark.parametrize("start_theta", [85.0, 45.0, 2.5])  # 45 and 2.5 on multiples of 2.5
@pytest.mark.parametrize("step", [1e-12, ANGLE_EPS_DEG, 2.5, 5.0])
def test_repeated_picks_inside_one_run(start_theta, step):
    stream, picked = leap_picks(3.0, 0.01, step, leap_interval=0.7, start_theta=start_theta)
    if step <= ANGLE_EPS_DEG:  # every sample fires, so each run is picked whole
        assert len(picked) == 301 > len(scalar_oracle.entries(stream))


def test_leaps_outnumbering_samples_at_a_large_step():
    stream, picked = leap_picks(60.0, 0.02, 40.0, leap_interval=0.01)
    assert len(scalar_oracle.entries(stream)) == 3001 and 1 < len(picked) < 3001


def test_case_c_simulation_memory_grows_with_the_events_not_the_samples():
    # 9,990 s at 1 ms is 9,990,001 samples, just under MAX_SAMPLES; an array over the
    # samples alone would take 80 MB
    traj = case_c_trajectory(CaseParams(rng_seed=3), duration=9990.0)
    tracemalloc.start()
    try:
        trace = run_simulation(traj, SurfaceConfig(n_cols=8, n_rows=8), GatewayConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = sum(ev.updates.nbytes for ev in trace.events)
    # the events' rows, 1 KiB per event for the rest of it, and 1 MiB for one surface's work
    assert peak < rows + 1024 * len(trace.events) + 2**20


@pytest.mark.parametrize(
    "make_traj, dt", [(case_a_trajectory, 1e-4), (case_b_trajectory, 1e-5)], ids=["A", "B"]
)
def test_case_a_and_b_simulation_memory_grows_with_the_events_not_the_samples(make_traj, dt):
    # 816,434 and 432,483 samples, 100 and 53 blocks; an array over the samples alone
    # would take 6.5 and 3.5 MB
    tracemalloc.start()
    try:
        surface, gateway = SurfaceConfig(n_cols=8, n_rows=8), GatewayConfig(sample_dt=dt)
        trace = run_simulation(make_traj(), surface, gateway)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = sum(ev.updates.nbytes for ev in trace.events)
    # the events' rows, 1 KiB per event, and 16 float64 arrays over a block for sampling
    assert peak < rows + 1024 * len(trace.events) + 16 * 8 * geometry.SAMPLE_BLOCK


def _block_scenarios():
    """Streams of about 150 samples (case C: 86 runs) with their scalar samples and steps:
    5 deg, a step that fires every few samples, and one that fires at every sample."""
    a, b = case_a_trajectory(), case_b_trajectory()
    c = case_c_trajectory(CaseParams(rng_seed=3, leap_interval=0.7), duration=60.0)
    for traj, dt, steps in [
        (a, a.duration / 150, (5.0, 0.5, 1e-12)),
        (b, 0.03, (5.0, 1.0, 1e-12)),
        (c, 0.05, (5.0, 1e-12)),
    ]:
        yield traj, dt, scalar_oracle.angle_stream(traj, dt), steps


BLOCK_SCENARIOS = list(_block_scenarios())
# theta climbs a degree after 1, 2, ..., 80 samples, so crossings fall at every offset
# from a block boundary and searches run across blocks
STAIRS = [(k / 1000, Angles(float(th), 0.0)) for k, th in enumerate(
    np.repeat(np.arange(81), [1, *range(1, 81)]).tolist()
)]


@pytest.mark.parametrize("size", range(1, 71))
def test_picks_and_angles_do_not_depend_on_the_sample_block(size, monkeypatch):
    monkeypatch.setattr(geometry, "SAMPLE_BLOCK", size)
    for traj, dt, scalar, steps in BLOCK_SCENARIOS:
        stream = angle_stream(traj, dt)
        runs = scalar_oracle.leap_runs(traj, [t for t, _ in scalar])
        heads = [scalar[k] for k in runs[:-1]]
        scalar_oracle.check_positions(stream, [t for t, _ in heads])
        for step in steps:
            assert detect_events(stream, step) == scalar_oracle.detect_events(scalar, step)
    assert detect_events(PairStream(STAIRS), 1.0) == scalar_oracle.detect_events(STAIRS, 1.0)
    # a time that does not increase, at any pair, is refused
    repeated = list(STAIRS)
    repeated[size] = (STAIRS[size - 1][0], STAIRS[size][1])
    with pytest.raises(ValidationError) as err:
        detect_events(PairStream(repeated), 1.0)
    assert err.value.key == "stream"


def test_case_a_detection_searches_the_walk_and_reads_no_block(monkeypatch):
    # case A's x never increases, so the search gallops and bisects along the walk: no
    # block of positions or of times is computed, and the picks are still the scalar scan's
    def no_block(*args):
        raise AssertionError("a case-A block was read")

    monkeypatch.setattr(geometry.AngleStream, "blocks", no_block)
    monkeypatch.setattr(geometry, "_sample_times", no_block)
    surface = SurfaceConfig(n_cols=8, n_rows=8)
    past_axis = Trajectory(Case.A, CaseParams(), 200.0)  # phi 0 -> 180 at 81.6 s
    for traj, dt, step in [(case_a_trajectory(), 0.01, 5.0), (past_axis, 0.05, 0.5)]:
        meta = TraceMeta(surface, GatewayConfig(angular_step=step, sample_dt=dt), INC, traj)
        want = scalar_oracle.detect_events(scalar_oracle.angle_stream(traj, dt), step)
        assert [(ev.t, ev.reflected) for ev in iter_events(meta)] == want


def test_case_b_detection_searches_the_flight_and_reads_no_block(monkeypatch):
    # case B is searched one monotone piece of its flight at a time, as case A is along
    # its walk: no block of positions or of times is computed.  A steep launch's squared
    # radius peaks and troughs, so its flight has three pieces
    def no_block(*args):
        raise AssertionError("a case-B block was read")

    monkeypatch.setattr(geometry.AngleStream, "blocks", no_block)
    monkeypatch.setattr(geometry, "_sample_times", no_block)
    surface = SurfaceConfig(n_cols=8, n_rows=8)
    steep = case_b_trajectory(CaseParams(speed=30.0, launch_angle=80.0), duration=9.0)
    assert len(angle_stream(steep, 0.01).pieces()) == 3
    for traj, dt, step in [(case_b_trajectory(), 1e-3, 5.0), (steep, 0.01, 0.5)]:
        meta = TraceMeta(surface, GatewayConfig(angular_step=step, sample_dt=dt), INC, traj)
        want = scalar_oracle.detect_events(scalar_oracle.angle_stream(traj, dt), step)
        assert [(ev.t, ev.reflected) for ev in iter_events(meta)] == want


def test_case_c_refuses_a_position_beyond_float_range_in_a_later_block(monkeypatch):
    # x = 1e308 * tan(theta) is finite at the 1 deg start and past float range at a
    # leap above about 61 deg; with one entry a block, that leap's run is a later block
    monkeypatch.setattr(geometry, "SAMPLE_BLOCK", 1)
    params = CaseParams(standoff_distance=1e308, start_theta=1.0, rng_seed=3)
    trajectory = case_c_trajectory(params, duration=60.0)
    assert next(angle_stream(trajectory, 0.01).blocks())[2][0] < math.inf
    meta = TraceMeta(SurfaceConfig(), GatewayConfig(), INC, trajectory)
    with pytest.raises(ValidationError) as err:
        iter_events(meta)  # before any event is coded or written
    assert err.value.key == "x" and str(err.value) == "x must be finite"


def test_iter_events_logs_the_aliasing_warning_once_before_it_returns(caplog):
    # a 5 cm cell pitch undersamples 14 of the 18 default walk-by directions
    meta = TraceMeta(SurfaceConfig(d_u=0.05), GatewayConfig(), INC, case_a_trajectory())
    with caplog.at_level(logging.WARNING, logger="steertrace"):
        events = iter_events(meta)
        assert len(caplog.records) == 1
        assert "aliasing at 14 of 18 events, first at t=0:" in caplog.records[0].getMessage()
        assert len(list(events)) == 18
    assert len(caplog.records) == 1
