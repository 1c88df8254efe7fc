import io
import itertools
import math
import random
import re
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from steertrace import (
    Angles,
    Case,
    CaseParams,
    GatewayConfig,
    ReconfigEvent,
    SurfaceConfig,
    TraceMeta,
    TrafficTrace,
    Trajectory,
    ValidationError,
    burst_stats,
    case_a_trajectory,
    destination_matrix,
    injection_rate,
    run_simulation,
    sweep_diff,
    write_trace,
)
from steertrace.cli import main
from steertrace.gateway import iter_events
from steertrace import metrics
from steertrace.metrics import spatial_cv, summarize, sweep_grid
from steertrace.trace_io import iter_trace, write_events

INC = Angles(0.0, 0.0)


def make_trace(bursts, duration=10.0):
    """Hand-built trace on the default 50x50 surface.

    ``bursts`` is a list of (t, [(col, row, state), ...]).
    """
    meta = TraceMeta(
        SurfaceConfig(),
        GatewayConfig(),
        INC,
        Trajectory(Case.A, CaseParams(), duration),
    )
    events = tuple(
        ReconfigEvent(t, Angles(10.0, 0.0), updates)
        for t, updates in bursts
    )
    return TrafficTrace(meta, events)


def test_percent_changed_values():
    trace = make_trace([
        (0.0, []),
        (1.0, [(i % 50, i // 50, 1) for i in range(1800)]),
        (2.0, [(i % 50, i // 50, 2) for i in range(2500)]),
    ])
    assert burst_stats(trace).per_event_changed_fraction == (0.0, 0.72, 1.0)


def test_destination_matrix_single_event():
    trace = make_trace([(0.0, [(0, 0, 1), (1, 1, 2)])])
    m = destination_matrix(trace)
    assert m[0, 0] == 0.5
    assert m[1, 1] == 0.5
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(m) == 2


def test_destination_matrix_zero_packets_is_all_zero():
    m = destination_matrix(make_trace([(0.0, [])]))
    assert not m.any()


@pytest.mark.parametrize(
    "cell", [(-1, 0), (0, -1), (-3, 1), (50, 0), (0, 50), (5, 60), (3, 3, 4)], ids=str
)
def test_a_cell_outside_the_surface_is_refused_not_wrapped(cell):
    update = (*cell, 1)[:3]  # a third value in ``cell`` is the state, past the 4 states
    trace = make_trace([(0.0, [(1, 1, 1)]), (1.0, [(2, 2, 1), update])])
    message = f"line 3: update {list(update)} outside the 50x50 grid or the states [0, 4)"
    for metric in (destination_matrix, burst_stats):
        with pytest.raises(ValidationError, match=re.escape(message)) as err:
            metric(trace)
        assert err.value.key == "updates"


@pytest.mark.parametrize(
    "times, match",
    [((2.0, 1.0, 1.0), "strictly increasing"), ((0.0, 10.5), "outside"), ((-1.0,), "outside")],
)
def test_event_times_out_of_order_or_outside_the_duration_are_refused(times, match):
    trace = make_trace([(t, [(1, 1, 1)]) for t in times])
    for metric in (destination_matrix, burst_stats, injection_rate):
        with pytest.raises(ValidationError, match=match) as err:
            metric(trace)
        assert err.value.key == "t"


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, 100.0, 1e-9])
def test_sweep_grid_refuses_a_step_out_of_range_before_coding(monkeypatch, step):
    """A step of zero would yield forever, one past 85 nothing and a tiny one 85 / step
    steps; each raises before any direction is coded."""
    monkeypatch.setattr(metrics, "state_blocks", None)  # a call would raise TypeError
    with pytest.raises(ValidationError) as err:
        list(itertools.islice(sweep_grid(step, 0.0, 0.0, SurfaceConfig()), 3))
    assert err.value.key == "grid"


def test_destination_matrix_normalizes(case_a_trace):
    m = destination_matrix(case_a_trace)
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    assert (m >= 0).all()


def test_per_burst_rate_arithmetic():
    trace = make_trace([(1.0, []), (2.0, [(i, 0, 1) for i in range(50)] + [(i, 1, 1) for i in range(50)])])
    assert injection_rate(trace, "per_burst") == [(2.0, 100.0)]


def test_per_burst_rate_single_event_is_empty():
    assert injection_rate(make_trace([(0.0, [(0, 0, 1)])]), "per_burst") == []


def test_binned_rate():
    trace = make_trace(
        [(0.5, [(0, 0, 1)]), (2.5, [(1, 0, 1), (2, 0, 1)])], duration=4.0
    )
    points = injection_rate(trace, "binned", bin_width=1.0)
    assert points == [(0.5, 1.0), (1.5, 0.0), (2.5, 2.0), (3.5, 0.0)]


def test_injection_rate_validation():
    trace = make_trace([(0.0, [])])
    with pytest.raises(ValidationError):
        injection_rate(trace, "binned")
    with pytest.raises(ValidationError):
        injection_rate(trace, "nope")
    # bins are bounded before allocation: no MemoryError, OverflowError or infinite midpoint
    for bin_width in (1e-9, 1e-300, math.inf):
        with pytest.raises(ValidationError) as err:
            injection_rate(trace, "binned", bin_width)
        assert err.value.key == "bin_width"
    # an event time outside [0, duration] is rejected, not wrapped into the last bin
    for t in (-5.0, 10.5):
        with pytest.raises(ValidationError) as err:
            injection_rate(make_trace([(t, [(0, 0, 1)])]), "binned", 1.0)
        assert err.value.key == "t"
    # per burst, equal times would divide by zero and reversed ones give negative rates
    for second in (2.0, 1.0):
        with pytest.raises(ValidationError, match=r"strictly increasing \(%s after 2\.0\)"
                           % second) as err:
            injection_rate(make_trace([(2.0, []), (second, [(0, 0, 1)])]), "per_burst")
        assert err.value.key == "t"


def test_case_a_peak_rate_in_final_third(case_a_trace):
    rates = injection_rate(case_a_trace, "per_burst")
    t_max, _ = max(rates, key=lambda p: p[1])
    assert t_max >= 2.0 * case_a_trace.meta.trajectory.duration / 3.0


def test_sweep_diff_identity_and_anchor():
    cfg = SurfaceConfig()
    assert sweep_diff(Angles(30.0, 0.0), Angles(30.0, 0.0), cfg) == 0.0
    assert sweep_diff(Angles(30.0, 0.0), Angles(0.0, 0.0), cfg) == 0.72


def test_sweep_diff_is_symmetric():
    cfg = SurfaceConfig(n_states=8)
    rng = random.Random(31337)
    for _ in range(25):
        p = Angles(rng.uniform(0, 89), rng.uniform(0, 360))
        q = Angles(rng.uniform(0, 89), rng.uniform(0, 360))
        assert sweep_diff(p, q, cfg) == sweep_diff(q, p, cfg)


def test_sweep_diff_larger_near_normal_than_near_grazing():
    cfg = SurfaceConfig()
    near_normal = sweep_diff(Angles(25.0, 0.0), Angles(20.0, 0.0), cfg)
    near_grazing = sweep_diff(Angles(80.0, 0.0), Angles(75.0, 0.0), cfg)
    assert near_normal > near_grazing


def test_five_degree_steps_change_more_cells_near_normal():
    cfg = SurfaceConfig()
    low = [(25.0, 20.0), (20.0, 15.0), (15.0, 10.0), (10.0, 5.0), (5.0, 0.0)]
    high = [(85.0, 80.0), (80.0, 75.0)]
    mean_low = sum(sweep_diff(Angles(a, 0), Angles(b, 0), cfg) for a, b in low) / len(low)
    mean_high = sum(sweep_diff(Angles(a, 0), Angles(b, 0), cfg) for a, b in high) / len(high)
    assert mean_low > mean_high


def test_spatial_cv_degenerate_cases():
    assert spatial_cv(np.full((5, 5), 0.04)) == 0.0
    assert spatial_cv(np.zeros((5, 5))) == 0.0


def test_burst_stats_single_event():
    trace = make_trace([(3.0, [(i, 0, 1) for i in range(10)])])
    report = burst_stats(trace)
    assert report.burst_sizes == (10,)
    assert report.total_packets == 10
    assert report.inter_event_times == ()
    assert report.per_event_changed_fraction == (10 / 2500,)


def test_burst_stats_conservation(case_a_trace):
    report = burst_stats(case_a_trace)
    assert sum(report.burst_sizes) == report.total_packets == case_a_trace.total_packets
    counts = destination_matrix(case_a_trace) * report.total_packets
    assert counts.sum() == pytest.approx(report.total_packets, rel=1e-12)
    assert len(report.burst_sizes) == len(case_a_trace.events)
    assert len(report.inter_event_times) == len(case_a_trace.events) - 1
    assert all(g > 0 for g in report.inter_event_times)


def test_bursts_carry_all_packets(case_a_trace):
    # packets exist only at event instants: summing per-event sizes is exhaustive
    assert case_a_trace.total_packets == sum(len(ev.updates) for ev in case_a_trace.events)
    assert math.isclose(
        sum(burst_stats(case_a_trace).per_event_changed_fraction)
        * case_a_trace.meta.surface.n_cells,
        case_a_trace.total_packets,
    )


class NullSink:
    def write(self, data):
        pass


def test_write_trace_memory_is_bounded_by_the_largest_event():
    """``write_trace`` on a trace of many large events peaks at a bound set by its largest
    event, not by the trace.

    Each row of an event codes into at most ``record`` bytes: the digits of the surface's
    largest col, row and state, followed by ",", "," and "],[", held in 2-, 4- or 8-byte
    words with NULs (16 bytes here).  The bound allows 8 times ``record`` for each row of
    the largest event (the words, the kept bytes and the line), 8 bytes for each entry of
    the three token tables, and 64 KB for the header and everything else.
    The coded lines of the whole trace are far above it.
    """
    surface = SurfaceConfig(n_cols=64, n_rows=64, n_states=1000)
    record = sum(len(str(n - 1)) for n in (64, 64, 1000)) + len(",,],[")
    cells = np.arange(surface.n_cells)
    sizes = [surface.n_cells, 700, 1500] * 100
    events = tuple(
        ReconfigEvent(1.0 + k, Angles(10.0, 0.0), np.stack(
            [cells[:n] % surface.n_cols, cells[:n] // surface.n_cols, np.full(n, k)], 1
        ))
        for k, n in enumerate(sizes)
    )
    meta = TraceMeta(surface, GatewayConfig(), INC, Trajectory(Case.A, CaseParams(), 400.0))
    trace = TrafficTrace(meta, events)
    bound = 8 * record * max(sizes) + 8 * (64 + 64 + 1000) + 2**16
    assert record * sum(sizes) > 10 * bound
    tracemalloc.start()
    try:
        write_trace(trace, NullSink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_streamed_simulation_memory_is_bounded_by_the_largest_event():
    """``write_events`` of ``iter_events`` peaks at a bound set by the largest event, not
    by the trace.

    Case A on a 200x200 surface sampled every 10 ms bursts in 18 events of up to 33,400
    rows.  The bound allows 4 times the largest event's rows (its diff's arrays, its
    rows, which the event takes without a copy, the previous event and the coded line)
    and 1 MB for the picks, the surface's state and everything else.  The built trace's
    rows alone exceed it.
    """
    surface, gateway = SurfaceConfig(n_cols=200, n_rows=200), GatewayConfig(sample_dt=0.01)
    meta = TraceMeta(surface, gateway, INC, case_a_trajectory())
    tracemalloc.start()
    try:
        write_events(meta, iter_events(meta), NullSink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = [ev.updates.nbytes for ev in run_simulation(meta.trajectory, surface, gateway).events]
    bound = 4 * max(rows) + 2**20
    assert sum(rows) > bound
    assert peak < bound, (peak, bound)


def test_metrics_memory_is_bounded_by_one_line(tmp_path):
    """``metrics`` on a trace of many large bursts peaks at a bound set by the largest
    line, which the reader decodes on its own, not by the trace.

    The bound allows 256 bytes (32 int64 words) for each row of the largest event: its
    text, the decoder's arrays, its rows, which the event takes without a copy, and its
    cell indices.  It adds 64 bytes for each cell (counts, matrix, CSV export) and for
    each event (sizes, times, report), and 1 MB for everything else.  The events alone
    hold 24 bytes per update, so a reader that kept them would pass the bound twice over.
    """
    surface = SurfaceConfig(n_cols=64, n_rows=64)
    cells = np.arange(surface.n_cells)
    sizes = [surface.n_cells, 700, 1500] * 100  # bursts of the whole surface, and smaller runs
    events = tuple(
        ReconfigEvent(1.0 + k, Angles(10.0, 0.0), np.stack(
            [cells[:n] % surface.n_cols, cells[:n] // surface.n_cols, np.full(n, k % 4)], 1
        ))
        for k, n in enumerate(sizes)
    )
    meta = TraceMeta(surface, GatewayConfig(), INC, Trajectory(Case.A, CaseParams(), 400.0))
    path = tmp_path / "t.jsonl"
    with open(path, "wb") as fh:
        write_trace(TrafficTrace(meta, events), fh)
    bound = 256 * max(sizes) + 64 * (surface.n_cells + len(sizes)) + 2**20
    assert 24 * sum(sizes) > 2 * bound
    del events
    argv = ["metrics", "--trace", str(path), "--report", str(tmp_path / "r"),
            "--heatmap", str(tmp_path / "h.csv")]
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_reading_and_summarizing_holds_one_event_at_a_time():
    """``iter_trace`` into ``summarize`` peaks at one event's rows and the decoder's
    arrays for the next line, not at two events' rows.

    Four bursts of a whole 300x300 surface in a row: 90,000 updates each.  The bound
    allows 48 bytes per update for one event, whose rows, decoded by the reader and
    taken by the event without a copy, hold 24; 92 for the decoder's arrays, the line's
    bytes and 1 MB for everything else.  A ``summarize`` that held the previous event
    while the next line is decoded would take 24 bytes per update more.
    """
    surface = SurfaceConfig(n_cols=300, n_rows=300)
    cells = np.arange(surface.n_cells)
    events = tuple(
        ReconfigEvent(1.0 + k, Angles(10.0, 0.0), np.stack(
            [cells % surface.n_cols, cells // surface.n_cols, (cells + k) % 4], 1
        ))
        for k in range(4)
    )
    meta = TraceMeta(surface, GatewayConfig(), INC, Trajectory(Case.A, CaseParams(), 400.0))
    buf = io.BytesIO()
    write_trace(TrafficTrace(meta, events), buf)
    line = len(buf.getvalue().split(b"\n")[1])
    del events
    buf.seek(0)
    tracemalloc.start()
    try:
        meta, read = iter_trace(buf)
        report, _ = summarize(meta.surface, read)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.burst_sizes == (surface.n_cells,) * 4
    bound = (48 + 92) * surface.n_cells + line + 2**20
    assert peak < bound, (peak, bound)
