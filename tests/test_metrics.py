import math
import random

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
    destination_matrix,
    injection_rate,
    sweep_diff,
)
from steertrace.metrics import spatial_cv

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
