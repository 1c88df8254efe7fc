"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summaries; every test also enforces its runtime budget.
"""

import io
import math
import random
import time

import numpy as np
from coding_oracle import phase_gradients, quantize_phase

from steertrace import (
    Angles,
    CaseParams,
    GatewayConfig,
    ReconfigEvent,
    SurfaceConfig,
    TraceMeta,
    TrafficTrace,
    case_a_trajectory,
    case_b_trajectory,
    case_c_trajectory,
    injection_rate,
    iter_events,
    read_trace,
    state_matrix,
    summarize,
    sweep_diff,
    write_trace,
)
from steertrace.coding import TWO_PI, _nearest_state
from steertrace.geometry import Case, Trajectory
from steertrace.trace_io import write_events

INC = Angles(0.0, 0.0)


def scenario(trajectory, surface=SurfaceConfig(), gateway=GatewayConfig()) -> TraceMeta:
    """``trajectory``'s scenario under normal incidence."""
    return TraceMeta(surface, gateway, INC, trajectory)


def written(meta: TraceMeta) -> bytes:
    """``meta``'s trace as ``simulate`` writes it, each event written as it is simulated."""
    buf = io.BytesIO()
    write_events(meta, iter_events(meta), buf)
    return buf.getvalue()


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} took {self.elapsed:.2f}s, budget {self.seconds}s"
            )


def report(name, detail, budget):
    print(f"PASS {name}: {detail} [{budget.elapsed:.2f}s < {budget.seconds}s]")


def test_criterion_1_last_third_concentration():
    with Budget("criterion 1", 1.0) as budget:
        meta = scenario(case_a_trajectory())
        times = [ev.t for ev in iter_events(meta)]
        cutoff = 2.0 * meta.trajectory.duration / 3.0
        fraction = sum(1 for t in times if t >= cutoff) / len(times)
        assert 0.85 <= fraction <= 0.95, fraction
    report(
        "criterion 1 (last-third concentration)",
        f"{fraction:.4f} of {len(times)} events in the final third",
        budget,
    )


def test_criterion_2_angle_dependence_ordering():
    with Budget("criterion 2", 1.0) as budget:
        cfg = SurfaceConfig()
        near_normal = sweep_diff(Angles(25.0, 0.0), Angles(20.0, 0.0), cfg)
        near_grazing = sweep_diff(Angles(80.0, 0.0), Angles(75.0, 0.0), cfg)
        assert near_normal > 1.5 * near_grazing, (near_normal, near_grazing)
    report(
        "criterion 2 (angle-dependence ordering)",
        f"25->20 changes {near_normal:.2%}, 80->75 changes {near_grazing:.2%}, "
        f"ratio {near_normal / near_grazing:.2f} > 1.5",
        budget,
    )


def test_criterion_3_injection_rate_clustering():
    # The median is taken over time (the per-burst rate in effect at the
    # median instant of the motion): a median over the bursts themselves
    # cannot measure clustering because nearly every burst sits inside the
    # final cluster.
    with Budget("criterion 3", 1.0) as budget:
        trace = read_trace(io.BytesIO(written(scenario(case_a_trajectory()))))
        rates = injection_rate(trace, "per_burst")
        duration = trace.meta.trajectory.duration

        t_max, r_max = max(rates, key=lambda p: p[1])
        assert t_max >= 2.0 * duration / 3.0, "peak rate must fall in the final third"

        spans = sorted(
            (rate, ev.t - prev.t)
            for (prev, ev), (_, rate) in zip(zip(trace.events, trace.events[1:]), rates)
        )
        total = sum(width for _, width in spans)
        acc = 0.0
        for time_median_rate, width in spans:
            acc += width
            if acc >= total / 2.0:
                break
        assert r_max >= 3.0 * time_median_rate, (r_max, time_median_rate)
    report(
        "criterion 3 (injection-rate clustering)",
        f"peak {r_max:.0f} pkt/s at t={t_max:.1f}s, {r_max / time_median_rate:.0f}x "
        f"the time-median rate {time_median_rate:.0f} pkt/s",
        budget,
    )


def test_criterion_4_angular_step_monotonicity():
    # quarter-wavelength cells saturate the 5- and 10-degree steps, so the
    # shared scenario uses a sixteenth-wavelength pitch to keep all three
    # step sizes in the informative regime
    with Budget("criterion 4", 5.0) as budget:
        surface = SurfaceConfig(d_u=0.001875)
        trajectory = case_b_trajectory()
        means, counts = {}, {}
        for step in (2.0, 5.0, 10.0):
            meta = scenario(trajectory, surface, GatewayConfig(angular_step=step))
            fractions = summarize(surface, iter_events(meta))[0].per_event_changed_fraction
            means[step] = sum(fractions) / len(fractions)
            counts[step] = len(fractions)
        assert means[2.0] < means[5.0] < means[10.0], means
        assert counts[2.0] > counts[5.0] > counts[10.0], counts
    report(
        "criterion 4 (angular-step monotonicity)",
        f"mean changed fraction {means[2.0]:.3f} < {means[5.0]:.3f} < {means[10.0]:.3f}; "
        f"events {counts[2.0]} > {counts[5.0]} > {counts[10.0]}",
        budget,
    )


def test_criterion_5_state_count_traffic_monotonicity():
    with Budget("criterion 5", 5.0) as budget:
        trajectory = case_b_trajectory()
        totals = {}
        for n_states in (4, 8, 16):
            surface = SurfaceConfig(n_states=n_states)
            meta = scenario(trajectory, surface)
            totals[n_states] = summarize(surface, iter_events(meta))[0].total_packets
        assert totals[16] >= totals[8] >= totals[4], totals
        assert totals[16] > totals[4], "at least one inequality must be strict"
    report(
        "criterion 5 (state-count traffic monotonicity)",
        f"total packets {totals[4]} <= {totals[8]} <= {totals[16]}",
        budget,
    )


def test_criterion_6_spatial_uniformity_under_random_motion():
    with Budget("criterion 6", 10.0) as budget:
        surface = SurfaceConfig()
        gw = GatewayConfig()
        leap_params = CaseParams(rng_seed=1234)
        duration = 242.0
        n_leaps = int(duration / leap_params.leap_interval)
        assert n_leaps >= 100

        meta_c = scenario(case_c_trajectory(leap_params, duration), surface, gw)
        report_c = summarize(surface, iter_events(meta_c))[0]
        report_a = summarize(surface, iter_events(scenario(case_a_trajectory(), surface, gw)))[0]
        assert report_c.total_packets >= report_a.total_packets

        cv_c, cv_a = report_c.spatial_cv, report_a.spatial_cv
        assert cv_c < cv_a, (cv_c, cv_a)
    report(
        "criterion 6 (spatial uniformity under random motion)",
        f"{n_leaps} leaps: CV {cv_c:.3f} < walk-by CV {cv_a:.3f}",
        budget,
    )


def test_criterion_7_oracle_suites():
    with Budget("criterion 7", 30.0) as budget:
        # quantizer equals exhaustive argmin on 1e5 random phases, exactly
        rng = np.random.default_rng(20240809)
        phases = rng.uniform(0.0, TWO_PI, 100000)
        for n_states in (2, 4, 8, 16):
            got = _nearest_state(phases, n_states)
            states = TWO_PI * np.arange(n_states) / n_states
            d = np.abs(phases[:, None] - states[None, :])
            d = np.minimum(d, TWO_PI - d)
            assert np.array_equal(got, np.argmin(d, axis=1)), n_states
            for p in phases[:500]:
                assert quantize_phase(float(p), n_states) == int(
                    _nearest_state(np.asarray(p), n_states)
                )

        # gradient relation recovers the reflected direction, 1e4 pairs
        cfg = SurfaceConfig(lambda_i=0.03, lambda_r=0.02)
        pairs = rng.uniform(0.0, 1.0, (10000, 4))
        for ti, pi_, tr, pr in pairs:
            inc = Angles(89.9 * ti, 360.0 * pi_)
            ref = Angles(89.9 * tr, 360.0 * pr)
            g = phase_gradients(inc, ref, cfg)
            si = math.sin(math.radians(inc.theta))
            got_c = (g.gx + cfg.k_i * si * math.cos(math.radians(inc.phi))) / cfg.k_r
            got_s = (g.gy + cfg.k_i * si * math.sin(math.radians(inc.phi))) / cfg.k_r
            want_c = math.sin(math.radians(ref.theta)) * math.cos(math.radians(ref.phi))
            want_s = math.sin(math.radians(ref.theta)) * math.sin(math.radians(ref.phi))
            for got, want in ((got_c, want_c), (got_s, want_s)):
                err = abs(got - want) / abs(want) if want != 0.0 else abs(got - want)
                assert err < 1e-9

        # replay soundness on all three mobility cases, from the traces as written and read
        surface = SurfaceConfig()
        metas = [
            scenario(case_a_trajectory()),
            scenario(case_b_trajectory()),
            scenario(case_c_trajectory(CaseParams(rng_seed=31), duration=30.0)),
        ]
        traces = [read_trace(io.BytesIO(written(meta))) for meta in metas]
        for trace in traces:
            m = np.zeros((surface.n_rows, surface.n_cols), dtype=np.int64)
            for ev in trace.events:
                for c, r, s in ev.updates.tolist():
                    m[r, c] = s
            final = state_matrix(INC, trace.events[-1].reflected, surface)
            assert np.array_equal(m, final), trace.meta.trajectory.case_id

        # serialization round trip on simulated and generated traces
        for meta, trace in zip(metas, traces):
            assert trace == TrafficTrace(meta, tuple(iter_events(meta)))
        py_rng = random.Random(5150)
        for trace in [_random_trace(py_rng) for _ in range(20)]:
            buf = io.BytesIO()
            write_trace(trace, buf)
            buf.seek(0)
            assert read_trace(buf) == trace
    report(
        "criterion 7 (oracle suites)",
        "quantizer argmin (1e5), gradient round trip (1e4), replay A/B/C, "
        "serialization round trip",
        budget,
    )


def _random_trace(rng):
    surface = SurfaceConfig(n_cols=rng.randint(2, 10), n_rows=rng.randint(2, 10))
    meta = TraceMeta(
        surface,
        GatewayConfig(),
        INC,
        Trajectory(Case.C, CaseParams(rng_seed=rng.randint(0, 1000)), 10.0),
    )
    events, t = [], 0.0
    for _ in range(rng.randint(0, 5)):
        t += rng.uniform(0.01, 2.0)
        cells = rng.sample(
            [(i, j) for i in range(surface.n_cols) for j in range(surface.n_rows)],
            rng.randint(0, surface.n_cells // 3),
        )
        events.append(
            ReconfigEvent(
                t,
                Angles(rng.uniform(0, 89), rng.uniform(0, 360)),
                tuple((c, r, rng.randrange(4)) for c, r in cells),
            )
        )
    return TrafficTrace(meta, tuple(events))


def test_criterion_8_exactness_anchors():
    with Budget("criterion 8", 1.0) as budget:
        cfg = SurfaceConfig()
        m30 = state_matrix(INC, Angles(30.0, 0.0), cfg)
        pattern = np.tile([0, 0, 1, 1, 2, 2, 3, 3], 7)[: cfg.n_cols]
        assert np.array_equal(m30[0], pattern)
        assert (m30 == m30[0]).all()

        fraction = sweep_diff(Angles(30.0, 0.0), Angles(0.0, 0.0), cfg)
        assert fraction == 0.72

        assert not state_matrix(INC, Angles(0.0, 0.0), cfg).any()
    report(
        "criterion 8 (exactness anchors)",
        "period-8 row pattern, 30->0 fraction exactly 0.72, zero direction all-zero",
        budget,
    )


def test_criterion_9_determinism():
    with Budget("criterion 9", 5.0) as budget:
        scenarios = (
            case_c_trajectory(CaseParams(rng_seed=7), duration=20.0),
            case_a_trajectory(CaseParams(start_theta=60.0)),
        )
        for traj in scenarios:
            blobs = [written(scenario(traj)) for _ in range(2)]
            assert blobs[0] == blobs[1], traj.case_id
    report("criterion 9 (determinism)", "repeated seeded runs are byte-identical", budget)
