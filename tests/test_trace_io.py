import io
import random

import numpy as np
import pytest

from steertrace import trace_io
from steertrace import (
    Angles,
    Case,
    CaseParams,
    GatewayConfig,
    ReconfigEvent,
    SurfaceConfig,
    TraceMeta,
    TraceParseError,
    TraceWriteError,
    TrafficTrace,
    Trajectory,
    ValidationError,
    burst_stats,
    case_a_trajectory,
    case_b_trajectory,
    case_c_trajectory,
    export_heatmap,
    read_report,
    read_trace,
    run_simulation,
    write_report,
    write_trace,
)


def roundtrip(trace):
    buf = io.BytesIO()
    write_trace(trace, buf)
    buf.seek(0)
    return read_trace(buf)


def test_round_trip_is_identity(short_case_c_trace):
    assert roundtrip(short_case_c_trace) == short_case_c_trace


def test_case_a_trace_has_one_line_per_event_plus_header(case_a_trace):
    buf = io.BytesIO()
    write_trace(case_a_trace, buf)
    lines = buf.getvalue().decode("utf-8").splitlines()
    assert len(case_a_trace.events) == 18
    assert len(lines) == 19


def test_empty_event_trace_serializes():
    traj = case_c_trajectory(CaseParams(start_theta=1e-3), duration=1.0)
    trace = run_simulation(traj, SurfaceConfig(), GatewayConfig())
    buf = io.BytesIO()
    write_trace(trace, buf)
    lines = buf.getvalue().decode("utf-8").splitlines()
    assert len(lines) == 2
    assert '"updates":[]' in lines[1]
    assert roundtrip(trace) == trace


def test_files_use_lf_only(case_a_trace):
    buf = io.BytesIO()
    write_trace(case_a_trace, buf)
    data = buf.getvalue()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def random_trace(rng):
    surface = SurfaceConfig(
        n_cols=rng.randint(2, 12),
        n_rows=rng.randint(2, 12),
        n_states=rng.choice([2, 4, 8]),
    )
    duration = rng.uniform(0.5, 100.0)
    meta = TraceMeta(
        surface,
        GatewayConfig(angular_step=rng.uniform(1, 10), sample_dt=rng.uniform(1e-3, 0.1)),
        Angles(rng.uniform(0, 89), rng.uniform(0, 360)),
        Trajectory(
            rng.choice([Case.A, Case.B, Case.C]),
            CaseParams(rng_seed=rng.randint(0, 2**31)),
            duration,
        ),
    )
    t = 0.0
    events = []
    for _ in range(rng.randint(0, 6)):
        t += rng.uniform(1e-3, duration / 6)  # event times lie in [0, duration]
        cells = rng.sample(
            [(i, j) for i in range(surface.n_cols) for j in range(surface.n_rows)],
            rng.randint(0, surface.n_cells // 2),
        )
        updates = tuple((c, r, rng.randrange(surface.n_states)) for c, r in cells)
        events.append(ReconfigEvent(t, Angles(rng.uniform(0, 89), rng.uniform(0, 360)), updates))
    return TrafficTrace(meta, tuple(events))


def test_round_trip_on_generated_traces():
    rng = random.Random(987654)
    for _ in range(25):
        trace = random_trace(rng)
        assert roundtrip(trace) == trace


def test_header_meta_regenerates_identical_trace():
    scenarios = (
        case_a_trajectory(CaseParams(start_theta=40.0)),
        case_b_trajectory(),
        case_c_trajectory(CaseParams(rng_seed=5), duration=8.0),
    )
    for traj in scenarios:
        trace = run_simulation(traj, SurfaceConfig(), GatewayConfig())
        first = io.BytesIO()
        write_trace(trace, first)
        first.seek(0)
        meta = read_trace(first).meta
        rerun = run_simulation(meta.trajectory, meta.surface, meta.gateway, meta.incident)
        second = io.BytesIO()
        write_trace(rerun, second)
        assert second.getvalue() == first.getvalue(), traj.case_id


def write_lines(*lines):
    return io.BytesIO(("\n".join(lines) + "\n").encode("utf-8"))


HEADER = (
    '{"format_version":1,"created":"x","meta":{'
    '"surface":{"n_cols":50,"n_rows":50,"d_u":0.0075,"n_states":4},'
    '"wave":{"lambda_i":0.03,"lambda_r":0.03},'
    '"incidence":{"theta":0.0,"phi":0.0},'
    '"gateway":{"angular_step":5.0,"sample_dt":0.001},'
    '"scenario":{"case":"A","standoff_distance":10.0,"speed":1.4,"start_theta":85.0,'
    '"launch_angle":45.0,"leap_interval":2.0,"rng_seed":1,"duration":81.0}}}'
)


EVENT = '{"t":1.0,"theta_r":80.0,"phi_r":0.0,"updates":[[1,2,1]]}'


@pytest.mark.parametrize(
    "old, new, line, needle",
    [
        ('"case":"A"', '"case":"Z"', 1, "scenario.case"),
        ('"speed":1.4', '"speed":"fast"', 1, "scenario.speed"),
        ('"rng_seed":1', '"rng_seed":1e400', 1, "scenario.rng_seed"),
        ('"n_cols":50', '"n_cols":7.9', 1, "surface.n_cols"),
        ('"d_u"', '"extra":1,"d_u"', 1, "surface.extra"),
        ("[[1,2,1]]", "[[0.9,0,1]]", 2, "update [0.9, 0, 1]"),
        ("[[1,2,1]]", "[[true,0,1]]", 2, "update [True, 0, 1]"),
        ('"theta_r":80.0', '"theta_r":NaN', 2, "theta_r"),
        ('"theta_r":80.0', '"theta_r":"80"', 2, "theta_r"),
        ("[[1,2,1]]", "[[99999999999999999999,0,1]]", 2, "64 bits"),
        ("[[1,2,1]]", "", 2, "invalid JSON"),
        ('"theta":0.0', '"theta":95.0', 1, "incidence.theta"),
        ('"d_u":0.0075', '"d_u":1e306', 1, "surface.d_u"),
        ('"n_states":4', '"n_states":65537', 1, "surface.n_states"),
        ('"lambda_r":0.03', '"lambda_r":1e-300', 1, "wave.lambda_r"),
        ('"t":1.0', '"t":-5.0', 2, "event time -5.0 outside"),
        ('"t":1.0', '"t":81.5', 2, "event time 81.5 outside"),  # the header's duration is 81
    ],
)
def test_read_rejects_malformed_header_and_event_values(old, new, line, needle):
    text = f"{HEADER}\n{EVENT}"
    assert text.count(old) == 1
    with pytest.raises((TraceParseError, ValidationError)) as err:
        read_trace(write_lines(text.replace(old, new)))
    assert str(err.value).startswith(f"line {line}:")
    assert needle in str(err.value)


def test_read_resolves_null_speed_and_duration_per_case():
    header = HEADER.replace('"speed":1.4', '"speed":null')
    meta = read_trace(write_lines(header.replace('"duration":81.0', '"duration":null'))).meta
    assert meta.trajectory == case_a_trajectory()


def test_read_rejects_decreasing_timestamps():
    src = write_lines(
        HEADER,
        '{"t":2.0,"theta_r":80.0,"phi_r":0.0,"updates":[]}',
        '{"t":1.0,"theta_r":75.0,"phi_r":0.0,"updates":[]}',
    )
    with pytest.raises(ValidationError, match="strictly increasing"):
        read_trace(src)


def test_read_reports_line_number_for_truncated_tail():
    src = io.BytesIO(
        (HEADER + "\n" + '{"t":2.0,"theta_r":80.0,"phi_r":0.0,"upd').encode("utf-8")
    )
    with pytest.raises(TraceParseError) as err:
        read_trace(src)
    assert err.value.line_number == 2


def test_read_rejects_bad_version():
    src = write_lines(HEADER.replace('"format_version":1', '"format_version":9'))
    with pytest.raises(ValidationError, match="format_version"):
        read_trace(src)


def test_read_rejects_out_of_bounds_updates():
    src = write_lines(HEADER, '{"t":1.0,"theta_r":80.0,"phi_r":0.0,"updates":[[50,0,1]]}')
    with pytest.raises(ValidationError, match="outside"):
        read_trace(src)
    src = write_lines(HEADER, '{"t":1.0,"theta_r":80.0,"phi_r":0.0,"updates":[[0,0,4]]}')
    with pytest.raises(ValidationError, match="outside"):
        read_trace(src)


def test_read_rejects_duplicate_cells():
    src = write_lines(
        HEADER, '{"t":1.0,"theta_r":80.0,"phi_r":0.0,"updates":[[1,2,1],[1,2,3]]}'
    )
    with pytest.raises(ValidationError, match="duplicate"):
        read_trace(src)


def test_read_accepts_bursts_in_any_cell_order(case_a_trace):
    """The writer lists a burst's cells in row-major order; the reverse is as valid."""
    events = [ReconfigEvent(ev.t, ev.reflected, ev.updates[::-1]) for ev in case_a_trace.events]
    reversed_trace = TrafficTrace(case_a_trace.meta, tuple(events))
    assert any(len(ev.updates) > 1 for ev in events)
    assert roundtrip(reversed_trace) == reversed_trace != case_a_trace


def test_read_accepts_event_times_at_both_ends_of_the_scenario():
    src = write_lines(
        HEADER,
        '{"t":0,"theta_r":80.0,"phi_r":0.0,"updates":[]}',
        '{"t":81.0,"theta_r":75.0,"phi_r":0.0,"updates":[]}',
    )
    assert [ev.t for ev in read_trace(src).events] == [0.0, 81.0]


@pytest.mark.parametrize(
    "line_3, line_4",
    [
        # an update off the grid, in the writer's spelling, then JSON that is not
        ("[[50,0,1]]", "[[1, 2, 1]"),
        ("[[1,2,1],[1,2,0]]", '[[1,2,1]],"x":'),
        # and the other way round
        ("[[1, 2, 1]", "[[50,0,1]]"),
        ("[[1,2,1],]", "[[1,2,1],[1,2,0]]"),
    ],
)
def test_the_first_bad_line_is_reported_whichever_path_reads_it(line_3, line_4):
    src = write_lines(
        HEADER,
        '{"t":1.0,"theta_r":80.0,"phi_r":0.0,"updates":[[1,2,1]]}',
        f'{{"t":2.0,"theta_r":80.0,"phi_r":0.0,"updates":{line_3}}}',
        f'{{"t":3.0,"theta_r":80.0,"phi_r":0.0,"updates":{line_4}}}',
    )
    with pytest.raises((TraceParseError, ValidationError)) as err:
        read_trace(src)
    assert str(err.value).startswith("line 3:")


def test_read_rejects_empty_file():
    with pytest.raises(TraceParseError) as err:
        read_trace(io.BytesIO(b""))
    assert err.value.line_number == 1


class FailingSink:
    def __init__(self, accept_bytes):
        self.accept_bytes = accept_bytes
        self.taken = 0

    def write(self, data):
        if self.taken + len(data) > self.accept_bytes:
            raise OSError("disk full")
        self.taken += len(data)


def test_write_failure_reports_byte_offset(short_case_c_trace, monkeypatch):
    whole = io.BytesIO()
    write_trace(short_case_c_trace, whole)
    first_line_len = whole.getvalue().index(b"\n") + 1
    sink = FailingSink(first_line_len)  # header fits, first event does not
    with pytest.raises(TraceWriteError) as err:
        write_trace(short_case_c_trace, sink)
    assert err.value.byte_offset == first_line_len

    # with every event coded in one group, a failure inside a later event
    # still reports where that event's line begins
    monkeypatch.setattr(trace_io, "_GROUP_ROWS", 10**9)
    assert len(short_case_c_trace.events) >= 3
    line_starts = [0, *(k + 1 for k, byte in enumerate(whole.getvalue()) if byte == ord("\n"))]
    for start, stop in zip(line_starts[2:], line_starts[3:]):
        with pytest.raises(TraceWriteError) as err:
            write_trace(short_case_c_trace, FailingSink((start + stop) // 2))
        assert err.value.byte_offset == start


def test_report_round_trip(case_a_trace):
    report = burst_stats(case_a_trace)
    buf = io.BytesIO()
    write_report(report, buf)
    buf.seek(0)
    assert read_report(buf) == report


REPORT_HEADER = '{"format_version":1,"created":"x","kind":"workload_report"}'
REPORT_BODY = (
    '{"total_packets":7,"spatial_cv":0.5,"per_event_changed_fraction":[0.5],'
    '"burst_sizes":[7],"inter_event_times":[]}'
)


@pytest.mark.parametrize(
    "old, new, line",
    [
        ('"total_packets":7', '"total_packets":7.9', 2),
        ('"total_packets":7', '"total_packets":true', 2),
        ('"spatial_cv":0.5', '"spatial_cv":"NaN"', 2),
        ('"spatial_cv":0.5', '"spatial_cv":NaN', 2),
        ('"spatial_cv":0.5', '"spatial_cv":[0.5]', 2),
        ("[0.5]", "[true]", 2),
        ('"burst_sizes":[7]', '"burst_sizes":["3"]', 2),
        ('"burst_sizes":[7]', '"burst_sizes":7', 2),
        ('"inter_event_times":[]', '"inter_event_times":{}', 2),
        ('"total_packets":7,', "", 2),
        (REPORT_BODY, "", 2),
        ('"format_version":1', '"format_version":true', 1),
        ('"workload_report"', '"\udcff"', 1),  # the lone byte 0xff, not UTF-8
    ],
)
def test_read_report_rejects_what_the_trace_rules_reject(old, new, line):
    text = f"{REPORT_HEADER}\n{REPORT_BODY}"
    assert read_report(io.BytesIO(text.encode())).burst_sizes == (7,)
    assert text.count(old) == 1
    data = text.replace(old, new).encode("utf-8", "surrogateescape")
    with pytest.raises((TraceParseError, ValidationError)) as err:
        read_report(io.BytesIO(data))
    if isinstance(err.value, TraceParseError):
        assert err.value.line_number == line
    else:
        assert err.value.key == "format_version"


def test_heatmap_csv_exact_bytes():
    buf = io.BytesIO()
    export_heatmap(np.array([[0.5, 0.5], [0.0, 0.0]]), "csv", buf)
    assert buf.getvalue() == b"0.5,0.5\n0,0\n"


def test_heatmap_csv_values_round_trip():
    rng = np.random.default_rng(8)
    m = rng.uniform(0.0, 1.0, (7, 5))
    buf = io.BytesIO()
    export_heatmap(m, "csv", buf)
    rows = [
        [float(tok) for tok in line.split(",")]
        for line in buf.getvalue().decode().splitlines()
    ]
    assert np.array_equal(np.array(rows), m)


def parse_pgm(data):
    tokens = data.decode().split()
    assert tokens[0] == "P2"
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    pixels = np.array([int(v) for v in tokens[4:]]).reshape(h, w)
    return w, h, maxval, pixels


def test_heatmap_pgm_uniform_saturates():
    buf = io.BytesIO()
    export_heatmap(np.full((3, 4), 0.25), "pgm", buf)
    w, h, maxval, pixels = parse_pgm(buf.getvalue())
    assert (w, h, maxval) == (4, 3, 255)
    assert (pixels == 255).all()


def test_heatmap_pgm_zero_matrix():
    buf = io.BytesIO()
    export_heatmap(np.zeros((3, 4)), "pgm", buf)
    *_, pixels = parse_pgm(buf.getvalue())
    assert not pixels.any()


def test_heatmap_pgm_scales_by_max(case_a_trace):
    from steertrace import destination_matrix

    m = destination_matrix(case_a_trace)
    buf = io.BytesIO()
    export_heatmap(m, "pgm", buf)
    w, h, maxval, pixels = parse_pgm(buf.getvalue())
    assert (w, h) == (m.shape[1], m.shape[0])
    assert np.array_equal(pixels, np.rint(255.0 * m / m.max()).astype(int))
    lines = buf.getvalue().decode().splitlines()
    assert max(len(line) for line in lines) <= 70


def test_heatmap_validation():
    with pytest.raises(ValidationError):
        export_heatmap(np.zeros((2, 2)), "png", io.BytesIO())
    with pytest.raises(ValidationError):
        export_heatmap(np.array([[-0.1, 0.2]]), "csv", io.BytesIO())
    with pytest.raises(ValidationError):
        export_heatmap(np.zeros(4), "csv", io.BytesIO())
