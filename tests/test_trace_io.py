import io
import json
import random
import textwrap
from unittest import mock

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
    case_a_trajectory,
    case_b_trajectory,
    case_c_trajectory,
    export_heatmap,
    injection_rate,
    iter_events,
    read_report,
    read_trace,
    summarize,
    write_report,
    write_trace,
)
from steertrace.gateway import checked_events
from steertrace.trace_io import iter_trace, write_events


def roundtrip(trace):
    buf = io.BytesIO()
    write_trace(trace, buf)
    buf.seek(0)
    return read_trace(buf)


def test_round_trip_is_identity(short_case_c_trace):
    assert roundtrip(short_case_c_trace) == short_case_c_trace


@pytest.mark.parametrize(
    "surface, gateway, trajectory",
    [
        (SurfaceConfig(), GatewayConfig(), case_a_trajectory()),
        (SurfaceConfig(), GatewayConfig(), case_b_trajectory()),
        (SurfaceConfig(), GatewayConfig(), case_c_trajectory(CaseParams(rng_seed=3))),
        # 4,251 events, 4,227 of them empty
        (SurfaceConfig(n_cols=8, n_rows=8), GatewayConfig(angular_step=0.02), case_a_trajectory()),
        # 14 of the 18 picks aliased
        (SurfaceConfig(d_u=0.05), GatewayConfig(), case_a_trajectory()),
    ],
    ids=["A", "B", "C-seed3", "A-8x8-step0.02", "A-aliased"],
)
def test_streamed_events_write_the_bytes_of_the_built_trace(surface, gateway, trajectory):
    """Held or streamed, the events write the same bytes, and summarizing them as they
    are simulated gives what summarizing them as they are read back gives."""
    meta = TraceMeta(surface, gateway, Angles(0.0, 0.0), trajectory)
    trace = TrafficTrace(meta, tuple(iter_events(meta)))
    built, streamed = io.BytesIO(), io.BytesIO()
    write_trace(trace, built)
    counts = write_events(meta, iter_events(meta), streamed)
    assert streamed.getvalue() == built.getvalue()
    assert counts == (len(trace.events), trace.total_packets)
    report, matrix = summarize(meta.surface, iter_events(meta))
    streamed.seek(0)
    read_meta, events = iter_trace(streamed)
    report_read, matrix_read = summarize(read_meta.surface, events)
    assert report_read == report and np.array_equal(matrix_read, matrix)


def test_empty_bursts_take_no_numpy_pass():
    """An "updates" of "[]", as 4,227 of the 4,251 events of an 8x8 surface at a step of
    0.02 degrees are, is read without decoding its bytes in numpy."""
    meta = TraceMeta(SurfaceConfig(n_cols=8, n_rows=8), GatewayConfig(angular_step=0.02),
                     Angles(0.0, 0.0), case_a_trajectory())
    buf = io.BytesIO()
    n_events, _ = write_events(meta, iter_events(meta), buf)
    buf.seek(0)
    with mock.patch.object(np, "frombuffer", wraps=np.frombuffer) as pieces:  # one a piece
        events = read_trace(buf).events
    assert len(events) == n_events == 4_251
    assert pieces.call_count == sum(len(ev.updates) > 0 for ev in events) == 24


TOKENS = {"col": b",", "state": b"],["}  # what the writer puts after each: "col," "row," "state],["


@pytest.mark.parametrize(
    "n, kind",
    [(n, kind) for n in (1, 9, 10, 11, 99, 100, 101, 1000) for kind in TOKENS]
    + [(10**6, "col"), (2**16, "state")],  # n_cols on a 1-row grid, and n_states, at the limit
)
def test_a_token_table_holds_each_value_in_a_machine_word(n, kind):
    after = TOKENS[kind]
    table = trace_io._token_table(n, after)
    assert table.shape == (n,) and table.dtype.kind == "u" and table.dtype.itemsize in (2, 4, 8)
    words = table.view(np.uint8).reshape(n, table.dtype.itemsize)
    values = np.arange(n)
    digits = 1 + (values[:, None] >= 10 ** np.arange(1, 7)).sum(1)
    # each word holds its token's bytes and NULs, and the words' bytes without their NULs
    # are the tokens in turn: so each word without its NULs is its own token
    assert np.array_equal(np.count_nonzero(words, 1), digits + len(after))
    want = "".join(f"{v}{after.decode()}" for v in range(n)).encode()
    assert words.tobytes().translate(None, b"\0") == want


def test_the_writer_spells_the_largest_values_under_the_schemas_limits():
    surface = SurfaceConfig(n_cols=10**6, n_rows=1, n_states=2**16)
    meta = TraceMeta(surface, GatewayConfig(), Angles(0.0, 0.0), case_a_trajectory())
    rows = [[0, 0, 0], [9, 0, 9], [10, 0, 10], [99_999, 0, 65_535], [999_999, 0, 65_535]]
    buf = io.BytesIO()
    write_events(meta, [ReconfigEvent(1.0, Angles(5.0, 0.0), rows)], buf, created="x")
    line = json.dumps({"t": 1.0, "theta_r": 5.0, "phi_r": 0.0, "updates": rows},
                      separators=(",", ":"))
    assert buf.getvalue().split(b"\n")[1] == line.encode()


def test_case_a_trace_has_one_line_per_event_plus_header(case_a_trace):
    buf = io.BytesIO()
    write_trace(case_a_trace, buf)
    lines = buf.getvalue().decode("utf-8").splitlines()
    assert len(case_a_trace.events) == 18
    assert len(lines) == 19


def test_empty_event_trace_serializes():
    traj = case_c_trajectory(CaseParams(start_theta=1e-3), duration=1.0)
    meta = TraceMeta(SurfaceConfig(), GatewayConfig(), Angles(0.0, 0.0), traj)
    trace = TrafficTrace(meta, tuple(iter_events(meta)))
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
        meta = TraceMeta(SurfaceConfig(), GatewayConfig(), Angles(0.0, 0.0), traj)
        first = io.BytesIO()
        write_events(meta, iter_events(meta), first)
        first.seek(0)
        meta = iter_trace(first)[0]
        second = io.BytesIO()
        write_events(meta, iter_events(meta), second)
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


REFUSED = {  # events (t, rows) on HEADER's 50x50 surface of 4 states over 81 s
    "a cell twice": (
        [(1.0, [[0, 0, 1]]), (2.0, [[1, 2, 1], [3, 2, 0], [1, 2, 3]])],
        "updates", "line 3: duplicate update for cell (1, 2)",
    ),
    "a time past the duration": (
        [(1.0, [[1, 2, 1]]), (81.5, [])],
        "t", "line 3: event time 81.5 outside the scenario's [0, 81.0]",
    ),
    "decreasing times": (
        [(2.0, []), (1.0, [[0, 0, 1]])],
        "t", "line 3: event times must be strictly increasing (1.0 after 2.0)",
    ),
    "a cell off the surface": (
        [(1.0, []), (2.0, [[0, 0, 1], [50, 0, 1]])],
        "updates", "line 3: update [50, 0, 1] outside the 50x50 grid or the states [0, 4)",
    ),
    "more rows than cells, before the time": (
        [(1.0, []), (90.0, [[1, 1, 1]] * 2501)],
        "updates", "line 3: more updates than the 2500 cells of the 50x50 grid",
    ),
}


@pytest.mark.parametrize("events, key, message", REFUSED.values(), ids=list(REFUSED))
def test_writer_reader_and_metrics_refuse_a_bad_event_in_the_same_words(events, key, message):
    """The writer, the reader of hand-written lines, ``checked_events`` ahead of
    ``summarize`` and ``injection_rate`` refuse the same event with the same
    ValidationError, and the writer writes no byte of its line."""
    meta = read_trace(write_lines(HEADER)).meta
    trace = TrafficTrace(meta, tuple(
        ReconfigEvent(t, Angles(80.0, 0.0), np.array(rows, np.int64).reshape(-1, 3))
        for t, rows in events
    ))
    lines = [json.dumps({"t": t, "theta_r": 80.0, "phi_r": 0.0, "updates": rows},
                        separators=(",", ":")) for t, rows in events]
    written = io.BytesIO()
    refusals = {
        "write_trace": lambda: write_trace(trace, written),
        "read_trace": lambda: read_trace(write_lines(HEADER, *lines)),
        "summarize": lambda: summarize(meta.surface, checked_events(meta, trace.events)),
        "injection_rate": lambda: injection_rate(trace),
    }
    for name, refuse in refusals.items():
        with pytest.raises(ValidationError) as err:
            refuse()
        assert (str(err.value), err.value.key) == (message, key), name
    assert written.getvalue().count(b"\n") == 2  # the header and line 2, not line 3


def test_a_long_line_is_refused_for_its_rows_before_it_is_read_whole():
    # HEADER's longest event line in the writer's spelling is 25,112 bytes: a head and
    # 2,500 rows of "[49,49,3],".  A longer line is read that much at a time, and refused
    # once its pieces hold more "[" than 2,500 rows do, whatever else is wrong with it
    def line(t, rows):
        return f'{{"t":{t},"theta_r":80.0,"phi_r":0.0,"updates":[{rows}]}}'

    spaced = ", ".join(["[1, 1, 1]"] * 2501)  # 27,509 bytes: the json path
    with pytest.raises(ValidationError) as err:
        read_trace(write_lines(HEADER, line(-1.0, spaced)))
    assert (str(err.value), err.value.key) == (
        "line 2: more updates than the 2500 cells of the 50x50 grid", "updates")
    # a long line of 2,500 rows at most is read whole, and keeps its outcome and message
    with pytest.raises(TraceParseError) as err:
        read_trace(write_lines(HEADER, EVENT, line(2.0, "[1, 2," + " " * 30_000 + "1e99]")))
    assert str(err.value) == "line 3: update [1, 2, 1e+99] is not 3 integers"
    every_cell = ", ".join(f"[{c}, {r}, 3]" for r in range(50) for c in range(50))
    trace = read_trace(write_lines(HEADER, line(2.0, every_cell)))
    assert len(every_cell) > 25_112 and len(trace.events[0].updates) == 2500


def test_read_event_updates_are_read_only():
    """Rows that ``iter_trace`` decodes, on the numpy path or through ``json``, are
    read-only, as those of ``iter_events`` are."""
    respelled = '{"t": 2.0, "theta_r": 80.0, "phi_r": 0.0, "updates": [[1, 2, 1]]}'
    empty = '{"t":3.0,"theta_r":80.0,"phi_r":0.0,"updates":[]}'
    _, events = trace_io.iter_trace(write_lines(HEADER, EVENT, respelled, empty))
    events = list(events)
    assert [len(ev.updates) for ev in events] == [1, 1, 0]
    assert not any(ev.updates.flags.writeable for ev in events)
    for ev in events[:2]:
        with pytest.raises(ValueError, match="read-only"):
            ev.updates[0, 2] = 0


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


def test_a_body_cut_short_is_not_joined_with_the_next_line():
    """Line 2's updates lack their "]" and line 3's start with it: read together, the
    bytes spell one burst and one empty one, but line 2 alone is not JSON."""
    src = write_lines(
        HEADER,
        '{"t":1.0,"theta_r":80.0,"phi_r":0.0,"updates":[[1,2,3]}',
        '{"t":2.0,"theta_r":80.0,"phi_r":0.0,"updates":][]}',
    )
    with pytest.raises(TraceParseError, match="invalid JSON") as err:
        read_trace(src)
    assert err.value.line_number == 2


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


def test_write_failure_reports_byte_offset(short_case_c_trace):
    whole = io.BytesIO()
    write_trace(short_case_c_trace, whole)
    first_line_len = whole.getvalue().index(b"\n") + 1
    sink = FailingSink(first_line_len)  # header fits, first event does not
    with pytest.raises(TraceWriteError) as err:
        write_trace(short_case_c_trace, sink)
    assert err.value.byte_offset == first_line_len

    # a failure inside a later event reports where that event's line begins
    assert len(short_case_c_trace.events) >= 3
    line_starts = [0, *(k + 1 for k, byte in enumerate(whole.getvalue()) if byte == ord("\n"))]
    for start, stop in zip(line_starts[2:], line_starts[3:]):
        with pytest.raises(TraceWriteError) as err:
            write_trace(short_case_c_trace, FailingSink((start + stop) // 2))
        assert err.value.byte_offset == start


def test_report_round_trip(case_a_summary):
    report = case_a_summary[0]
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


def test_heatmap_pgm_scales_by_max(case_a_summary):
    m = case_a_summary[1]
    buf = io.BytesIO()
    export_heatmap(m, "pgm", buf)
    w, h, maxval, pixels = parse_pgm(buf.getvalue())
    assert (w, h) == (m.shape[1], m.shape[0])
    assert np.array_equal(pixels, np.rint(255.0 * m / m.max()).astype(int))
    lines = buf.getvalue().decode().splitlines()
    assert max(len(line) for line in lines) <= 70


def test_heatmap_pgm_rows_wrap_greedily_at_70_characters():
    """Each row's pixels fill lines as textwrap fills them: as many as fit in 70."""
    m = np.random.default_rng(5).choice([0.0, 0.01, 0.2, 1.0], (9, 61))
    buf = io.BytesIO()
    export_heatmap(m, "pgm", buf)
    pixels = np.rint(255.0 * m / m.max()).astype(int)
    expected = [line for row in pixels for line in textwrap.wrap(" ".join(map(str, row)), 70)]
    assert buf.getvalue().decode().splitlines()[3:] == expected


def test_heatmap_validation():
    with pytest.raises(ValidationError):
        export_heatmap(np.zeros((2, 2)), "png", io.BytesIO())
    with pytest.raises(ValidationError):
        export_heatmap(np.array([[-0.1, 0.2]]), "csv", io.BytesIO())
    with pytest.raises(ValidationError):
        export_heatmap(np.zeros(4), "csv", io.BytesIO())
    # a matrix with no entries, refused before any byte is written
    for shape in ((0, 3), (3, 0)):
        for fmt in ("csv", "pgm"):
            buf = io.BytesIO()
            with pytest.raises(ValidationError, match="no entries") as err:
                export_heatmap(np.zeros(shape), fmt, buf)
            assert err.value.key == "matrix" and buf.getvalue() == b""


# Characters that str.splitlines breaks a line at, besides "\n" and "\r".
LINE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("sep", LINE_BREAKS)
def test_lines_split_at_lf_only(sep):
    """A header string may hold any of them raw; they neither end the line nor shift the
    line numbers after it.  JSON allows the control characters among them only escaped."""
    created = f"x{sep}y"
    header = HEADER.replace('"created":"x"', f'"created":"{created}"')
    plain = read_trace(write_lines(HEADER, EVENT))
    if sep >= " ":
        assert read_trace(write_lines(header, EVENT)) == plain
        assert trace_io._header(io.BytesIO(header.encode()), "meta")["created"] == created
        with pytest.raises(ValidationError, match="^line 2: event time -1.0 outside"):
            read_trace(write_lines(header, EVENT.replace('"t":1.0', '"t":-1.0')))
    else:
        with pytest.raises(TraceParseError, match="^line 1: invalid JSON: Invalid control"):
            read_trace(write_lines(header, EVENT))
        escaped = header.replace(sep, json.dumps(sep)[1:-1])
        assert read_trace(write_lines(escaped, EVENT)) == plain


def test_the_first_bad_line_wins_over_a_later_utf8_error():
    later = EVENT.replace('"t":1.0', '"t":2.0').encode().replace(b"80", b"\xff")
    src = io.BytesIO(f"{HEADER}\n{EVENT.replace('[[1,2,1]]', '[[1,2,1]')}\n".encode() + later)
    with pytest.raises(TraceParseError, match="^line 2: invalid JSON"):
        read_trace(src)


def test_a_utf8_error_names_its_line_and_the_position_in_it():
    later = EVENT.replace('"t":1.0', '"t":2.0').encode().replace(b"80", b"\xff")
    src = io.BytesIO(f"{HEADER}\n{EVENT}\n".encode() + later)
    with pytest.raises(TraceParseError, match="^line 3: not UTF-8: .* in position 19:"):
        read_trace(src)


@pytest.mark.parametrize(
    "old, new, line, needle",
    [
        ('"updates":', '"note":1,"updates":', 2, "event record has unknown key 'note'"),
        ("[[1,2,1]]}", '[[1,2,1]],"note":1}', 2, "event record has unknown key 'note'"),
        ('"theta_r":80.0,', "", 2, "event record lacks 'theta_r'"),
        ('"meta":', '"extra":1,"meta":', 1, "header has unknown key 'extra'"),
        ('"created":"x",', "", 1, "header lacks 'created'"),
        ('"created":"x"', '"created":5', 1, "created must be a string, got 5"),
        ('"created":"x"', '"created":null', 1, "created must be a string, got None"),
        ('"created":"x"', '"created":"x","kind":"workload_report"', 1,
         "header has unknown key 'kind'"),
    ],
)
def test_read_trace_envelopes_are_exact(old, new, line, needle):
    text = f"{HEADER}\n{EVENT}"
    assert text.count(old) == 1
    with pytest.raises(TraceParseError) as err:
        read_trace(write_lines(text.replace(old, new)))
    assert str(err.value) == f"line {line}: {needle}"


@pytest.mark.parametrize(
    "data, line, needle",
    [
        (REPORT_HEADER.replace(',"kind":"workload_report"', ""), 1, "header lacks 'kind'"),
        (REPORT_HEADER.replace('"workload_report"', '"trace"'), 1, "kind must be"),
        (REPORT_HEADER.replace('"x"', "5"), 1, "created must be a string"),
        (REPORT_HEADER.replace('"x",', '"x","extra":[],'), 1, "header has unknown key 'extra'"),
        (REPORT_BODY.replace("[]}", '[],"note":1}'), 2, "report body has unknown key 'note'"),
        (f"{REPORT_BODY}\ngarbage", 3, "a report has two lines"),
        (f"{REPORT_BODY}\n{REPORT_BODY}", 3, "a report has two lines"),
        (f"{REPORT_BODY}\n\n", 3, "a report has two lines"),  # a blank third line
        (None, 2, "report body missing"),
    ],
)
def test_read_report_envelopes_are_exact(data, line, needle):
    """``data`` is the report's header (line 1) or the text after it (line 2 on); the
    file ends in a newline or without one."""
    header, body = (data, REPORT_BODY) if line == 1 else (REPORT_HEADER, data)
    text = header if body is None else f"{header}\n{body}"
    for ending in ("\n", ""):
        with pytest.raises(TraceParseError) as err:
            read_report(io.BytesIO(f"{text}{ending}".encode()))
        assert err.value.line_number == line
        assert needle in str(err.value)
