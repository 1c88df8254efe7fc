"""Property tests of the input boundary (CLI overrides, trace files), of drift detection,
of the quantizer, the state matrix and the block coder, and of the CSV heat map."""

import io
import json
import math
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
import scalar_oracle
import trace_io_oracle
from coding_oracle import full_grid_state_matrix, nearest_state, phase_gradients
from coding_oracle import scalar_gradients
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_trace_io import HEADER

from steertrace import (
    Angles,
    Case,
    CaseParams,
    GatewayConfig,
    ReconfigEvent,
    SurfaceConfig,
    TraceMeta,
    TraceParseError,
    TrafficTrace,
    Trajectory,
    ValidationError,
    case_a_trajectory,
    case_b_trajectory,
    export_heatmap,
    read_report,
    read_trace,
    state_matrix,
    write_trace,
)
from steertrace import coding, gateway, geometry, metrics, trace_io
from steertrace.cli import main
from steertrace.coding import MAX_CELLS, MAX_PHASE_STEPS, MAX_STATES, TWO_PI, _nearest_state
from steertrace.coding import state_blocks
from steertrace.gateway import ANGLE_EPS_DEG, BAND, NORMAL_INCIDENCE, detect_events, diff_states
from steertrace.gateway import _far, _near_bounds, _next_near_crossing, _next_near_sample
from steertrace.gateway import checked_events, format_number, outside_surface
from steertrace.geometry import RAD_TO_DEG, SAMPLE_BLOCK, angle_stream, signed_circular_delta_deg
from steertrace.geometry import Point3D, angles_from_position, position_at
from steertrace.metrics import sweep_diff, sweep_grid
from steertrace.scenario import FIELDS
from steertrace.trace_io import _decode_updates

CONFIG_KEYS = [f"{section}.{key}" for section, key, _ in FIELDS] + ["outputs.trace"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

VALID_TRACE = (
    f"{HEADER}\n"
    '{"t":1.0,"theta_r":80.0,"phi_r":0.0,"updates":[[1,2,1],[3,4,0]]}\n'
    '{"t":2.5,"theta_r":75.0,"phi_r":10.0,"updates":[]}\n'
)


def read_or_reject(data: bytes):
    try:
        assert isinstance(read_trace(io.BytesIO(data)), TrafficTrace)
    except (TraceParseError, ValidationError):
        pass


@given(key=st.sampled_from(CONFIG_KEYS), raw=json_values.map(json.dumps) | st.text())
def test_any_override_value_exits_0_or_2(key, raw):
    # sweep parses the whole config like simulate does, but codes only two directions
    argv = ["sweep", "--from-theta", "30", "--to-theta", "0", f"{key}={raw}"]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2)


def _around(v):
    """``v`` and its neighbours: one less and one more for an integer, one ulp either way
    for a float."""
    if type(v) is int:
        return [v - 1, v, v + 1]
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


# A 2x2 surface and 5 samples.  The sample, leap and cell limits are cut to round values
# that the defaults still pass (81,650 samples, 2,500 cells), so that a value on either
# side of a limit makes a small run: sample_dt and leap_interval at 1 / SMALL_STEPS.  The
# duration is drawn too, sampled every quarter of it; null is the per-case default, sampled
# every 0.25 s (at most 327 samples).  Or sample_dt is left unset, so that a long duration
# meets the sample limit at the default period (at most SMALL_STEPS samples are run).
SMALL_STEPS, SMALL_CELLS = 10**5, 2500
SMALL = ["surface.n_cols=2", "surface.n_rows=2"]
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308] + [
    v for limit in (0, 1, 2, 90.0, 360.0, MAX_STATES, SMALL_CELLS // 2, 2**63, 1 / SMALL_STEPS)
    for v in _around(limit)
]
durations = st.just(1.0) | st.none() | st.floats(min_value=5e-324, max_value=1e308)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(Case),
    st.lists(st.tuples(st.sampled_from(CONFIG_KEYS[:-1]), st.sampled_from(EDGES)),
             min_size=1, max_size=2),
    durations,
    st.booleans(),
)
@example(Case.A, [("gateway.angular_step", 5e-324)], 1.0, True)  # a step count past float range
@example(Case.C, [("gateway.angular_step", 1e-310), ("gateway.sample_dt", 0.1)], 1.0, True)
@example(Case.B, [("scenario.speed", 1e308)], 1.0, True)  # a squared radius past float range
# grazing reflections, off a tiny standoff or far off axis on a set or the case's own flight
@example(Case.B, [("scenario.standoff_distance", 1e-300)], None, True)
@example(Case.A, [("scenario.speed", 1e17)], 2.0, True)
@example(Case.B, [("scenario.speed", 1e9)], None, True)
# positions past float range: case A's walk beyond the axis, case B's fall, and case B's
# own flight time
@example(Case.A, [("scenario.speed", 1e308), ("gateway.sample_dt", 1)], 2.0, True)
@example(Case.B, [("gateway.sample_dt", 1e195)], 1e200, True)
@example(Case.B, [("scenario.speed", 1e308)], None, True)
# a case's own duration of 0
@example(Case.A, [("scenario.start_theta", 5e-324)], None, True)
@example(Case.A, [("scenario.standoff_distance", 5e-324), ("scenario.speed", 1e308)], None, True)
@example(Case.B, [("scenario.launch_angle", 5e-324)], None, True)
# too many samples at the default period: over a set duration, or a case's own from its
# speed, its standoff or its start angle
@example(Case.A, [("gateway.angular_step", 90.0)], 200.0, False)
@example(Case.B, [("scenario.speed", 1250)], None, False)
@example(Case.A, [("scenario.standoff_distance", 360.0)], None, False)
@example(Case.A, [("scenario.start_theta", math.nextafter(90.0, 0.0))], None, False)
@example(Case.A, [("scenario.speed", 1 / SMALL_STEPS)], None, False)
def test_simulate_at_extreme_values_exits_0_or_2_naming_a_key(case, overrides, duration,
                                                              set_dt):
    dt = 0.25 if duration is None else duration / 4
    argv = ["simulate", "--out", os.devnull, f"scenario.case={case.value}", *SMALL,
            f"scenario.duration={json.dumps(duration)}",
            *([f"gateway.sample_dt={dt!r}"] if set_dt else []),
            *(f"{key}={value!r}" for key, value in overrides)]
    err = io.StringIO()
    with mock.patch.object(geometry, "MAX_STEPS", SMALL_STEPS), \
            mock.patch.object(gateway, "MAX_STEPS", SMALL_STEPS), \
            mock.patch.object(coding, "MAX_CELLS", SMALL_CELLS), \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        done = main(argv)
    assert done in (0, 2)
    # the keys that the run sets; a null duration asks for the case's own
    set_keys = [arg.partition("=")[0] for arg in argv[3:] if arg != "scenario.duration=null"]
    keys = "|".join(map(re.escape, set_keys))
    assert done == 0 or re.match(rf"error: ({keys})\b", err.getvalue()), err.getvalue()


@given(st.binary(max_size=200) | st.binary(max_size=200).map(lambda b: HEADER.encode() + b"\n" + b))
def test_read_trace_on_arbitrary_bytes_returns_or_rejects(data):
    read_or_reject(data)


def node_paths(obj, path=()):
    """Every node of a parsed JSON document, as a path of keys and indices."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from node_paths(v, (*path, k))


@given(data=st.data())
def test_read_trace_on_one_field_mutation_returns_or_rejects(data):
    docs = [json.loads(line) for line in VALID_TRACE.splitlines()]
    line, path = data.draw(
        st.sampled_from([(i, p) for i, doc in enumerate(docs) for p in node_paths(doc) if p])
    )
    parent = docs[line]
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = data.draw(json_values)
    read_or_reject("\n".join(json.dumps(doc) for doc in docs).encode())


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e3)
angle = st.floats(min_value=0.0, max_value=90.0, exclude_min=True, exclude_max=True)
incidence = st.floats(min_value=0.0, max_value=90.0, exclude_max=True)


# grid sides: small ones, and ones on each side of a col or row token's next digit
sides = st.integers(1, 5) | st.sampled_from([10, 11, 100, 101])


@st.composite
def traces(draw):
    surface = SurfaceConfig(
        draw(sides), draw(sides), draw(positive),
        draw(st.integers(2, 2**16)), draw(positive), draw(positive),
    )
    params = CaseParams(
        draw(positive), draw(positive), draw(angle), draw(angle), draw(positive),
        draw(st.integers(-(2**64), 2**64)),
    )
    meta = TraceMeta(
        surface,
        GatewayConfig(draw(positive), draw(st.floats(min_value=1.0, max_value=1e3))),
        Angles(draw(incidence), draw(finite)),
        Trajectory(draw(st.sampled_from(Case)), params, draw(positive)),
    )
    times = st.floats(0.0, meta.trajectory.duration)  # the reader's rule for event times
    cells = st.tuples(st.integers(0, surface.n_cols - 1), st.integers(0, surface.n_rows - 1))
    events = []
    for t in sorted(set(draw(st.lists(times, max_size=4)))):
        updates = tuple(
            (c, r, draw(st.integers(0, surface.n_states - 1)))
            for c, r in draw(st.lists(cells, unique=True))
        )
        events.append(ReconfigEvent(t, Angles(draw(finite), draw(finite)), updates))
    return TrafficTrace(meta, tuple(events))


@given(traces())
def test_generated_traces_round_trip_byte_exact(trace):
    first = io.BytesIO()
    write_trace(trace, first)
    again = read_trace(io.BytesIO(first.getvalue()))
    second = io.BytesIO()
    write_trace(again, second)
    assert second.getvalue() == first.getvalue()
    assert again == trace


SMALL_HEADER = HEADER.replace('"n_cols":50,"n_rows":50', '"n_cols":4,"n_rows":3').replace(
    '"n_states":4', '"n_states":2'
)


LIMITS = (4, 3, 2)  # col, row and state bounds of SMALL_HEADER


def oracle_rows(raw):
    """The per-update rules, one update at a time: the accepted rows, or None."""
    n_cols, n_rows, n_states = LIMITS
    rows, seen = [], set()
    for u in raw:
        if not (type(u) is list and len(u) == 3 and all(type(x) is int for x in u)):
            return None
        c, r, s = u
        if not (0 <= c < n_cols and 0 <= r < n_rows and 0 <= s < n_states) or (c, r) in seen:
            return None
        seen.add((c, r))
        rows.append(u)
    return rows


valid_update = st.tuples(*(st.integers(0, n - 1) for n in LIMITS)).map(list)
odd_values = [
    -1, 2**63 - 1, -(2**63),  # int64, out of range
    2**63, -(2**63) - 1, 2**70,  # beyond int64
    True, False, 1.0, 0.5, float("nan"), "1", None, [1],
]


@st.composite
def spoiled(draw, u: list, others: list):
    """``u`` with one fault: a bad value, a wrong length, not a list, or a repeated cell."""
    kind = draw(st.sampled_from(["value", "value", "value", "length", "other", "repeat"]))
    if kind == "value":
        p = draw(st.integers(0, 2))
        return u[:p] + [draw(st.sampled_from([LIMITS[p], *odd_values]))] + u[p + 1:]
    if kind == "length":
        return draw(st.sampled_from([u[:0], u[:1], u[:2], u + [0]]))
    if kind == "repeat" and others:
        return draw(st.sampled_from(others))[:2] + [u[2]]
    return draw(st.sampled_from(["abc", 5, None, {}, True]))


@st.composite
def update_lists(draw):
    """Valid update lists on the 4x3 surface, half of them with one update spoiled."""
    raw = draw(st.lists(valid_update, max_size=6, unique_by=lambda u: (u[0], u[1])))
    if raw and draw(st.booleans()):
        k = draw(st.integers(0, len(raw) - 1))
        raw[k] = draw(spoiled(raw[k], raw[:k] + raw[k + 1:]))
    return raw


@settings(max_examples=500)
@given(update_lists(), st.sampled_from([(",", ":"), (", ", ": ")]))
def test_read_trace_accepts_exactly_the_update_lists_the_scalar_rules_accept(raw, separators):
    # the writer's compact spelling reaches the numpy decoder, the spaced one json
    event = {"t": 1.0, "theta_r": 80.0, "phi_r": 0.0, "updates": raw}
    line = json.dumps(event, separators=separators)
    expected = oracle_rows(raw)
    try:
        updates = read_trace(io.BytesIO(f"{SMALL_HEADER}\n{line}\n".encode())).events[0].updates
    except (TraceParseError, ValidationError):
        assert expected is None
    else:
        assert expected is not None
        assert updates.dtype == np.int64 and updates.shape == (len(expected), 3)
        assert updates.tolist() == expected


def hand_trace(n_cols, n_rows, n_states, *events, times=None) -> TrafficTrace:
    """A trace of duration 10 on an ``n_cols`` x ``n_rows`` surface of ``n_states``
    states, one event (at ``times``, else at t = 1, 2, ...) per list of
    ``[col, row, state]`` rows."""
    meta = TraceMeta(
        SurfaceConfig(n_cols, n_rows, n_states=n_states), GatewayConfig(), Angles(0.0, 0.0),
        Trajectory(Case.A, CaseParams(), 10.0),
    )
    times = times or [1.0 + k for k in range(len(events))]
    return TrafficTrace(meta, tuple(
        ReconfigEvent(t, Angles(10.0, 0.0), np.array(rows, np.int64).reshape(-1, 3))
        for t, rows in zip(times, events)
    ))


@st.composite
def hand_traces(draw, spill=0):
    """A hand-built trace on a 1xN, Nx1 or rectangular surface with at most one update a
    cell, each value within the surface or, given a ``spill``, up to ``spill`` past
    either end of it or at an int64 extreme, and then its event times too may lie
    outside [0, 10] or fail to increase."""
    n = draw(st.integers(1, MAX_CELLS))
    m = draw(st.integers(1, MAX_CELLS // n))
    n_cols, n_rows = draw(st.sampled_from([(1, n), (n, 1), (n, m), (m, n)]))
    n_states = draw(st.integers(2, MAX_STATES) | st.sampled_from([2, 10, 11, MAX_STATES]))

    def values(n):
        inside = st.integers(0, n - 1) | st.sampled_from([0, n - 1])
        if not spill:
            return inside
        return inside | st.integers(-spill, n - 1 + spill) | st.sampled_from([-(2**63), 2**63 - 1])

    row = st.tuples(values(n_cols), values(n_rows), values(n_states))
    events = draw(st.lists(st.lists(row, max_size=5, unique_by=lambda u: u[:2]), max_size=4))
    times = None
    if spill and draw(st.booleans()):
        t = st.sampled_from([-1.0, -0.0, 0.0, 2.0, 2.0, 10.0, 10.5]) | st.floats(-1.0, 11.0)
        times = draw(st.lists(t, min_size=len(events), max_size=len(events)))
    return hand_trace(n_cols, n_rows, n_states, *events, times=times)


@settings(max_examples=150)
@given(hand_traces())
@example(hand_trace(1, 1, 2, [[0, 0, 0]], [], [[0, 0, 1]]))
@example(hand_trace(10, 11, 10, [[0, 0, 9], [9, 0, 0], [0, 10, 0], [9, 10, 9]]))
@example(hand_trace(3, 2, 11, [[0, 0, 10], [2, 1, 9], [1, 0, 0]]))
@example(hand_trace(2, 2, MAX_STATES, [[0, 0, 65535], [1, 0, 0]], [[0, 1, 9999], [1, 1, 10000]]))
@example(hand_trace(MAX_CELLS, 1, 2, [[0, 0, 1], [99999, 0, 0], [100000, 0, 1], [999999, 0, 0]]))
@example(hand_trace(1, MAX_CELLS, 4, [[0, 0, 3], [0, 999999, 0]]))
@example(hand_trace(4, 3, 4))
@example(hand_trace(4, 3, 4, [], []))
def test_writer_codes_updates_as_json_dumps(trace):
    buf = io.BytesIO()
    write_trace(trace, buf)
    lines = buf.getvalue().split(b"\n")
    assert len(lines) == len(trace.events) + 2 and lines[-1] == b""
    for line, ev in zip(lines[1:], trace.events):
        head = {"t": ev.t, "theta_r": ev.reflected.theta, "phi_r": ev.reflected.phi}
        head = json.dumps(head, separators=(",", ":"))[:-1]
        updates = json.dumps(ev.updates.tolist(), separators=(",", ":"))
        assert line == f'{head},"updates":{updates}}}'.encode()


@settings(max_examples=300)
@given(hand_traces(spill=2))
@example(hand_trace(4, 3, 2, [[0, 0, 1]], [[3, 2, 1], [-1, 0, 0], [4, 0, 0]]))
@example(hand_trace(4, 3, 2, [[0, 0, -(2**63)]]))
@example(hand_trace(4, 3, 2, [[0, 0, 1]], [], times=[0.0, 10.5]))
@example(hand_trace(4, 3, 2, [], times=[-0.5]))
@example(hand_trace(4, 3, 2, [[0, 0, 1]], [[1, 0, 1]], times=[2.0, 2.0]))
@example(hand_trace(4, 3, 2, [], [[1, 0, 1]], [], times=[0.0, 3.0, 2.5]))
@example(hand_trace(4, 3, 2, [[9, 0, 1]], times=[11.0]))
def test_writer_refuses_exactly_the_updates_the_reader_refuses(trace):
    """The writer raises on the event whose line the reader would refuse, for its time or
    its updates, with the reader's words and before writing a byte of that line; any
    other trace round-trips."""
    file = reference_bytes(trace)
    expected = outcome(read_trace, file)
    buf = io.BytesIO()
    try:
        write_trace(trace, buf)
    except ValidationError as exc:
        assert isinstance(expected, ValidationError), exc
        written = buf.getvalue()
        assert file.startswith(written) and written.count(b"\n") == error_line(expected) - 1
        assert str(exc).split(": ", 1)[1] == str(expected).split(": ", 1)[1]
        assert (exc.key == "t") == (expected.key == "t") == ("time" in str(expected))
        assert exc.key != "t" or str(exc) == str(expected)  # the line number too
    else:
        assert expected == trace
        assert buf.getvalue() == file


def canonical(rows) -> str:
    return json.dumps(rows, separators=(",", ":"))


small_rows = st.lists(
    st.lists(st.integers(0, 120) | st.integers(0, 10**18 - 1), min_size=3, max_size=3), max_size=4
)
# Spellings json may or may not accept, each one the writer never makes.
faults = [
    " ", "\n", "0", "00", "-", "-0", ".0", "e1", "true", "null", ",", "[", "]", "[]", "]]", "x",
    "1234567890123456789", "9223372036854775808", "99999999999999999999", "\u00e9",
]
odd_texts = [
    "[[]]", "[[1,2],[3,4,5,6]]", "[[1,2,3],]", "[[1,2,3]],", "[[1,2,3]] ", "[[1,2,3]]]",
    "[[1,2,3][4,5,6]]", "[[1,2,3],[4,5]]", "[1,2,3]", "[[01,2,3]]", "[[-0,2,3]]",
    "[[1.0,2,3]]", "[[true,2,3]]", "[[1,2,3,4]]", "[ ]", "[[1,2,3]][[4,5,6]]", "", "]", "[",
    # each aimed at one of the decoder's checks
    "[[1,2,3],[4,5,6]", "[[1,,3]]", "[[,1,2,3]]", "[[[1,2,3]]]", "[[1,2,3]],[[4,5,6]]",
    "[[0,0,0],[01,2,3]]", "[[1,2,3]", "[[1,2,3],,[4,5,6]]", "[[1,2,3],[[4,5,6]]",
    "[[1,2,3]],[4,5,6]]", "[[1,2,3],[ 4,5,6]]", "[[1,2,3]x,[4,5,6]]", "[[1,2],3]]",
]


@st.composite
def update_texts(draw):
    """An ``updates`` text in the writer's spelling, half of them with one fault spliced in."""
    text = canonical(draw(small_rows))
    kind = draw(st.sampled_from(["canonical", "insert", "replace", "fixed"]))
    if kind == "insert":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(faults)) + text[at:]
    if kind == "replace":
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + draw(st.sampled_from(faults)) + text[at + 1:]
    if kind == "fixed":
        return draw(st.sampled_from(odd_texts))
    return text


def json_rows(text: str):
    """``json``'s list for an ``updates`` text, or None where it is not a JSON array."""
    try:
        rows = json.loads(text)
    except ValueError:
        return None
    return rows if type(rows) is list else None


def writers_spelling(text: str) -> bool:
    """Rows of three ints in [0, 10**18), spelled as the writer spells them."""
    rows = json_rows(text)
    return (
        rows is not None
        and all(type(r) is list and len(r) == 3 for r in rows)
        and all(type(x) is int and 0 <= x < 10**18 for r in rows for x in r)
        and text == canonical(rows)
    )


@settings(max_examples=400)
@given(st.lists(update_texts(), max_size=4))
@example(odd_texts)
@example(["[[1,2,3]", "][]"])  # a row cut short, and stray brackets: neither is JSON
@example(["[[1,2,3],[4,5", ",6]]"])
@example(["[[1,2,3]]", ""])
@example(["0[]", "[]0", "7[[1,2,3]]", "[[1,2,3]]7"])  # a digit outside the brackets
def test_decoder_declines_or_gives_jsons_rows(texts):
    for text in texts:
        decoded = _decode_updates(text.encode())  # the decoder reads a line's bytes
        if writers_spelling(text):
            assert decoded is not None, text
        if decoded is not None:
            assert decoded.dtype == np.int64 and decoded.shape == (len(decoded), 3)
            assert decoded.tolist() == json_rows(text), text


def writers_body(rows: np.ndarray, surface: SurfaceConfig) -> bytes:
    """The ``updates`` body of the line that ``write_events`` writes for ``rows``."""
    trajectory = Trajectory(Case.A, CaseParams(), 1.0)
    meta = TraceMeta(surface, GatewayConfig(), NORMAL_INCIDENCE, trajectory)
    buf = io.BytesIO()
    trace_io.write_events(meta, [ReconfigEvent(0.0, Angles(80.0, 0.0), rows)], buf)
    return bytes(trace_io._split_event(buf.getvalue().splitlines(keepends=True)[1])[1])


def test_decoder_gives_jsons_rows_for_large_bodies():
    """Bodies far longer than the few rows drawn above: a full 100x100 burst as the
    writer codes it, and 10,000 rows with 18 digits in every value."""
    cells = np.arange(10_000)
    burst = np.column_stack([cells % 100, cells // 100, cells * 7 % 4])
    body = writers_body(burst, SurfaceConfig(n_cols=100, n_rows=100))
    assert _decode_updates(body).tolist() == json.loads(body) == burst.tolist()
    wide = np.random.default_rng(19).integers(10**17, 10**18, (10_000, 3))
    assert _decode_updates(canonical(wide.tolist()).encode()).tolist() == wide.tolist()


@pytest.mark.parametrize("fault", faults)
def test_decoder_declines_a_fault_in_a_large_body(fault):
    """Each fault, spliced into the first, a middle and the last of 10,000 rows of
    18-digit values, before a row's first and second values and before its "]": there a
    digit makes a value of 19 digits, and any other fault leaves the writer's spelling."""
    wide = np.random.default_rng(19).integers(10**17, 10**18, (10_000, 3))
    rows = [canonical(row).encode() for row in wide.tolist()]
    for k in (0, 5_000, 9_999):
        row = rows[k]
        for at in (1, row.index(b",") + 1, len(row) - 1):
            spliced = rows[:k] + [row[:at] + fault.encode() + row[at:]] + rows[k + 1:]
            assert _decode_updates(b"[" + b",".join(spliced) + b"]") is None, (k, at)


def digit_boundary_trace(n: int) -> TrafficTrace:
    """A trace on an n x n surface of 2**16 states with one event whose cols, rows and
    states sit on each side of their tokens' digit boundaries, up to n - 1."""
    surface = SurfaceConfig(n_cols=n, n_rows=n, n_states=2**16)
    meta = TraceMeta(surface, GatewayConfig(), Angles(0.0, 0.0), case_a_trajectory())
    values = [v for v in (0, 1, 9, 10, 11, 99, 100, n - 1) if v < n]
    cells = sorted({(r, c) for r in values for c in values})
    states = [0, 9, 10, 99, 100, 999, 1000, 9999, 10_000, 65_535]
    updates = [(c, r, states[k % len(states)]) for k, (r, c) in enumerate(cells)]
    return TrafficTrace(meta, (ReconfigEvent(1.0, Angles(5.0, 0.0), updates),))


@settings(max_examples=200)
@given(traces())
@example(digit_boundary_trace(10))
@example(digit_boundary_trace(11))
@example(digit_boundary_trace(100))
@example(digit_boundary_trace(101))
def test_traces_are_written_in_json_dumps_spelling_and_read_back(trace):
    first = io.BytesIO()
    write_trace(trace, first)
    assert first.getvalue() == reference_bytes(trace)
    assert read_trace(io.BytesIO(first.getvalue())) == trace


def reference_bytes(trace) -> bytes:
    """A trace file as one ``json.dumps`` per line writes it."""
    buf = io.BytesIO()
    trace_io._start(buf, None, meta=trace_io.meta_to_dict(trace.meta))
    for ev in trace.events:
        line = {"t": ev.t, "theta_r": ev.reflected.theta, "phi_r": ev.reflected.phi}
        line["updates"] = ev.updates.tolist()
        buf.write(json.dumps(line, separators=(",", ":")).encode() + b"\n")
    return buf.getvalue()


VALID_REPORT = (
    '{"format_version":1,"created":"x","kind":"workload_report"}\n'
    '{"total_packets":2,"spatial_cv":1.2,"per_event_changed_fraction":[0.0008,0.0],'
    '"burst_sizes":[2,0],"inter_event_times":[1.5]}\n'
)


@settings(max_examples=200)
@given(
    st.sampled_from([(read_trace, VALID_TRACE, k) for k in range(3)]
                    + [(read_report, VALID_REPORT, k) for k in range(2)]),
    st.text(max_size=6), json_values, st.booleans(), st.sampled_from([(",", ":"), None]),
)
def test_adding_any_key_to_a_valid_line_is_an_error_on_that_line(
    drawn, key, value, first, separators
):
    read, text, k = drawn
    lines = text.splitlines()
    read(io.BytesIO(text.encode()))  # valid as it stands
    obj = json.loads(lines[k])
    assume(key not in obj)
    obj = {key: value, **obj} if first else {**obj, key: value}
    lines[k] = json.dumps(obj, separators=separators)
    try:
        read(io.BytesIO("\n".join(lines).encode() + b"\n"))
    except TraceParseError as exc:
        assert exc.line_number == k + 1
    else:
        raise AssertionError("an added key was accepted")


# Bytes spliced into a line.  The characters besides "\n" that str.splitlines
# also breaks at are left out: there the two readers differ by design (see
# test_lines_split_at_lf_only in test_trace_io.py).
SPLICES = [
    b"", b" ", b"\n", b"0", b"-", b".5", b"1e400", b"[", b"]", b"[]", b"{", b"}", b",", b":",
    b'"', b"x", b"\\", b"\x00", b"\xff", b"\xc3", "\u00e9".encode(), b'"k":1,', b',"updates":',
]


@st.composite
def one_fault_files(draw):
    """A written trace with one fault: bytes spliced into a line, bytes that are not
    UTF-8, a value replaced, a repeated or off-surface cell, a line dropped, repeated
    or swapped with the next, or the file cut short; or a line respelled with spaces,
    which is no fault."""
    buf = io.BytesIO()
    write_trace(draw(traces()), buf)
    lines = buf.getvalue().split(b"\n")[:-1]
    k = len(lines) - 1 - draw(st.integers(0, len(lines) - 1))  # the last line first
    kind = draw(st.sampled_from(
        ["splice", "splice", "value", "cell", "cell", "utf8", "spaces", "drop", "repeat", "swap"]
    ))
    if kind == "splice":
        at = draw(st.integers(0, len(lines[k])))
        cut = at + draw(st.integers(0, 2))
        lines[k] = lines[k][:at] + draw(st.sampled_from(SPLICES)) + lines[k][cut:]
    elif kind == "utf8":
        at = draw(st.integers(0, len(lines[k])))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        lines[k] = lines[k][:at] + bad + lines[k][at:]
    elif kind == "value":
        doc = json.loads(lines[k])
        path = draw(st.sampled_from([p for p in node_paths(doc) if p]))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = draw(json_values)
        lines[k] = json.dumps(doc, separators=(",", ":")).encode()
    elif kind == "cell" and (bursts := [j for j, ln in enumerate(lines) if b"[[" in ln]):
        k = draw(st.sampled_from(bursts))
        doc = json.loads(lines[k])
        i = draw(st.integers(0, len(doc["updates"]) - 1))
        if draw(st.booleans()):
            doc["updates"].insert(draw(st.integers(0, i + 1)), [*doc["updates"][i][:2], 0])
        else:
            off = draw(st.sampled_from([-1, 5, 2**16, 2**63]))  # 5 is off every drawn grid
            doc["updates"][i][draw(st.integers(0, 2))] = off
        lines[k] = json.dumps(doc, separators=(",", ":")).encode()
    elif kind == "spaces":
        lines[k] = json.dumps(json.loads(lines[k])).encode()
    elif kind == "drop":
        del lines[k]
    elif kind == "repeat":
        lines.insert(k, lines[k])
    elif k + 1 < len(lines):
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    data = b"\n".join(lines) + b"\n"
    return data[: draw(st.integers(0, len(data)))] if draw(st.integers(0, 9)) == 9 else data


def outcome(read, data: bytes):
    try:
        return read(io.BytesIO(data))
    except (TraceParseError, ValidationError) as exc:
        return exc


def error_line(exc: Exception) -> int:
    """The line an error names; a format_version error, which names none, is line 1's."""
    if isinstance(exc, TraceParseError):
        return exc.line_number
    named = re.match(r"line (\d+):", str(exc))
    return int(named[1]) if named else 1


def envelope_break(data: bytes) -> int | None:
    """The first line that is a JSON object, but not of the keys its line must have:
    the header's with a string ``created``, or an event's."""
    for number, line in enumerate(data.split(b"\n"), start=1):
        try:
            obj = json.loads(line.decode())
        except ValueError:
            continue
        if number == 1:
            if not (isinstance(obj, dict) and obj.keys() == {"format_version", "created", "meta"}
                    and type(obj["created"]) is str):
                return number
        elif isinstance(obj, dict) and obj.keys() != {"t", "theta_r", "phi_r", "updates"}:
            return number
    return None


def without_position(message: str) -> str:
    """A "not UTF-8" message without the byte position, which the whole-file reader
    counted from the start of the file and the streaming reader from the start of the line."""
    return re.sub(r"in position \d+(-\d+)?", "in position _", message)


@settings(max_examples=300)
@given(one_fault_files())
@example(f'{HEADER}\n{{"t":1.0,"theta_r":"8\n'.encode())  # a string cut short by the LF
@example(f'{HEADER}\n{{"t":1'.encode() + b"\xc3\n")  # a sequence cut short by the LF
def test_the_streaming_reader_agrees_with_the_whole_file_reader(data):
    """Same events, or the same first error, as the reader that decoded the whole file;
    a line that breaks the exact envelopes, which that reader did not check, is an error
    on that line unless the other reader stopped at an earlier one."""
    want = outcome(trace_io_oracle.read_trace, data)
    got = outcome(read_trace, data)
    broken = envelope_break(data)
    if broken is not None and not (isinstance(want, Exception) and error_line(want) < broken):
        assert isinstance(got, Exception) and error_line(got) == broken
    elif isinstance(want, Exception):
        assert type(got) is type(want)
        assert without_position(str(got)) == without_position(str(want))
    else:
        assert got == want


@st.composite
def sampled_scenarios(draw):
    """A trajectory of any case, a sampling period and an angular step.

    Steps include round values (a start angle on a step multiple puts
    samples exactly on thresholds) and steps below one degree, at which
    neighbouring samples can both fire.
    """
    case = draw(st.sampled_from(list(Case)))
    params = CaseParams(
        standoff_distance=draw(st.floats(0.5, 50.0)),
        speed=draw(st.floats(0.1, 60.0)),
        start_theta=draw(st.sampled_from([85.0, 60.0, 45.0]) | st.floats(1.0, 89.0)),
        launch_angle=draw(st.floats(1.0, 89.0)),
        leap_interval=draw(st.floats(0.01, 3.0)),
        rng_seed=draw(st.integers(0, 2**32)),
    )
    if case is Case.A and draw(st.booleans()):
        trajectory = case_a_trajectory(params)  # ends on the axis, where phi jumps 180 -> 0
    else:
        trajectory = Trajectory(case, params, draw(st.floats(0.05, 10.0)))
    dt = draw(st.floats(trajectory.duration / 2000, trajectory.duration))
    step = draw(st.sampled_from([0.1, 0.5, 1.0, 2.5, 5.0]) | st.floats(0.01, 10.0))
    return trajectory, dt, step


WALK = case_a_trajectory()  # 81.6 s to the on-axis point


@settings(max_examples=300)
@given(sampled_scenarios())
@example((WALK, WALK.duration / 150, 1e-12))  # a step that fires at every sample
@example((Trajectory(Case.A, CaseParams(), 2 * WALK.duration), 1.0, 5.0))  # phi 0 -> 180
@example((Trajectory(Case.A, CaseParams(), 10.05), 0.1, 0.5))  # an appended endpoint
def test_detect_events_picks_exactly_what_the_scalar_scan_picks(scenario):
    trajectory, dt, step = scenario
    stream = angle_stream(trajectory, dt)
    scalar = scalar_oracle.angle_stream(trajectory, dt)
    scalar_oracle.check_runs(stream, scalar)  # the whole scalar stream in order, once
    expected = scalar_oracle.detect_events(scalar, step)
    assert detect_events(stream, step) == expected
    explicit = scalar_oracle.PairStream(scalar)  # explicit pairs are taken as exact
    assert detect_events(explicit, step) == expected


@st.composite
def motions(draw):
    """A case-A or case-B stream of at most 1,001 samples, and whether it is a slow walk:
    a walk that ends on the axis, one that passes it, or one so slow that ``arrival - t``
    takes at most two values, so that neighbouring x are equal; or a flight cut short,
    landing or past its landing."""
    kind = draw(st.sampled_from(["axis", "past", "slow", "flight"]))
    if kind == "flight":
        params = CaseParams(
            standoff_distance=draw(st.floats(0.5, 50.0)),
            speed=draw(st.floats(0.1, 300.0)),
            launch_angle=draw(st.floats(1.0, 89.0)),
        )
        landing = case_b_trajectory(params).duration
        trajectory = case_b_trajectory(params, landing * draw(st.floats(0.01, 2.0)))
    else:
        params = CaseParams(
            standoff_distance=draw(st.floats(0.5, 50.0)),
            speed=draw(st.floats(1e-250, 60.0)),
            start_theta=draw(st.floats(1.0, 89.0)),
        )
        arrival = case_a_trajectory(params).duration
        # a time under 2**-54 arrivals is at most half the spacing of floats near arrival
        scale = {"axis": st.just(1.0), "past": st.floats(1.0, 3.0),
                 "slow": st.floats(2**-56, 2**-54)}
        trajectory = Trajectory(Case.A, params, arrival * draw(scale[kind]))
    dt = draw(st.floats(trajectory.duration / 1000, trajectory.duration))
    return angle_stream(trajectory, dt), kind == "slow"


@settings(max_examples=200)
@given(motions())
def test_motion_has_the_seed_formulas_bits_on_arrays_and_a_walks_x_never_increases(drawn):
    # one motion gives the blocks' positions from an array of times, and each sample's
    # from its time alone: the same bits either way, endpoint included, and the seed
    # formulas', as position_at's are; along a walk, x never increases, the order that
    # lets the case-A search gallop and bisect
    stream, slow = drawn
    trajectory, n = stream.trajectory, len(stream)
    times = [stream.time(s) for s in range(n)]
    assert times == [stream.exact(s)[0] for s in range(n)]
    assert times[-1] == trajectory.duration
    array = geometry._sample_times(trajectory, stream.dt, stream.last, np.arange(n))
    assert same_bits(array, times)
    seed = [scalar_oracle.position(trajectory, t) for t in times]
    seed_x, seed_y = [p.x for p in seed], [p.y for p in seed]
    x, y = stream.motion(array)
    assert same_bits(x, seed_x) and same_bits(np.broadcast_to(y, n), seed_y)
    assert same_bits([stream.motion(t)[0] for t in times], seed_x)
    assert same_bits([stream.motion(t)[1] for t in times], seed_y)
    at = [position_at(trajectory, t) for t in times]
    assert same_bits([p.x for p in at], seed_x) and same_bits([p.y for p in at], seed_y)
    if trajectory.case_id is Case.A:
        assert all(b <= a for a, b in zip(seed_x, seed_x[1:]))
        if slow and n > 2:
            assert len(set(seed_x)) < n


@st.composite
def walk_searches(draw):
    """A sequence that never increases, with runs of equal values, a start index and
    bounds (lo, hi) drawn from its values, their neighbouring floats, or anywhere."""
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]) | st.floats(-1e6, 1e6)
    xs = sorted(draw(st.lists(values, min_size=1, max_size=40)), reverse=True)
    near_a_value = st.sampled_from(xs).flatmap(lambda v: st.sampled_from(_around(v)))
    bound = near_a_value | st.floats(allow_nan=False)  # _near_bounds gives no NaN
    return xs, draw(st.integers(0, len(xs))), draw(bound), draw(bound)


@settings(max_examples=500)
@given(walk_searches())
@example(([3.0, 2.0, 2.0, 2.0, 1.0], 0, 2.0, 4.0))  # lo on a run: its first sample
@example(([3.0, 2.0, 2.0, 1.0], 1, 1.5, 2.0))  # hi on the sample at hand
@example(([5.0, 4.0, 3.0, 2.0, 1.0, 0.0], 0, -1.0, 9.0))  # none near: the length
def test_the_walk_search_finds_the_first_sample_a_scan_finds(search):
    xs, i, lo, hi = search
    want = next((j for j in range(i, len(xs)) if xs[j] >= hi or xs[j] <= lo), len(xs))
    assert _next_near_sample(lambda k: lo < xs[k] < hi, len(xs), i) == want


def _turns(params: CaseParams) -> list[float]:
    """The times at which a case-B flight's squared radius peaks and troughs, if it does."""
    s = math.sin(math.radians(params.launch_angle))
    root = math.sqrt(max(9 * s * s - 8, 0.0))
    return [params.speed * (3 * s + sign * root) / (2 * geometry.GRAVITY) for sign in (-1, 1)]


@st.composite
def flights(draw):
    """A case-B flight of at most 2,000 samples and a step.  The launch is shallow, steep
    (past tan**2 = 8, about 70.53 deg) or so steep that positions wobble past 1e-10 of
    their radius, about 89.9994 deg, and the search widens its band.  The
    flight is cut short, lands, or runs past its landing; samples fall on a regular grid,
    one with a sample on a turn of the squared radius, or at a tiny period."""
    launch = draw(st.floats(1.0, 70.5) | st.floats(70.53, 89.9)
                  | st.sampled_from([70.528779, 70.5287794, 70.53, 89.9994, 89.99999]))
    params = CaseParams(standoff_distance=draw(st.floats(0.5, 50.0)),
                        speed=draw(st.floats(0.1, 300.0)), launch_angle=launch)
    landing = case_b_trajectory(params).duration
    trajectory = case_b_trajectory(params, landing * draw(st.floats(1e-6, 3.0)))
    duration, samples = trajectory.duration, draw(st.integers(1, 1000))
    kind = draw(st.sampled_from(["grid", "turn", "tiny"]))
    if kind == "turn":  # a sample on a turn, or an ulp off it
        turn = draw(st.sampled_from(_turns(params)))
        samples = max(1, min(samples, int(1000 * turn / duration)))  # 2,000 samples at most
        dt = _ulp_neighbours(turn / samples, draw(st.integers(-1, 1)))
    elif kind == "tiny":
        trajectory = case_b_trajectory(params, duration * 1e-6)
        dt = trajectory.duration / samples
    else:
        dt = duration / (samples + draw(st.sampled_from([0.0, 0.5, 1e-3])))
    step = draw(st.sampled_from([5.0, 1.0, 0.1, 0.01, 1e-12]) | st.floats(1e-3, 20.0))
    return trajectory, dt, step


def _wobble(v: np.ndarray) -> float:
    """How far ``v`` falls back from its running extreme, the less of its two ways."""
    if len(v) < 2:
        return 0.0
    rise = (np.maximum.accumulate(v) - v).max()
    return min(rise, (v - np.minimum.accumulate(v)).max())


@settings(max_examples=300, deadline=None)
@given(flights())
@example((case_b_trajectory(), 1e-3, 5.0))
@example((case_b_trajectory(CaseParams(speed=30.0, launch_angle=80.0)), 1e-3, 0.5))
# a turn of r*r on a sample, and a step that fires at every sample
@example((case_b_trajectory(CaseParams(speed=30.0, launch_angle=80.0)),
          _turns(CaseParams(speed=30.0, launch_angle=80.0))[0] / 100, 1e-12))
# positions among the floats that lose bits, each sample a piece of its own
@example((case_b_trajectory(CaseParams(standoff_distance=1e-310, speed=1e-155)), 1e-158, 1.0))
def test_the_flight_search_picks_what_a_scan_of_every_sample_picks(scenario):
    # the search reads a few positions a pick and passes over the rest; along each
    # piece the squared radius and phi wobble by no more than the stream says, and the
    # picks are the scalar scan's, and the library's own scan's, with every sample a piece
    trajectory, dt, step = scenario
    stream = angle_stream(trajectory, dt)
    _, x, y = scalar_oracle.positions(stream)
    r2, phi = x * x + y * y, np.arctan2(y, x)
    ends = list(stream.pieces())
    assert ends[-1] == len(stream) and ends == sorted(ends)
    for start, end in zip([0, *ends], ends):
        piece = slice(start + 1, end)  # the first sample of a piece is an entry
        # and x*x + y*y and arctan2 round within a few ulps of their own
        assert _wobble(r2[piece]) <= (4 * stream.wobble + 2**-50) * r2[piece].max(initial=0.0)
        assert _wobble(phi[piece]) <= 2 * stream.wobble + 2**-50
    want = scalar_oracle.detect_events(scalar_oracle.angle_stream(trajectory, dt), step)
    assert detect_events(stream, step) == want
    with mock.patch.object(geometry.AngleStream, "pieces", lambda self: range(1, len(self) + 1)):
        assert detect_events(stream, step) == want


@st.composite
def leap_grids(draw):
    """A case-C trajectory of up to 24 leaps and a sampling period: leaps outnumbering
    samples or samples outnumbering leaps, leap times on the sample grid or an ulp off."""
    dt = draw(st.sampled_from([1e-3, 0.1, 0.3]) | st.floats(1e-3, 1.0))
    m = draw(st.integers(1, 4))
    interval = dt * m if draw(st.booleans()) else dt / m
    interval = _ulp_neighbours(interval, draw(st.integers(-1, 1)))
    params = CaseParams(
        start_theta=draw(st.floats(0.5, 89.5)),
        leap_interval=interval,
        rng_seed=draw(st.integers(-(2**80), 2**80)
                      | st.sampled_from([-1, 0, 2**32 - 1, 2**32, 2**64, 2**70])),
    )
    duration = interval * draw(st.integers(1, 24) | st.floats(0.5, 24.0))
    return Trajectory(Case.C, params, duration), dt


@settings(max_examples=150)
@given(leap_grids())
def test_case_c_blocks_settle_the_runs_of_a_few_leaps_each(scenario):
    # with 1, 2 or 3 leaps a block, the blocks' runs are the scalar samples' leap runs,
    # at the bits of the scalar schedule's draws, and give the scalar scan's picks
    trajectory, dt = scenario
    scalar = scalar_oracle.angle_stream(trajectory, dt)
    times = [t for t, _ in scalar]
    runs = scalar_oracle.leap_runs(trajectory, times)
    n_leaps = scalar_oracle.n_leaps(trajectory)
    schedule = scalar_oracle.leap_schedule(trajectory.params, n_leaps)
    interval = trajectory.params.leap_interval
    want = np.array([schedule[min(int(times[k] / interval), n_leaps)] for k in runs[:-1]])
    picks = {step: scalar_oracle.detect_events(scalar, step) for step in (5.0, 1e-12)}
    for size in (1, 2, 3):
        with mock.patch.object(geometry, "SAMPLE_BLOCK", size):
            stream = angle_stream(trajectory, dt)
            entries = scalar_oracle.entries(stream)  # each block's runs end the next's
            assert [head for head, _, _ in entries] + [entries[-1][1]] == runs
            leaps = np.array([leap for _, _, leap in entries])
            assert np.array_equal(leaps.view(np.int64), want.view(np.int64))
            t = scalar_oracle.positions(stream)[0]
            assert (t[1:] > t[:-1]).all()
            assert all(len(block[1]) <= size for block in stream.blocks())
            for step, want_picks in picks.items():
                assert detect_events(stream, step) == want_picks


@st.composite
def drifts(draw):
    """A standoff, a step, references and up to 16 positions, y 0.0 (None) or an array.

    Positions mostly lie a step, or a step less ``ANGLE_EPS_DEG``, either side of the
    theta reference, give or take a few ulps of the radius, and so either side of the
    phi reference, so that drifts land on and next to the thresholds."""
    standoff = draw(st.floats(0.5, 50.0))
    step = draw(st.sampled_from([1e-12, ANGLE_EPS_DEG + BAND, 90.0, 100.0, 180.0, 200.0, math.inf])
                | st.floats(1e-12, 400.0))
    theta_ref = draw(st.floats(-ANGLE_EPS_DEG, 90.0 + ANGLE_EPS_DEG))
    phi_ref = draw(st.sampled_from([0.0, 180.0, 360.0]) | st.floats(0.0, 360.0))
    on_x_axis = draw(st.booleans())
    xs, ys = [], []
    for _ in range(draw(st.integers(1, 16))):
        turn = min(step, 360.0) - draw(st.sampled_from([0.0, ANGLE_EPS_DEG]))
        theta = draw(st.sampled_from([theta_ref - turn, theta_ref + turn]) | st.floats(0.0, 90.0))
        radius = standoff * math.tan(math.radians(min(max(theta, 0.0), 90.0)))
        radius = float(_ulp_neighbours(radius, draw(st.integers(-4, 4))))
        phi = draw(st.sampled_from([phi_ref - turn, phi_ref + turn, 0.0, 180.0])
                   | st.floats(0.0, 360.0))
        if on_x_axis:
            xs.append(-radius if 90.0 < phi % 360.0 <= 270.0 else radius)  # phi 180 or 0
        else:
            xs.append(radius * math.cos(math.radians(phi)))
            ys.append(radius * math.sin(math.radians(phi)))
    return standoff, step, theta_ref, phi_ref, xs, None if on_x_axis else ys


@settings(max_examples=500)
@given(drifts())
@example((10.0, 5.0, 0.0, 0.0, [-0.0, 0.0, -5e-324], None))  # x = -0.0: phi 180 fires
@example((10.0, 5.0, 30.0, 90.0, [0.0, -0.0], [0.0, -0.0]))  # radius 0, any phi
@example((10.0, 5.0, 30.0, 90.0, [-0.0, 0.0], [0.0, -0.0]))
@example((10.0, 5.0, 88.0, 0.0, [1e300, -1e300, 0.0], None))  # theta_ref + thr beyond 90
@example((10.0, 5.0, 2.0, 0.0, [0.1, 1.0, 0.0], None))  # theta_ref - thr below 0
@example((10.0, 95.0, 45.0, 0.0, [0.0, 1e9, -3.0], None))  # thr >= 90
@example((10.0, 181.0, 45.0, 10.0, [0.0, 1e9, -3.0], [0.0, -1.0, 2.0]))  # thr >= 180
@example((10.0, ANGLE_EPS_DEG + BAND, 45.0, 0.0, [10.0, -10.0], None))  # thr <= 0
# theta_ref - thr beyond 90 with thr > 0
@example((10.0, ANGLE_EPS_DEG + BAND + 5e-10, 90.0 + 1e-9, 0.0, [10.0], [0.0]))
@example((10.0, 5.0, 45.0, 180.0, [10.0, -10.0], None))  # phi 0 fires, 180 does not
@example((10.0, 5.0, 45.0, 0.0, [3.06], [0.0]))  # r * r between the radius bounds
@example((10.0, 1e-12, 45.0, 0.0, [10.0, 10.0], [0.0, 1e-300]))  # thr <= 0, y an array
# a drift a few ulps past a threshold of 1e-7 deg, which only BAND's margin flags
@example((1.0, 1.0099999999999999e-07, 1.0, 236.0, [-0.009760749388497], [-0.014470906121300245]))
def test_the_radius_bounds_flag_every_entry_whose_drift_reaches_the_step(drift):
    """The searches stop at every position whose scalar drift from the references
    reaches ``step - ANGLE_EPS_DEG``, the test that decides a pick: ``_far`` of case A's
    and B's search calls it near, and so does case C's scan of a block."""
    standoff, step, theta_ref, phi_ref, xs, ys = drift
    positions = [(x, 0.0) for x in xs] if ys is None else list(zip(xs, ys))
    bounds = _near_bounds(theta_ref, phi_ref, step, standoff, ys is None)
    far = _far(positions.__getitem__, lambda k: k, bounds)
    for j, (x_j, y_j) in enumerate(positions):
        ang = angles_from_position(Point3D(x_j, y_j, standoff))
        d_phi = signed_circular_delta_deg(ang.phi, phi_ref)
        if max(abs(ang.theta - theta_ref), abs(d_phi)) >= step - ANGLE_EPS_DEG:
            assert not far(j)
            if ys is None:  # and case C's scan of a block's x
                assert _next_near_crossing(np.array(xs, float), j, bounds, 1) == j


def float_arrays(elements):
    return st.lists(elements, min_size=1, max_size=64).map(np.array)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return np.array_equal(a.view(np.int64), b.view(np.int64))


SUBNORMALS = [5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308]


@settings(max_examples=300)
@given(float_arrays(st.floats(-1e306, 1e306)))  # beyond, the product overflows
@example(np.array([0.0, -0.0, math.pi, -math.pi, math.pi / 2, 1e306, -1e306, *SUBNORMALS]))
def test_rad_to_deg_is_the_factor_of_np_and_math_degrees(v):
    assert same_bits(v * RAD_TO_DEG, np.degrees(v))
    assert same_bits(v * RAD_TO_DEG, [math.degrees(x) for x in v.tolist()])


@settings(max_examples=300)
@given(float_arrays(st.floats(allow_nan=False)))
@example(np.array([0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, *SUBNORMALS]))
def test_a_position_off_the_x_axis_by_zero_needs_no_hypot_or_atan2(x):
    assert same_bits(np.abs(x), np.hypot(x, 0.0))
    phi = np.where(np.signbit(x), 180.0, 0.0)
    assert same_bits(phi, np.degrees(np.arctan2(0.0, x)) % 360.0)
    # and on the scalar path, whose angles the scan's bounds on x stand for
    assert same_bits(np.abs(x), [math.hypot(v, 0.0) for v in x.tolist()])
    assert same_bits(phi, [math.degrees(math.atan2(0.0, v)) % 360.0 for v in x.tolist()])


def test_a_crossing_at_any_distance_from_the_last_pick_is_found():
    # The search after a pick looks at windows of doubling size; crossings
    # 1, 2, ..., 500 samples after the previous pick meet its first three
    # window boundaries from both sides.
    gaps = range(1, 501)
    # theta climbs 0.15 deg at each, so that it stays below 90 deg
    theta = np.repeat(np.arange(len(gaps) + 1) * 0.15, [1, *gaps])
    stream = [(k / 1000, Angles(th, 0.0)) for k, th in enumerate(theta.tolist())]
    picked = detect_events(scalar_oracle.PairStream(stream), 0.15)
    assert picked == scalar_oracle.detect_events(stream, 0.15)
    assert [k for k in range(len(stream)) if k == 0 or theta[k] != theta[k - 1]] == [
        round(t * 1000) for t, _ in picked
    ]


STATE_COUNTS = (2, 3, 4, 5, 6, 7, 2**16 - 1, 2**16)


def _ulp_neighbours(x: float, ulps: int) -> float:
    step = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, step))
    return x


@st.composite
def phase_arrays(draw):
    """Phases near the quantizer's edges, for one state count, in a 0-d, 1-d or 2-d array.

    Every phase lies in the domain the schema admits: below MAX_PHASE_STEPS state steps.
    """
    n = draw(st.sampled_from(STATE_COUNTS))
    step = TWO_PI / n
    top = MAX_PHASE_STEPS * step
    ks = st.integers(-MAX_PHASE_STEPS, MAX_PHASE_STEPS) | st.integers(-1000, 1000)
    turns = st.integers(-MAX_PHASE_STEPS // n, MAX_PHASE_STEPS // n) | st.integers(-1000, 1000)
    near = st.integers(-2, 2)
    sign = st.sampled_from([1, -1])
    phase = st.one_of(
        # half-step ties and their ulp neighbours
        st.builds(lambda k, u: _ulp_neighbours((k + 0.5) * step, u), ks, near),
        # whole turns of n states and their ulp neighbours
        st.builds(lambda k, u: _ulp_neighbours(k * n * step, u), turns, near),
        # negative, subnormal and large phases, up to just below the bound
        st.floats(-1e3, 1e3),
        st.floats(-1e-300, 1e-300),
        st.builds(lambda x, s: s * x, st.floats(2.0**40 * step, top), sign),
        st.builds(lambda u, s: s * _ulp_neighbours(top, -u), st.integers(1, 4), sign),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    ).filter(lambda p: abs(p) / step < MAX_PHASE_STEPS)
    phases = draw(st.lists(phase, min_size=1, max_size=8))
    shape = draw(st.sampled_from(["0-d", "1-d", "2-d"]))
    if shape == "0-d":
        return np.asarray(phases[0]), n
    if shape == "2-d":
        return np.asarray(phases).reshape(2 - len(phases) % 2, -1), n
    return np.asarray(phases), n


@settings(max_examples=400)
@given(phase_arrays())
def test_nearest_state_gives_the_np_mod_quantizers_states(drawn):
    phases, n = drawn
    got, want = _nearest_state(phases, n), nearest_state(phases, n)
    assert np.shape(got) == np.shape(phases) == np.shape(want)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert ((got >= 0) & (got < n)).all()


# theta 0 gives gradient components of +-0.0: at phi 270, gy == -0.0
angles = st.builds(
    Angles,
    st.sampled_from([0.0]) | st.floats(0.0, 89.99),
    st.sampled_from([0.0, 90.0, 180.0, 270.0, -90.0, 360.0]) | st.floats(-720.0, 720.0),
)


def small_surfaces(draw, size=12):
    """A line, a column or a rectangle of at most ``size`` cells a side, with its state
    count and a wavelength, drawn with ``draw``."""
    sizes = st.integers(1, size)
    n_cols, n_rows = draw(
        st.tuples(st.just(1), sizes) | st.tuples(sizes, st.just(1)) | st.tuples(sizes, sizes)
    )
    return SurfaceConfig(
        n_cols=n_cols, n_rows=n_rows,
        n_states=draw(st.sampled_from(STATE_COUNTS) | st.integers(2, MAX_STATES)),
        lambda_r=draw(st.sampled_from([0.03, 0.025])),
    )


@st.composite
def steering_pairs(draw):
    """A surface (a line, a column or a rectangle), its state count, and two directions."""
    return draw(angles), draw(angles), small_surfaces(draw, size=40)


@settings(max_examples=400)
@given(steering_pairs())
@example((Angles(0.0, 0.0), Angles(0.0, 270.0), SurfaceConfig(n_cols=3, n_rows=5)))
@example((Angles(20.0, 180.0), Angles(40.0, 180.0), SurfaceConfig(n_cols=7, n_rows=4)))
@example((Angles(0.0, 0.0), Angles(30.0, 90.0), SurfaceConfig(n_cols=1, n_rows=9)))
def test_state_matrix_gives_the_full_grid_codings_states(drawn):
    incident, reflected, surface = drawn
    got = state_matrix(incident, reflected, surface)
    want = full_grid_state_matrix(incident, reflected, surface)
    assert got.dtype == np.int64
    assert got.shape == (surface.n_rows, surface.n_cols)
    assert got.flags.writeable and got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert not np.shares_memory(got, state_matrix(incident, reflected, surface))


# quadrant angles and signed zeros, where _sin_deg is exact, and phis off [0, 360)
gradient_thetas = st.sampled_from([0.0, -0.0, 30.0, 45.0]) | st.floats(0.0, 90.0, exclude_max=True)
gradient_phis = st.sampled_from(
    [0.0, -0.0, 90.0, 180.0, 270.0, 360.0, -90.0, -180.0, -270.0, -360.0, 450.0, 720.0, -720.0]
) | st.floats(-1e4, 1e4)
bad_directions = st.tuples(
    st.sampled_from([90.0, 1e300, -1.0, -5e-324, math.nan, math.inf, -math.inf]), gradient_phis
) | st.tuples(gradient_thetas, st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def gradient_cases(draw):
    """An incidence, oblique or not, directions and wavelengths, equal or not; now and
    then one or two bad directions anywhere among the good ones, or a bad incidence."""
    lambda_i, lambda_r = draw(st.sampled_from([(0.03, 0.03), (0.03, 0.025), (0.02, 0.031)]))
    incident = draw(st.just(NORMAL_INCIDENCE) | st.builds(Angles, gradient_thetas, gradient_phis))
    directions = draw(st.lists(st.tuples(gradient_thetas, gradient_phis), max_size=12))
    if draw(st.integers(0, 3)) == 0:
        spoils = st.lists(st.tuples(st.integers(0, 12), bad_directions), min_size=1, max_size=2)
        for k, bad in draw(spoils):
            directions.insert(k, bad)
    if draw(st.integers(0, 9)) == 0:
        incident = Angles(*draw(bad_directions))
    return incident, directions, SurfaceConfig(lambda_i=lambda_i, lambda_r=lambda_r)


@settings(max_examples=400)
@given(gradient_cases())
@example((Angles(20.0, 180.0), [(0.0, 270.0), (30.0, -90.0), (89.5, 720.0), (0.0, -0.0)],
          SurfaceConfig(lambda_r=0.025)))
@example((NORMAL_INCIDENCE, [(10.0, 0.0), (90.0, 0.0), (-1.0, 0.0)], SurfaceConfig()))
def test_gradients_have_the_bits_of_the_scalar_formula(drawn):
    incident, directions, surface = drawn
    thetas, phis = [d[0] for d in directions], [d[1] for d in directions]
    try:
        scalar_gradients(incident, NORMAL_INCIDENCE, surface)  # the incidence, checked first
        want = [scalar_gradients(incident, Angles(*d), surface) for d in directions]
    except ValidationError as exc:  # the first bad direction's refusal
        with pytest.raises(ValidationError) as refused:
            coding.gradients(incident, thetas, phis, surface)
        assert (str(refused.value), refused.value.key) == (str(exc), exc.key)
        return
    gx, gy = coding.gradients(incident, thetas, phis, surface)
    assert gx.dtype == gy.dtype == np.float64 and gx.shape == gy.shape == (len(directions),)
    for got, component in ((gx, "gx"), (gy, "gy")):
        bits = np.array([getattr(g, component) for g in want], dtype=float).view(np.int64)
        assert got.view(np.int64).tolist() == bits.tolist()


def block_lines(grads, surface):
    """The (rows, cols) that a block of these gradients codes."""
    return (
        surface.n_rows if any(g.gy != 0 for g in grads) else 1,
        surface.n_cols if any(g.gx != 0 for g in grads) else 1,
    )


@st.composite
def direction_blocks(draw):
    """A surface, an incidence, a cap of ``per_block`` full grids, and directions that
    fill 1, per_block - 1, per_block or per_block + 1 full grids, or any number."""
    surface = small_surfaces(draw)
    incident = draw(st.just(NORMAL_INCIDENCE) | angles)
    per_block = draw(st.integers(1, 6))
    n = draw(st.sampled_from([1, per_block - 1, per_block, per_block + 1]) | st.integers(0, 20))
    # the incidence itself cancels to gradients of +0.0 when the wavelengths are equal
    directions = draw(st.lists(angles | st.just(incident), min_size=n, max_size=n))
    return incident, directions, surface, per_block * surface.n_cells


def check_blocks(incident, directions, surface, cap):
    """``state_blocks`` under ``cap`` against the full-grid coding, direction by direction,
    with each block as large as the cap allows and its axes compact where they can be."""
    with mock.patch.object(coding, "BLOCK_CELLS", cap):
        thetas, phis = [d.theta for d in directions], [d.phi for d in directions]
        blocks = list(state_blocks(incident, thetas, phis, surface))
    assert sum(map(len, blocks)) == len(directions)
    grads = [phase_gradients(incident, d, surface) for d in directions]
    k = 0
    for block in blocks:
        n = len(block)
        assert block.dtype == np.int64
        assert block.shape[1:] == block_lines(grads[k : k + n], surface)
        assert n == 1 or block.size <= cap
        if k + n < len(directions):  # the next direction would not have fitted
            assert (n + 1) * np.prod(block_lines(grads[k : k + n + 1], surface)) > cap
        for states, reflected in zip(block, directions[k : k + n]):
            want = full_grid_state_matrix(incident, reflected, surface)
            assert np.array_equal(np.broadcast_to(states, want.shape), want)
        k += n


@settings(max_examples=300)
@given(direction_blocks())
@example((Angles(0.0, 0.0), [Angles(30.0, 0.0), Angles(0.0, 270.0), Angles(30.0, 90.0)],
          SurfaceConfig(n_cols=3, n_rows=5), 3 * 15))
@example((Angles(20.0, 180.0), [Angles(20.0, 180.0), Angles(40.0, -90.0), Angles(0.0, 360.0)],
          SurfaceConfig(n_cols=1, n_rows=4), 4))
def test_state_blocks_give_the_full_grid_codings_states(drawn):
    check_blocks(*drawn)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_state_blocks_fill_blocks_at_the_modules_cap(extra):
    # a 2x1 surface codes two cells a direction that has gx != 0
    surface = SurfaceConfig(n_cols=2, n_rows=1)
    n = coding.BLOCK_CELLS // 2 + extra
    directions = [Angles(1.0 + 88.0 * k / n, 0.0) for k in range(n)]
    check_blocks(NORMAL_INCIDENCE, directions, surface, coding.BLOCK_CELLS)


def grid_steps(step):
    """The sweep's (from_theta, to_theta) pairs, as the one-direction-at-a-time loop made them."""
    theta, steps = 85.0, []
    while theta - step >= -1e-9:
        steps.append((theta, max(theta - step, 0.0)))
        theta -= step
    return steps


phis = st.sampled_from([0.0, -0.0, 33.0, 90.0, 180.0, 270.0, 360.0]) | st.floats(-720.0, 720.0)


@st.composite
def grid_sweeps(draw):
    """A sweep's step (85/k clamps the last step at 0 for many k), phis, surface and cap."""
    surface = small_surfaces(draw, size=6)
    step = draw(st.integers(1, 40).map(lambda k: 85.0 / k) | st.floats(2.0, 85.0))
    from_phi = draw(phis)
    to_phi = draw(st.just(from_phi) | phis)
    incident = draw(st.just(NORMAL_INCIDENCE) | angles)
    # blocks of one to five full grids, so that a block can end on a step's start
    cap = max(1, draw(st.integers(1, 5)) * surface.n_cells + draw(st.sampled_from([-1, 0, 1])))
    # directions taken at once: an even count, so that a chunk starts on a step's start
    chunk = draw(st.sampled_from([2, 4, 6, SAMPLE_BLOCK]))
    return step, from_phi, to_phi, surface, incident, cap, chunk


@settings(max_examples=200)
@given(grid_sweeps())
@example((85.0 / 11, 0.0, 0.0, SurfaceConfig(n_cols=4, n_rows=3), NORMAL_INCIDENCE, 5, 4))
@example((85.0 / 11, 33.0, 10.0, SurfaceConfig(n_cols=4, n_rows=3), NORMAL_INCIDENCE, 36, 6))
@example((85.0 / 15, 33.0, 33.0, SurfaceConfig(n_cols=2, n_rows=5), Angles(20.0, 0.0), 25,
          SAMPLE_BLOCK))
def test_every_sweep_grid_fraction_is_the_sweep_diff_of_its_pair(drawn):
    step, from_phi, to_phi, surface, incident, cap, chunk = drawn
    with mock.patch.object(coding, "BLOCK_CELLS", cap), mock.patch.object(
        metrics, "SAMPLE_BLOCK", chunk
    ):
        got = list(sweep_grid(step, from_phi, to_phi, surface, incident))
        assert [(a, b) for a, b, _ in got] == grid_steps(step)
        for theta, end, fraction in got:
            pair = Angles(theta, from_phi), Angles(end, to_phi)
            assert fraction == sweep_diff(*pair, surface, incident)
            before, after = (full_grid_state_matrix(incident, d, surface) for d in pair)
            assert fraction == np.count_nonzero(before != after) / surface.n_cells


# a step whose last end, a hair below 0, is clamped to 0.0
CLAMPED_STEP = next(
    step for step in (85.0 / k for k in range(1, 1000))
    if list(metrics._grid_steps(step))[-1][0] - step < 0
)


@st.composite
def grid_sweep_runs(draw):
    """A surface of at most 6 cells a side, a step that gives at most about 2,000 steps,
    and phis, equal or not."""
    surface = small_surfaces(draw, size=6)
    step = draw(st.integers(1, 2000).map(lambda k: 85.0 / k) | st.floats(85.0 / 2000, 85.0))
    from_phi = draw(phis)
    return surface, step, from_phi, draw(st.just(from_phi) | phis)


@settings(max_examples=100, deadline=None)
@given(grid_sweep_runs())
@example((SurfaceConfig(n_cols=4, n_rows=3), 5.0, 0.0, 10.0))
@example((SurfaceConfig(n_cols=5, n_rows=2, n_states=4), CLAMPED_STEP, 0.0, 0.0))
@example((SurfaceConfig(n_cols=5, n_rows=2, n_states=4), CLAMPED_STEP, 20.0, -20.0))
def test_grid_sweep_prints_format_number_of_every_value_sweep_grid_yields(drawn):
    surface, step, from_phi, to_phi = drawn
    argv = [
        "sweep", f"--grid={step!r}", f"--from-phi={from_phi!r}", f"--to-phi={to_phi!r}",
        f"surface.n_cols={surface.n_cols}", f"surface.n_rows={surface.n_rows}",
        f"surface.n_states={surface.n_states}", f"wave.lambda_r={surface.lambda_r!r}",
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == "".join(
        f"from_theta={format_number(a)} to_theta={format_number(b)} "
        f"fraction={format_number(fraction)}\n"
        for a, b, fraction in sweep_grid(step, from_phi, to_phi, surface)
    )


@st.composite
def compact_pairs(draw):
    """Two state matrices of one grid, each with its rows, its columns or both compact."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))

    def matrix():
        shape = (draw(st.sampled_from([1, n_rows])), draw(st.sampled_from([1, n_cols])))
        values = draw(st.lists(st.integers(0, 2), min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]))
        return np.array(values, np.int64).reshape(shape)

    return matrix(), matrix(), (n_rows, n_cols)


@given(compact_pairs())
def test_a_compact_diff_gives_the_full_diffs_rows(drawn):
    old, new, shape = drawn
    got = diff_states(old, new, shape)
    want = diff_states(np.broadcast_to(old, shape).copy(), np.broadcast_to(new, shape).copy())
    assert got.shape == want.shape and got.shape[1:] == (3,)
    assert np.array_equal(got, want)


def argwhere_diff(old, new, shape):
    """The (col, row, state) rows of the cells whose broadcast states differ, one cell at a
    time in ``np.argwhere``'s row-major order."""
    old, new = np.broadcast_to(old, shape), np.broadcast_to(new, shape)
    rows = [(c, r, new[r, c]) for r, c in np.argwhere(old != new).tolist()]
    return np.array(rows, np.int64).reshape(-1, 3)


@settings(max_examples=300)
@given(compact_pairs())
@example((np.zeros((1, 1), np.int64), np.ones((1, 1), np.int64), (7, 5)))  # every cell changes
@example((np.zeros((1, 1), np.int64), np.ones((1, 1), np.int64), (1, 1)))
@example((np.zeros((1, 12), np.int64), np.eye(1, 12, 11, np.int64), (12, 12)))
@example((np.zeros((12, 1), np.int64), np.eye(12, 1, -11, np.int64), (12, 12)))
def test_a_compact_diff_gives_the_rows_of_the_cells_that_change(drawn):
    old, new, shape = drawn
    got = diff_states(old, new, shape)
    assert got.dtype == np.int64 and got.flags.c_contiguous and got.shape[1:] == (3,)
    assert np.array_equal(got, argwhere_diff(old, new, shape))


def nonzero_diff(old, new, shape):
    """The rows of a full diff as ``diff_states`` built them with ``np.nonzero``, a
    boolean gather and ``np.column_stack``, over both matrices broadcast to ``shape``."""
    old, new = np.broadcast_to(old, shape), np.broadcast_to(new, shape)
    changed = old != new
    rows, cols = np.nonzero(changed)
    return np.column_stack((cols, rows, new[changed]))


GRID = np.arange(12, dtype=np.int64).reshape(3, 4) % 3


@settings(max_examples=300)
@given(compact_pairs())
@example((GRID, GRID.copy(), (3, 4)))  # no change
@example((GRID, np.arange(4, dtype=np.int64).reshape(1, 4), (3, 4)))  # compact new, full old
@example((GRID[:1], GRID[1:2] + 1, (1, 4)))  # a 1xn grid
@example((GRID[:, :1], GRID[:, 1:2], (3, 1)))  # an nx1 grid
def test_a_diff_gives_the_rows_of_nonzero_and_column_stack(drawn):
    # the full path writes rows, cols and states straight into one array; every pair of
    # full or compact matrices gives the rows, dtype and order of the reference
    old, new, shape = drawn
    want = nonzero_diff(old, new, shape)
    for got in [diff_states(old, new, shape)] + (
        [diff_states(old, new)] if old.shape == new.shape == shape else []
    ):
        assert got.dtype == want.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape == want.shape and np.array_equal(got, want)


OUT_OF_RANGE = (-1, -(2**63), -(2**63 - 1), 2**63 - 1)


@st.composite
def cell_groups(draw):
    """Rows and bounds of a run of events, as the oracle's reader hands them to its
    ``cell_fault``: row-major or shuffled bursts, with repeats and out-of-range values."""
    surface = SurfaceConfig(
        n_cols=draw(st.integers(1, 4)), n_rows=draw(st.integers(1, 4)),
        n_states=draw(st.integers(2, 4)),
    )
    events = []
    for _ in range(draw(st.integers(1, 5))):
        cells = sorted(draw(st.sets(st.integers(0, surface.n_cells - 1))))
        state = st.integers(0, surface.n_states - 1)
        rows = [[cell % surface.n_cols, cell // surface.n_cols, draw(state)] for cell in cells]
        if rows and draw(st.booleans()):  # a repeat beside the row it repeats
            at = draw(st.integers(0, len(rows) - 1))
            rows.insert(draw(st.sampled_from([at + 1, at])), [*rows[at][:2], draw(state)])
        if draw(st.booleans()):
            rows = draw(st.permutations(rows))
        if rows and draw(st.booleans()):
            row, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
            limit = (surface.n_cols, surface.n_rows, surface.n_states)[column]
            rows[row][column] = draw(st.sampled_from([limit, limit + 1, *OUT_OF_RANGE]))
        events.append(rows)
    flat = [row for rows in events for row in rows]
    return np.array(flat, np.int64).reshape(-1, 3), np.cumsum([0, *map(len, events)]), surface


@settings(max_examples=400)
@given(cell_groups())
@example((np.array([[0, 0, 1], [0, 0, 1]]), np.array([0, 2]), SurfaceConfig(n_cols=2, n_rows=2)))
@example((np.array([[0, 0, 1], [1, 0, 1], [0, 0, 1]]), np.array([0, 3]), SurfaceConfig()))
def test_cell_fault_agrees_with_the_check_that_always_sorts(drawn):
    """The first event that ``checked_events``, checking one event at a time, refuses for
    its cells, and its message, are those of the oracle, which checks the run at once."""
    rows, bounds, surface = drawn
    events = (rows[a:b] for a, b in zip(bounds, bounds[1:]))
    trace = hand_trace(surface.n_cols, surface.n_rows, surface.n_states, *events)
    passed = []
    try:
        passed.extend(checked_events(trace.meta, trace.events))
        first = len(passed), ""
    except ValidationError as exc:
        assert exc.key == "updates"
        first = len(passed), str(exc).removeprefix(f"line {len(passed) + 2}: ")
    assert first == trace_io_oracle.cell_fault(rows, bounds, surface)


@st.composite
def surface_rows(draw):
    """Rows on a small surface, short or repeated past a thousand, with up to three
    values in any column replaced by one that may lie outside: its limit or above, a
    negative, an int64 extreme or any int64."""
    surface = SurfaceConfig(
        n_cols=draw(st.integers(1, 6)), n_rows=draw(st.integers(1, 6)),
        n_states=draw(st.integers(2, 6)),
    )
    limits = (surface.n_cols, surface.n_rows, surface.n_states)
    inside = st.tuples(*(st.integers(0, n - 1) for n in limits))
    rows = np.tile(draw(st.lists(inside, max_size=6)), (draw(st.sampled_from([1, 600])), 1))
    rows = rows.reshape(-1, 3).astype(np.int64)
    for _ in range(draw(st.integers(0, 3)) if len(rows) else 0):
        row, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
        outside = st.sampled_from([limits[column], limits[column] + 1, *OUT_OF_RANGE])
        rows[row, column] = draw(outside | st.integers(-(2**63), 2**63 - 1))
    return rows, surface


def long_rows_with(column: int, value: int) -> tuple[np.ndarray, SurfaceConfig]:
    """1,100 rows of zeros on a 3x4 surface of 5 states, ``value`` in ``column`` of row 700."""
    rows = np.zeros((1_100, 3), np.int64)
    rows[700, column] = value
    return rows, SurfaceConfig(n_cols=3, n_rows=4, n_states=5)


@settings(max_examples=400)
@given(surface_rows())
@example((np.empty((0, 3), np.int64), SurfaceConfig()))
@example(long_rows_with(0, 3))  # each column's limit, in a burst long enough for its max
@example(long_rows_with(1, 4))
@example(long_rows_with(2, 5))
@example(long_rows_with(2, -(2**63)))
def test_outside_surface_gives_the_broadcast_compares_message(drawn):
    rows, surface = drawn
    assert outside_surface(rows, surface) == trace_io_oracle.outside_surface(rows, surface)[1]


# Values a heat map holds: count / total shares, both zeros, subnormals, values around
# 1e-05 and 1e16, where repr switches notation, and integral floats.
heat_values = st.one_of(
    st.builds(lambda count, total: count / max(count, total), st.integers(0, 99),
              st.integers(1, 99)),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-308]),
    st.builds(_ulp_neighbours, st.sampled_from([1e-05, 1e-04, 1e16, 1e15]), st.integers(-3, 3)),
    st.integers(0, 2**60).map(float),
    st.floats(0, allow_infinity=False),
)


@st.composite
def heat_maps(draw):
    """A matrix of a few values each repeated, contiguous, transposed or strided; at least
    one entry, since ``export_heatmap`` refuses a matrix of none."""
    pool = draw(st.lists(heat_values, min_size=1, max_size=5))
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    side = 2 * max(n_rows, n_cols, 1)
    picks = draw(st.lists(st.sampled_from(pool), min_size=side**2, max_size=side**2))
    big = np.array(picks, float).reshape(side, side)
    return draw(st.sampled_from([
        np.ascontiguousarray(big[:n_rows, :n_cols]),
        big[:n_cols, :n_rows].T,
        big[::2, ::2][:n_rows, :n_cols],
        big[1:n_rows + 1, 1:n_cols + 1],
    ]))


@settings(max_examples=300)
@given(heat_maps())
@example(np.array([[0.0, -0.0], [-0.0, 0.0]]))
@example(np.array([[-0.0, 1e16, 9999999999999998.0, 1e-05, 9.999999999999999e-06, 5e-324]]))
def test_csv_heat_map_has_the_bytes_of_formatting_every_entry(matrix):
    got, want = io.BytesIO(), io.BytesIO()
    export_heatmap(matrix, "csv", got)
    trace_io_oracle.export_heatmap_csv(matrix, want)
    assert got.getvalue() == want.getvalue()
