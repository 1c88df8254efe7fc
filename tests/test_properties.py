"""Property tests of the input boundary (CLI overrides, trace files), of drift detection,
of the quantizer and of the CSV heat map."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import scalar_oracle
import trace_io_oracle
from coding_oracle import nearest_state
from hypothesis import example, given, settings
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
    case_c_trajectory,
    export_heatmap,
    read_trace,
    write_trace,
)
from steertrace import trace_io
from steertrace.cli import main
from steertrace.coding import MAX_PHASE_STEPS, TWO_PI, _nearest_state
from steertrace.gateway import BAND, detect_events
from steertrace.geometry import angle_stream, signed_circular_delta_deg
from steertrace.scenario import FIELDS
from steertrace.trace_io import _cell_fault, _decode_updates, _encode_updates

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


@st.composite
def traces(draw):
    surface = SurfaceConfig(
        draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(positive),
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


int64s = st.integers(-(2**63), 2**63 - 1) | st.sampled_from(
    [0, 1, 9, 10, 99, -1, -10, 10**18, -(10**18), 2**32, 2**63 - 1, -(2**63) + 1, -(2**63)]
)
update_arrays = st.lists(st.tuples(int64s, int64s, int64s), max_size=4).map(
    lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), 3)
)


@settings(max_examples=200)
@given(st.lists(update_arrays, max_size=5))
def test_encoder_writes_the_bytes_of_json_dumps(arrays):
    expected = [json.dumps(a.tolist(), separators=(",", ":")).encode() for a in arrays]
    assert _encode_updates(arrays) == expected


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
def test_decoder_declines_or_gives_jsons_rows(texts):
    one_by_one = [_decode_updates([text]) for text in texts]
    for text, decoded in zip(texts, one_by_one):
        if writers_spelling(text):
            assert decoded is not None, text
        if decoded is not None:
            rows, bounds = decoded
            assert rows.dtype == np.int64 and rows.shape == (bounds[-1], 3)
            assert list(bounds) == [0, len(rows)]
            assert rows.tolist() == json_rows(text)
    # a group decodes iff each text does, into the texts' rows one after another
    group = _decode_updates(texts)
    assert (group is None) == (None in one_by_one)
    if group is not None:
        rows, bounds = group
        for k, (alone, _) in enumerate(one_by_one):
            assert np.array_equal(rows[bounds[k]:bounds[k + 1]], alone)


@settings(max_examples=200)
@given(traces(), st.integers(1, 12))
def test_traces_round_trip_across_coding_group_boundaries(trace, group_rows):
    with mock.patch.object(trace_io, "_GROUP_ROWS", group_rows):
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


@settings(max_examples=300)
@given(sampled_scenarios())
def test_detect_events_picks_exactly_what_the_scalar_scan_picks(scenario):
    trajectory, dt, step = scenario
    stream = angle_stream(trajectory, dt)
    scalar = scalar_oracle.angle_stream(trajectory, dt)
    assert stream.t.tolist() == [t for t, _ in scalar]
    expected = scalar_oracle.detect_events(scalar, step)
    assert detect_events(stream, step) == expected
    explicit = scalar_oracle.PairStream(scalar)  # explicit pairs are taken as exact
    assert detect_events(explicit, step) == expected


def test_numpy_angles_stay_far_inside_the_band():
    """The four benchmark scenarios: numpy's angles are within BAND / 1000 of the scalar path's."""
    scenarios = [
        (case_a_trajectory(), 1e-3),  # walkby
        (case_c_trajectory(CaseParams(rng_seed=3)), 1e-3),  # leaps
        (case_a_trajectory(), 1e-2),  # bigwall
        (case_b_trajectory(), 1e-3),  # sweep
    ]
    for trajectory, dt in scenarios:
        stream = angle_stream(trajectory, dt)
        scalar = scalar_oracle.angle_stream(trajectory, dt)
        theta = np.array([a.theta for _, a in scalar])
        phi = np.array([a.phi for _, a in scalar])
        assert np.abs(stream.theta - theta).max() <= BAND / 1000
        assert np.abs(signed_circular_delta_deg(stream.phi, phi)).max() <= BAND / 1000


def test_a_crossing_at_any_distance_from_the_last_pick_is_found():
    # The search after a pick looks at windows of doubling size; crossings
    # 1, 2, ..., 500 samples after the previous pick meet its first three
    # window boundaries from both sides.
    gaps = range(1, 501)
    theta = np.repeat(np.arange(len(gaps) + 1, dtype=float), [1, *gaps])
    stream = [(k / 1000, Angles(th, 0.0)) for k, th in enumerate(theta.tolist())]
    picked = detect_events(scalar_oracle.PairStream(stream), 1.0)
    assert picked == scalar_oracle.detect_events(stream, 1.0)
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


OUT_OF_RANGE = (-1, -(2**63), -(2**63 - 1), 2**63 - 1)


@st.composite
def cell_groups(draw):
    """Rows and bounds of a group of events, as ``_event_records`` hands them to
    ``_cell_fault``: row-major or shuffled bursts, with repeats and out-of-range values."""
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
    rows, bounds, surface = drawn
    assert _cell_fault(rows, bounds, surface) == trace_io_oracle.cell_fault(rows, bounds, surface)


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
    """A matrix of a few values each repeated, contiguous, transposed or strided."""
    pool = draw(st.lists(heat_values, min_size=1, max_size=5))
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
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
