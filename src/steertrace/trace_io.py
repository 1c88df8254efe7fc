"""Plain-text persistence for traces, workload reports, and heat maps.

Trace files are UTF-8 with LF newlines, one JSON object per line.  Line 1 is
the header::

    {"format_version": 1, "created": "...", "meta": {...}}

and every following line is one reconfiguration event::

    {"t": ..., "theta_r": ..., "phi_r": ..., "updates": [[col, row, state], ...]}

with ``t`` in ``[0, meta.scenario.duration]``.  The writer spells every line
as ``json.dumps`` does with ``separators=(",", ":")``; the reader accepts any
JSON spelling under the same rules.  Both code ``updates`` with digit
arithmetic in numpy, for runs of consecutive events at a time; the reader
leaves a line that is not in the writer's spelling to ``json``.

``meta`` snapshots the surface, gateway, incidence, and scenario in full, so
a trace header alone suffices to regenerate the trace; :mod:`.scenario`, the
schema of the CLI config too, lays it out and parses it.  Floats are rendered
with full round-trip precision and no locale dependence.  ``created``
defaults to the epoch of SOURCE_DATE_EPOCH (or 0 when unset) so identical
scenarios always produce identical bytes.

Heat maps export either as header-less CSV (one line per row) or as plain
PGM (P2, maxval 255, pixels scaled by the matrix maximum).
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from datetime import datetime, timezone
from itertools import chain
from typing import BinaryIO

import numpy as np

from .errors import TraceParseError, TraceWriteError, ValidationError
from .gateway import ReconfigEvent, TrafficTrace
from .geometry import Angles
from .metrics import WorkloadReport
from .scenario import is_finite_number, meta_from_dict, meta_to_dict

FORMAT_VERSION = 1

_PGM_MAX_LINE = 70  # plain-PGM line length limit

# A run of consecutive events is coded in one numpy pass until it holds this
# many updates plus events: per-event numpy calls would cost more than the
# coding on traces of many small bursts, and one pass over a whole trace would
# hold temporaries of several times its size.
_GROUP_ROWS = 2**12
_MAX_DIGITS = 18  # digits a value may have on the reader's numpy path: 10**18 < 2**63
_UPDATES_KEY = ',"updates":'
_LBRACKET, _RBRACKET, _COMMA, _MINUS, _ZERO = b"[],-0"


def format_number(value: float) -> str:
    """Shortest decimal form that round-trips; integral floats drop the '.0'."""
    s = repr(float(value))
    return s[:-2] if s.endswith(".0") else s


def default_created() -> str:
    """Deterministic creation stamp honoring SOURCE_DATE_EPOCH."""
    try:
        epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    except ValueError:
        epoch = 0
    return datetime.fromtimestamp(epoch, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class _CountingSink:
    """Tracks bytes written so failures can report the offending offset."""

    def __init__(self, dest: BinaryIO):
        self._dest = dest
        self.offset = 0

    def write_line(self, text: str):
        self.write(text.encode("utf-8") + b"\n")

    def write(self, data: bytes):
        try:
            self._dest.write(data)
        except OSError as exc:
            raise TraceWriteError(
                f"write failed at byte offset {self.offset}: {exc}", byte_offset=self.offset
            ) from exc
        self.offset += len(data)

    def write_json(self, obj):
        self.write_line(json.dumps(obj, separators=(",", ":")))


def _start(dest: BinaryIO, created: str | None, **header) -> _CountingSink:
    """A sink on ``dest`` that has written the header line: version, stamp, ``header``."""
    sink = _CountingSink(dest)
    created = created if created is not None else default_created()
    sink.write_json({"format_version": FORMAT_VERSION, "created": created, **header})
    return sink


def _groups(items, size):
    """Runs of consecutive ``items``, each closed once its ``size(item)`` adds up to _GROUP_ROWS."""
    group, total = [], 0
    for item in items:
        group.append(item)
        total += size(item)
        if total >= _GROUP_ROWS:
            yield group
            group, total = [], 0
    if group:
        yield group


def _encode_updates(arrays: list[np.ndarray]) -> list[bytes]:
    """``json.dumps(a.tolist(), separators=(",", ":"))`` of each (n, 3) int64 array, as bytes.

    The arrays are coded together: each value becomes a token of prefix
    ("[[" before an array's first row, "],[" before a later row, "," inside
    a row), sign and digits, and the closing "]]" is appended per array.
    """
    full = [a for a in arrays if len(a)]
    if not full:
        return [b"[]"] * len(arrays)
    values = np.concatenate(full).reshape(-1)
    neg = values < 0
    mag = values.view(np.uint64)
    if neg.any():
        mag = np.where(neg, np.negative(mag), mag)  # -2**63 wraps to 2**63, as it should
    top = int(mag.max())
    width = len(str(top))
    q = mag.astype(np.uint32) if top < 2**32 else mag  # narrower division is faster
    n_digits = np.ones(len(values), np.intp)
    for k in range(1, width):
        n_digits += q >= 10**k
    digits = np.empty((width, len(values)), np.uint8)
    for k in range(width):  # digits[k] is the 10**k digit
        q, rest = q // 10, q
        digits[k] = rest - q * 10
    digits += _ZERO

    rows = np.array([len(a) for a in full])
    first = np.zeros(len(values) // 3, bool)  # each array's first row
    first[np.cumsum(rows) - rows] = True
    length = n_digits + neg + 1
    length[::3] += 2 - first
    ends = np.cumsum(length) + width  # room for the stray writes below, left of the first token
    out = np.empty(ends[-1], np.uint8)
    # Digit k of every value goes to ``ends - 1 - k``, also where the value
    # has k digits or fewer.  That byte then belongs to the value's own sign
    # or prefix, written afterwards, or to an earlier token, whose own digit
    # there has a lower k and is written later, as k runs down.
    for k in range(width - 1, -1, -1):
        out[ends - 1 - k] = digits[k]
    lead = ends - n_digits - neg  # one past each value's prefix
    out[lead[neg]] = _MINUS
    out[lead - 1] = _COMMA
    row_lead = lead[::3]
    out[row_lead - 1] = _LBRACKET
    out[row_lead - 2] = np.where(first, _LBRACKET, _COMMA)
    out[row_lead[~first] - 3] = _RBRACKET
    blob = out.tobytes()
    stops = iter((ends[np.cumsum(rows) * 3 - 1]).tolist())
    start = width
    bodies = []
    for a in arrays:
        if len(a):
            stop = next(stops)
            bodies.append(blob[start:stop] + b"]]")
            start = stop
        else:
            bodies.append(b"[]")
    return bodies


def write_trace(trace: TrafficTrace, dest: BinaryIO, created: str | None = None):
    """Serialize a trace; see the module docstring for the format."""
    sink = _start(dest, created, meta=meta_to_dict(trace.meta))
    for group in _groups(trace.events, lambda ev: 1 + len(ev.updates)):
        for ev, body in zip(group, _encode_updates([ev.updates for ev in group])):
            head = json.dumps(
                {"t": ev.t, "theta_r": ev.reflected.theta, "phi_r": ev.reflected.phi},
                separators=(",", ":"),
            )
            sink.write(f"{head[:-1]}{_UPDATES_KEY}".encode() + body + b"}\n")


def _parse_line(text: str, line_number: int) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON: {exc.msg}", line_number) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, or nesting too deep
        raise TraceParseError(f"invalid JSON: {exc}", line_number) from None
    if not isinstance(obj, dict):
        raise TraceParseError("expected a JSON object", line_number)
    return obj


def _read_lines(source: BinaryIO) -> tuple[dict, list[str]]:
    """Decode a trace or report file; return its version-checked header and all lines."""
    data = source.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"not UTF-8: {exc}", data.count(b"\n", 0, exc.start) + 1) from None
    lines = text.splitlines()
    if not lines:
        raise TraceParseError("empty file, header missing", 1)
    header = _parse_line(lines[0], 1)
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format_version {version!r} (expected {FORMAT_VERSION})",
            key="format_version",
        )
    return header, lines


def _split_event(line: str) -> tuple[dict, str] | None:
    """The head object and the ``updates`` text of an event line that, like the
    writer's, ends in ``,"updates":...}`` after an object of exactly the keys
    ``t``, ``theta_r`` and ``phi_r``; None for any other line."""
    cut = line.rfind(_UPDATES_KEY)
    if cut < 0 or not line.endswith("}"):
        return None
    try:
        head = json.loads(line[:cut] + "}")
    except (ValueError, RecursionError):
        return None
    if type(head) is not dict or head.keys() != {"t", "theta_r", "phi_r"}:
        return None
    return head, line[cut + len(_UPDATES_KEY):-1]


def _decode_updates(bodies: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of ``updates`` texts in the writer's spelling, as (n, 3) int64 with the
    row offsets of each text; None unless every text is ``[]`` or ``[[c,r,s],...]``
    with no sign, no leading zero, at most _MAX_DIGITS digits a value and nothing else.

    For such a text the rows are those ``json`` parses; the texts are decoded together.
    """
    counts = [body.count("[") - 1 for body in bodies]
    if any(n < 1 and body != "[]" for n, body in zip(counts, bodies)):
        return None
    bounds = np.cumsum([0, *counts])
    full = [body for n, body in zip(counts, bodies) if n]
    text = "".join(full)
    if not text:
        return np.empty((0, 3), np.int64), bounds
    if not (text.isascii() and text.startswith("[[") and text.endswith("]]")):
        return None
    data = np.frombuffer(text.encode(), np.uint8)
    digit = data - _ZERO  # wraps around for bytes below "0"
    is_digit = digit < 10
    # the runs of digits: text[start[i]:stop[i]] is value i
    edges = np.flatnonzero(is_digit[1:] != is_digit[:-1]) + 1
    start, stop = edges[::2], edges[1::2]
    n_rows = int(bounds[-1])
    if len(start) != 3 * n_rows or start[0] != 2:
        return None
    lengths = np.diff(edges)  # a value's digits, then the bytes up to the next value, ...
    size, gap = lengths[::2], lengths[1::2]
    if size.max() > _MAX_DIGITS or ((size > 1) & (digit[start] == 0)).any():
        return None
    # Between values: "," inside a row; "],[" between rows of a text; "]][[" where
    # one text meets the next.  Texts end after their last value's "]]".
    after = data[stop].reshape(-1, 3)
    row_end = stop[2::3][:-1]  # the last value of every row but the final one
    text_rows = np.cumsum([n for n in counts if n])  # rows up to the end of each text
    meets = np.zeros(n_rows - 1, bool)  # a row is the last of its text
    meets[text_rows[:-1] - 1] = True
    if not (
        (gap[0::3] == 1).all()
        and (gap[1::3] == 1).all()
        and np.array_equal(gap[2::3], 3 + meets)
        and (after[:, :2] == _COMMA).all()
        and (after[:, 2] == _RBRACKET).all()
        and np.array_equal(data[row_end + 1], np.where(meets, _RBRACKET, _COMMA))
        and (data[row_end + 2] == _LBRACKET).all()
        and (data[row_end[meets] + 3] == _LBRACKET).all()
        and len(data) - stop[-1] == 2
        and np.array_equal(stop[3 * text_rows - 1] + 2, np.cumsum([len(b) for b in full]))
    ):
        return None
    values = digit[stop - 1].astype(np.int64)
    for k in range(1, size.max()):
        values += (size > k) * (digit.take(stop - 1 - k, mode="clip") * np.int64(10**k))
    return values.reshape(-1, 3), bounds


def _updates(raw, line_number: int) -> np.ndarray:
    """A ``json``-parsed ``updates`` as (n, 3) int64 rows; an error names the bad update."""
    if type(raw) is not list:
        raise TraceParseError(f"updates must be a list, got {raw!r}", line_number)
    try:
        # one C-level pass over the values: np.array below would cast bools and floats
        if not set(map(type, chain.from_iterable(raw))) <= {int}:
            raise TypeError
        return np.array(raw, dtype=np.int64).reshape(len(raw), 3)
    except (TypeError, ValueError, OverflowError):
        for u in raw:
            if not (type(u) is list and len(u) == 3 and all(type(x) is int for x in u)):
                raise TraceParseError(f"update {u!r} is not 3 integers", line_number) from None
        raise TraceParseError("an update integer exceeds 64 bits", line_number) from None


def _cell_fault(rows: np.ndarray, bounds, surface) -> tuple[int, str]:
    """The first event (rows ``rows[bounds[k]:bounds[k + 1]]``) with an update outside the
    surface or two updates for one cell, and what is wrong; ``(len(bounds) - 1, "")`` if none."""
    limits = np.array([surface.n_cols, surface.n_rows, surface.n_states], np.uint64)
    bad = rows.view(np.uint64) >= limits  # a negative value wraps above every limit
    outside = int(bad.argmax()) // 3 if bad.any() else len(rows)
    k_out = int(np.searchsorted(bounds, outside, side="right")) - 1
    # repeats among the events before that one, whose cells are all inside
    n = int(bounds[k_out]) if outside < len(rows) else len(rows)
    event = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))[:n]
    cells = (event * surface.n_rows + rows[:n, 1]) * surface.n_cols + rows[:n, 0]
    # The writer lists an event's cells in row-major order, so its keys increase
    # and hold no repeat; only another order needs the sort.
    if not (cells[1:] > cells[:-1]).all():
        cells.sort()
        repeated = cells[1:][cells[1:] == cells[:-1]]
        if repeated.size:
            k, cell = divmod(int(repeated[0]), surface.n_cells)
            r, c = divmod(cell, surface.n_cols)
            return k, f"duplicate update for cell ({c}, {r})"
    if outside < len(rows):
        return k_out, (
            f"update {rows[outside].tolist()} outside the {surface.n_cols}x{surface.n_rows} "
            f"grid or the states [0, {surface.n_states})"
        )
    return len(bounds) - 1, ""


def _event_records(lines, surface):
    """(line number, object, updates, fault) of each event line, in order.

    A line in the writer's spelling yields its head object and its decoded
    rows with their ``_cell_fault`` message ("" when sound); any other line
    yields ``json``'s object and None, None, and is parsed only when reached,
    so that an earlier line's error comes first.
    """
    numbered = enumerate(lines, start=2)
    for group in _groups(numbered, lambda item: item[1].count("[")):
        split = [_split_event(line) for _, line in group]
        decoded = _decode_updates([s[1] for s in split if s])
        if decoded is None:  # keep the lines that decode on their own
            split = [s if s and _decode_updates([s[1]]) else None for s in split]
            decoded = _decode_updates([s[1] for s in split if s])
        rows, bounds = decoded
        k_fault, fault = _cell_fault(rows, bounds, surface)
        k = 0
        for (line_number, line), s in zip(group, split):
            if s is None:
                yield line_number, _parse_line(line, line_number), None, None
            else:
                updates = rows[bounds[k]:bounds[k + 1]]
                yield line_number, s[0], updates, fault if k == k_fault else ""
                k += 1


def read_trace(source: BinaryIO) -> TrafficTrace:
    """Inverse of :func:`write_trace`; validates structure on load."""
    header, lines = _read_lines(source)
    try:
        meta = meta_from_dict(header.get("meta"))
    except ValidationError as exc:
        raise TraceParseError(f"bad header meta: {exc}", 1) from None
    duration = meta.trajectory.duration

    events = []
    for line_number, obj, updates, fault in _event_records(lines[1:], meta.surface):
        try:
            t, theta, phi = obj["t"], obj["theta_r"], obj["phi_r"]
            raw = obj["updates"] if updates is None else None
        except KeyError as exc:
            raise TraceParseError(f"event record lacks {exc}", line_number) from None
        if not (is_finite_number(t) and is_finite_number(theta) and is_finite_number(phi)):
            raise TraceParseError(
                f"t, theta_r and phi_r must be finite numbers, got {t!r}, {theta!r}, {phi!r}",
                line_number,
            )
        t = float(t)
        if not 0.0 <= t <= duration:
            raise ValidationError(
                f"line {line_number}: event time {t!r} outside the scenario's [0, {duration!r}]"
            )
        if events and t <= events[-1].t:
            raise ValidationError(
                f"line {line_number}: event times must be strictly increasing "
                f"({t!r} after {events[-1].t!r})"
            )
        if updates is None:  # the json path
            updates = _updates(raw, line_number)
            fault = _cell_fault(updates, (0, len(updates)), meta.surface)[1]
        if fault:
            raise ValidationError(f"line {line_number}: {fault}")
        events.append(ReconfigEvent(t, Angles(float(theta), float(phi)), updates))
    return TrafficTrace(meta, tuple(events))


def write_report(report: WorkloadReport, dest: BinaryIO, created: str | None = None):
    """Write a workload report in the same line-delimited object format."""
    sink = _start(dest, created, kind="workload_report")
    sink.write_json({
        "total_packets": report.total_packets,
        "spatial_cv": report.spatial_cv,
        "per_event_changed_fraction": list(report.per_event_changed_fraction),
        "burst_sizes": list(report.burst_sizes),
        "inter_event_times": list(report.inter_event_times),
    })


def read_report(source: BinaryIO) -> WorkloadReport:
    """Inverse of :func:`write_report`; each value must fit its WorkloadReport field's type."""
    _, lines = _read_lines(source)
    body = _parse_line(lines[1], 2) if len(lines) > 1 else {}
    values = {}
    for field in fields(WorkloadReport):
        value, many = body.get(field.name), str(field.type).startswith("tuple")
        kind = int if "int" in str(field.type) else float
        items = value if many and type(value) is list else [value]
        valid = (type(x) is int if kind is int else is_finite_number(x) for x in items)
        if many != (type(value) is list) or not all(valid):
            raise TraceParseError(f"bad report body: {field.name} is {value!r}", 2)
        values[field.name] = tuple(map(kind, items)) if many else kind(value)
    return WorkloadReport(**values)


def export_heatmap(matrix: np.ndarray, fmt: str, dest: BinaryIO):
    """Write a destination matrix as header-less CSV or plain PGM (P2).

    CSV holds one matrix row per line.  PGM pixels are
    round(255 * entry / max entry); an all-zero matrix maps to all-zero
    pixels.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValidationError("heat-map matrix must be 2-D", key="matrix")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ValidationError("heat-map entries must be finite and >= 0", key="matrix")
    sink = _CountingSink(dest)
    if fmt == "csv":
        # An entry is count / total, so a heat map holds few distinct values: each is
        # formatted once.  Bit patterns keep -0.0 apart from 0.0.
        keys, index = np.unique(np.ascontiguousarray(m).view(np.int64), return_inverse=True)
        words = [format_number(v) for v in keys.view(float)]
        for row in index.reshape(m.shape).tolist():
            sink.write_line(",".join([words[i] for i in row]))
    elif fmt == "pgm":
        peak = m.max()
        if peak > 0:
            pixels = np.rint(255.0 * m / peak).astype(int)
        else:
            pixels = np.zeros(m.shape, dtype=int)
        n_rows, n_cols = m.shape
        sink.write_line("P2")
        sink.write_line(f"{n_cols} {n_rows}")
        sink.write_line("255")
        for row in pixels:
            for chunk in _wrap_tokens([str(v) for v in row], _PGM_MAX_LINE):
                sink.write_line(chunk)
    else:
        raise ValidationError(f"unknown heat-map format {fmt!r}", key="format")


def _wrap_tokens(tokens: list[str], width: int):
    """Join tokens with spaces into lines no longer than ``width`` characters."""
    line = ""
    for tok in tokens:
        if line and len(line) + 1 + len(tok) > width:
            yield line
            line = tok
        else:
            line = tok if not line else f"{line} {tok}"
    if line:
        yield line
